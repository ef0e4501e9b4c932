"""Network-level reporting and system-level accuracy studies.

Three layers of functionality:

* Ensemble statistics over random weight matrices: per-port insertion loss
  and coherent crosstalk at layer and network level.
* Optical power penalty: the extra laser power needed so the worst output
  still clears the photodetector under loss and coherent crosstalk.
* A desk-scale complex-valued reference trainer plus hardware-accurate
  inference evaluation under loss/crosstalk, with sweep/sampling/search
  utilities around it.

Conventions:

* Per-port insertion loss is the coherent lossy/lossless output power
  ratio for an equal-power random-phase probe input. The lossy output is
  read off the crosstalk pass's suffix transfer (``result.transfer @ x``),
  so IL and crosstalk come from one lossy walk. Ratio averages are formed
  in the linear domain and quoted in dB.
* Every power is computed at the 1 mW-per-port reference launch; the
  CLI adds ``launch_power_dbm`` to the crosstalk columns it prints.
* Layer-level crosstalk uses physical ("field") leak powers, no gain.
  Network-level crosstalk and accuracy evaluation use the power-budget
  ledger (``leak_birth="nominal"``), which books each leak at X times 1 mW.
* One function, ``_port_powers``, reads per-port insertion loss and both
  crosstalk powers for every ensemble study and the penalty: the expected
  power ``sum_k |a_k|^2`` and the aligned worst case ``(sum_k |a_k|)^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from spnn.data import FeatureDataset
from spnn.device import LOSSLESS_MZI, MziParams
from spnn.mesh import LayerLayout, compile_layer, compile_layers
from spnn.numerics import Rng, mw_to_dbm, power_to_db
from spnn.propagation import (
    NetworkSpec,
    PropagationResult,
    network_cascade,
    propagate_signal,
    propagate_with_crosstalk,
    resolve_crosstalk_fields,
)

__all__ = [
    "PortStatistics",
    "PenaltyReport",
    "AccuracyResult",
    "TrainResult",
    "ComplexMlp",
    "EXPECTED_ALPHA_RANGES",
    "random_phase_input",
    "layer_statistics",
    "network_statistics",
    "power_penalty",
    "penalty_statistics",
    "params_with_alphas",
    "train_reference",
    "accuracy_eval",
    "loss_sweep",
    "joint_loss_sample",
    "tolerance_search",
    "crosstalk_grid",
]

# Expected fabrication ranges for the three loss sources, in dB. The
# propagation entry is the total per-device figure (rate times length).
EXPECTED_ALPHA_RANGES = {
    "alpha_l_db": (0.1, 0.4),
    "alpha_m_db": (0.1, 0.3),
    "alpha_prop_db": (0.03, 0.12),
}


@dataclass(frozen=True)
class PortStatistics:
    """Ensemble insertion-loss / crosstalk summary for one (N, M) point."""

    il_avg_db: float
    il_worst_db: float
    xp_avg_dbm: float
    xp_worst_dbm: float


@dataclass(frozen=True)
class PenaltyReport:
    """Per-port laser-power requirement for one propagated network."""

    per_port_penalty_dbm: np.ndarray
    avg_dbm: float
    worst_dbm: float
    il_db: np.ndarray


@dataclass(frozen=True)
class AccuracyResult:
    """Classification accuracy of one hardware-model evaluation."""

    accuracy_pct: float
    n_samples: int


@dataclass
class TrainResult:
    model: "ComplexMlp"
    loss_curve: list[float]
    train_accuracy_pct: float
    converged: bool


def random_phase_input(n: int, rng: Rng) -> np.ndarray:
    """Unit power on every port, independent uniform phases."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


def params_with_alphas(
    alpha_l_db: float,
    alpha_m_db: float,
    alpha_prop_db: float,
    base: MziParams | None = None,
) -> MziParams:
    """Device parameters with the three loss knobs set explicitly.

    ``alpha_prop_db`` is the total propagation loss over the device length;
    it is converted back to a per-cm rate using the base geometry.
    """
    base = base if base is not None else MziParams()
    length_cm = base.l_mzi_um * 1e-4
    if length_cm <= 0.0:
        raise ValueError("a loss study needs l_mzi_um > 0")
    return replace(
        base,
        alpha_l_db=alpha_l_db,
        alpha_m_db=alpha_m_db,
        alpha_p_db_per_cm=alpha_prop_db / length_cm,
    )


# Trials per compile_layers call in the ensemble statistics. It bounds the
# layouts held at once, and so peak memory; results do not depend on it.
_COMPILE_GROUP = 32


def _compiled_trials(n: int, m: int, trials: int, seed: int):
    """Yields, for trial i, ``Rng(seed + i)`` after its m weight draws and
    the m layers compiled from them. Each group of ``_COMPILE_GROUP``
    trials draws its weights first and compiles them in one stacked call;
    compiling draws no random numbers, so each trial's stream goes on as if
    it had compiled alone."""
    for lo in range(0, trials, _COMPILE_GROUP):
        rngs = [Rng(seed + i) for i in range(lo, min(lo + _COMPILE_GROUP, trials))]
        layouts = compile_layers(
            np.array([r.standard_normal((n, n)) for r in rngs for _ in range(m)])
        )
        for k, r in enumerate(rngs):
            yield r, layouts[k * m : (k + 1) * m]


def _port_powers(
    result: PropagationResult, layers: list[LayerLayout], x: np.ndarray
) -> np.ndarray:
    """Rows lossy/ideal output power ratio, ``sum_k |a_k|^2`` and
    ``(sum_k |a_k|)^2`` per port of one crosstalk pass driven by ``x``. The
    ideal output walks ``layers`` on the lossless device; a port whose ideal
    power is below 1e-20 of the input power is dark, its ratio NaN. The
    einsum squares no copy of the bank and, unlike a BLAS dot, does not
    depend on the thread count."""
    ideal = x
    for layout in layers:
        ideal = propagate_signal(layout, LOSSLESS_MZI, ideal)
    ideal_pow = np.abs(ideal) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(result.transfer @ x) ** 2 / ideal_pow
    ratio[ideal_pow < 1e-20 * np.sum(np.abs(x) ** 2)] = np.nan
    amps = result.leak_fields
    return np.array(
        [ratio, np.einsum("nk,nk->n", amps, amps), np.sum(amps, axis=1) ** 2]
    )


# --------------------------------------------------------------------------
# Ensemble statistics
# --------------------------------------------------------------------------

def _layer_trials(n: int, p: MziParams, trials: int, seed: int):
    """Single-layer trials: trial i is a random weight matrix and a
    random-phase input of 1 mW per port, both drawn from ``Rng(seed + i)``.
    Yields per trial the :func:`_port_powers` of its pass: no gain,
    physical leak powers."""
    for r, (layout,) in _compiled_trials(n, 1, trials, seed):
        x = random_phase_input(n, r)
        res = propagate_with_crosstalk(layout, p, x, rng=r)
        yield _port_powers(res, [layout], x)


def layer_statistics(
    n: int,
    p: MziParams,
    trials: int = 100,
    seed: int = 123,
) -> PortStatistics:
    """Single-layer (mesh-only) statistics: no gain and no activation loss.

    IL average pools every (matrix, port) power ratio in the linear domain;
    the worst case is the largest per-port loss seen across the whole
    ensemble (the boxplot outlier). Crosstalk uses physical leak powers:
    average = expected per-port crosstalk power, worst = aligned bound.
    """
    ratios, xp, xp_aligned = np.concatenate(
        list(_layer_trials(n, p, trials, seed)), axis=1
    )
    return PortStatistics(
        il_avg_db=float(power_to_db(ratios.mean())),
        il_worst_db=float(power_to_db(ratios).max()),
        xp_avg_dbm=float(mw_to_dbm(xp.mean())),
        xp_worst_dbm=float(mw_to_dbm(xp_aligned.max())),
    )


def network_statistics(
    n: int,
    m: int,
    p: MziParams,
    trials: int = 10,
    seed: int = 777,
) -> PortStatistics:
    """Full-network statistics with per-layer gain and activation loss.

    IL follows the same linear-domain pooling as :func:`layer_statistics`;
    the worst case is the ensemble mean of each matrix's worst port (the
    expected worst port, which is what a network-scaling surface reports).
    Crosstalk uses the power-budget ledger: the average is the expected
    total crosstalk power delivered to the output plane, the worst case
    aligns every component within each port and sums the ports.
    """
    powers = []
    for r, layers in _compiled_trials(n, m, trials, seed):
        x = random_phase_input(n, r)
        res = network_cascade(
            NetworkSpec(layers, p), x, rng=r, leak_birth="nominal"
        )
        powers.append(_port_powers(res, layers, x))
        del res  # free this bank before the next trial's pass
    ratios, xp, xp_aligned = np.stack(powers, axis=1)  # each (trial, port)
    return PortStatistics(
        il_avg_db=float(power_to_db(ratios.mean())),
        il_worst_db=float(np.mean(power_to_db(ratios).max(axis=1))),
        xp_avg_dbm=float(mw_to_dbm(np.mean(xp.sum(axis=1)))),
        xp_worst_dbm=float(mw_to_dbm(np.max(xp_aligned.sum(axis=1)))),
    )


# --------------------------------------------------------------------------
# Power penalty
# --------------------------------------------------------------------------

def power_penalty(
    spec: NetworkSpec,
    result: PropagationResult,
    x: np.ndarray | None = None,
) -> PenaltyReport:
    """Minimal launch power per port so the output clears the detector.

    Per port y the requirement is ``P >= S_PD + IL_y + XP_y`` with IL_y the
    port's insertion loss in dB and XP_y its aligned coherent crosstalk
    bound ``(sum_k |a_k|)^2`` in dBm at the 1 mW reference launch. Because
    crosstalk shifts one-for-one with launch power the requirement is solved
    once at the reference power; a port whose crosstalk sits below the 1 mW
    reference contributes no crosstalk line (the penalty can never drop
    below ``S_PD + IL``). A port the ideal network leaves dark has NaN IL
    and penalty; the average and worst are taken over the other ports, and
    are NaN only when every port is dark.
    """
    if x is None:
        x = spec.launch_field()
    ratios, _, xp_aligned = _port_powers(result, spec.layers, x)
    il_db, xp_dbm = power_to_db(ratios), mw_to_dbm(xp_aligned)
    per_port = spec.photodetector_sensitivity_dbm + il_db + np.maximum(0.0, xp_dbm)
    lit = per_port[~np.isnan(il_db)]  # a dark port needs no launch power
    return PenaltyReport(
        per_port_penalty_dbm=per_port,
        avg_dbm=float(lit.mean()) if lit.size else math.nan,
        worst_dbm=float(lit.max()) if lit.size else math.nan,
        il_db=il_db,
    )


def penalty_statistics(
    n: int,
    m: int,
    p: MziParams,
    trials: int = 10,
    seed: int = 777,
    sensitivity_dbm: float = -11.7,
) -> tuple[float, float, list[float]]:
    """(avg, worst, per-matrix) penalty over a random-matrix ensemble.

    Each matrix contributes its binding (worst) port's requirement under
    aligned crosstalk from the power-budget ledger; the "average" is the
    ensemble mean of those per-matrix penalties.

    Layers compile one compile_layer call each, not in trial groups:
    perfbench's traced self-test counts compile_layer calls on this path.
    """
    penalties = []
    for i in range(trials):
        r = Rng(seed + i)
        layers = [compile_layer(r.standard_normal((n, n))) for _ in range(m)]
        spec = NetworkSpec(
            layers, p, photodetector_sensitivity_dbm=sensitivity_dbm
        )
        x = random_phase_input(n, r)
        res = network_cascade(spec, x, rng=r, leak_birth="nominal")
        penalties.append(power_penalty(spec, res, x=x).worst_dbm)
        del res  # free this bank before the next trial's pass
    return float(np.mean(penalties)), float(np.max(penalties)), penalties


# --------------------------------------------------------------------------
# Reference trainer (ideal complex-valued model)
# --------------------------------------------------------------------------

@dataclass
class ComplexMlp:
    """Fully connected complex network; one mesh-compilable matrix per layer.

    The hidden activation is the phase-preserving magnitude threshold
    f(z) = z * max(0, 1 - b/|z|); the readout is the softmax of output-port
    optical power |z|^2.
    """

    weights: list[np.ndarray]
    bias: float = 0.1

    def __post_init__(self):
        if not self.weights:
            raise ValueError("model needs at least one layer")
        n = self.weights[0].shape[0]
        for w in self.weights:
            if w.shape != (n, n):
                raise ValueError("all layers must be square and same size")
        if self.bias < 0:
            raise ValueError("activation bias must be >= 0")

    @property
    def n(self) -> int:
        return self.weights[0].shape[0]

    def activation(self, z: np.ndarray) -> np.ndarray:
        mag = np.abs(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(mag > self.bias, 1.0 - self.bias / mag, 0.0)
        return z * scale

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Ideal lossless forward; ``x`` is (n, samples), returns (n, samples)."""
        a = x
        for w in self.weights[:-1]:
            a = self.activation(w @ a)
        return self.weights[-1] @ a

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Class per sample from output-port power; ``features`` (S, n)."""
        z = self.forward(np.asarray(features, dtype=complex).T)
        return np.argmax(np.abs(z) ** 2, axis=0)


def _softmax_rows(q: np.ndarray) -> np.ndarray:
    q = q - q.max(axis=0, keepdims=True)
    e = np.exp(q)
    return e / e.sum(axis=0, keepdims=True)


def _loss_and_grads(
    model: ComplexMlp, x: np.ndarray, labels: np.ndarray, temp: float = 1.0
):
    """Cross-entropy on softmax(temp * |out|^2) with conjugate-coordinate
    gradients.

    Returns (loss, [dL/d conj(W_k)]); the steepest-descent update for a
    real loss over complex weights is W -= lr * dL/d conj(W). ``temp``
    sharpens the power readout: with spectral-norm-bounded weights the
    output powers are small and a plain softmax would be nearly flat.
    """
    b = model.bias
    acts = [x]
    pre = []
    a = x
    for w in model.weights[:-1]:
        z = w @ a
        pre.append(z)
        a = model.activation(z)
        acts.append(a)
    z_out = model.weights[-1] @ a
    probs = _softmax_rows(temp * np.abs(z_out) ** 2)
    s = x.shape[1]
    onehot = np.zeros_like(probs)
    onehot[labels, np.arange(s)] = 1.0
    loss = float(-np.mean(np.log(probs[labels, np.arange(s)] + 1e-300)))
    # h = dL/d conj(z): for q = temp * z conj(z), dq/d conj(z) = temp * z.
    h = temp * (probs - onehot) * z_out / s
    grads = [None] * len(model.weights)
    grads[-1] = _outer_sum(h, acts[-1])
    for k in range(len(model.weights) - 2, -1, -1):
        # Back through the linear stage above this activation.
        h_a = model.weights[k + 1].conj().T @ h
        z = pre[k]
        mag = np.abs(z)
        alive = mag > b
        with np.errstate(divide="ignore", invalid="ignore"):
            f_z = np.where(alive, 1.0 - b / (2.0 * mag), 0.0)
            f_zbar = np.where(alive, b * z * z / (2.0 * mag**3), 0.0)
        h = h_a * f_z + h_a.conj() * f_zbar
        grads[k] = _outer_sum(h, acts[k])
    return loss, grads


def _outer_sum(h: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``h @ a^H`` (N, N) summed over fixed blocks of max(1, 2**16 // N**2)
    samples, so that the sum does not depend on how BLAS splits it across
    threads. The block rule is empirical: at N=32, blocks four times larger
    still moved the last bits between one and two OpenBLAS threads."""
    step = max(1, 2**16 // h.shape[0] ** 2)
    a_h, blocks = a.conj().T, range(0, h.shape[1], step)
    return sum(h[:, lo : lo + step] @ a_h[lo : lo + step] for lo in blocks)


def train_reference(
    shape: tuple[int, int],
    dataset: FeatureDataset,
    epochs: int = 500,
    rng: Rng | None = None,
    lr: float = 0.02,
    bias: float = 0.1,
    temp: float = 400.0,
) -> TrainResult:
    """Train the ideal (lossless, crosstalk-free) reference model.

    ``shape`` is (port count, layer count). Full-batch Adam on complex
    weights; classes are read out as output-port indices, so the dataset
    may use at most N classes.

    Each layer is projected to spectral norm <= 1 after every step, so the
    compiled passive mesh realizes the weights at (or above) scale 1 and
    the model cannot rely on digital amplification to clear the activation
    threshold. ``temp`` is the readout temperature applied to output-port
    powers inside the training softmax.
    """
    n, m = shape
    if dataset.n_features != n:
        raise ValueError(
            f"dataset features of length {dataset.n_features} != N={n}"
        )
    if dataset.n_classes > n:
        raise ValueError("more classes than output ports")
    rng = rng if rng is not None else Rng(0)
    weights = [
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        / math.sqrt(2 * n)
        for _ in range(m)
    ]
    model = ComplexMlp(weights, bias=bias)
    x_all = dataset.features.T.copy()
    y_all = dataset.labels
    mom = [np.zeros_like(w) for w in weights]
    vel = [np.zeros(w.shape) for w in weights]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    curve = []
    for step in range(1, epochs + 1):
        loss, grads = _loss_and_grads(model, x_all, y_all, temp=temp)
        for k, g in enumerate(grads):
            mom[k] = beta1 * mom[k] + (1 - beta1) * g
            vel[k] = beta2 * vel[k] + (1 - beta2) * np.abs(g) ** 2
            m_hat = mom[k] / (1 - beta1**step)
            v_hat = vel[k] / (1 - beta2**step)
            model.weights[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            top = _layer_smax(model.weights[k])
            if top > 1.0:
                model.weights[k] /= top
        curve.append(loss)
    acc = 100.0 * float(np.mean(model.predict(dataset.features) == y_all))
    converged = bool(np.isfinite(curve[-1]) and curve[-1] < curve[0])
    return TrainResult(model, curve, acc, converged)


# --------------------------------------------------------------------------
# Hardware-accurate inference evaluation
# --------------------------------------------------------------------------

def accuracy_eval(
    model: ComplexMlp,
    dataset: FeatureDataset,
    p: MziParams,
    crosstalk: bool = False,
    rng: Rng | None = None,
) -> AccuracyResult:
    """Evaluate the compiled model under the device loss/crosstalk model.

    Each layer's matrix is compiled to a mesh layout; light propagates in
    lossy mode (no amplifier, no activation-unit loss: the loss under study
    is the mesh's own). The mesh realizes W/s_max, so the measured field is
    rescaled by s_max before the activation; for a unit-norm-trained model
    this rescale is the identity. With crosstalk enabled, leak fields use
    the same power-budget ledger as the network statistics (each leak is
    booked at X times the unit launch power) and are resolved at each layer
    output with independent uniform phases. Classification is the argmax of
    output-port power; ties resolve to the lowest port index
    deterministically. Feature vectors are unit-L2, so per-sample launch
    power is 1 mW-equivalent.
    """
    if crosstalk and rng is None:
        raise ValueError("crosstalk evaluation needs an rng")
    compiled = compile_layers(model.weights)
    return _evaluate(compiled, model, dataset, p, rng if crosstalk else None)


def _evaluate(compiled, model, dataset, p, rng=None) -> AccuracyResult:
    """:func:`accuracy_eval` on the layouts ``compile_layers(model.weights)``,
    with crosstalk when ``rng`` is given. Compiling draws no random numbers,
    so a sweep compiles once and evaluates every point on the result."""
    a = dataset.features.T.copy()  # (n, samples)
    for k, layout in enumerate(compiled):
        if rng is not None:
            res = propagate_with_crosstalk(layout, p, a, rng=rng, leak_birth="nominal")
            out = resolve_crosstalk_fields(res, rng)
            del res  # free this bank before the next layer's pass
        else:
            out = propagate_signal(layout, p, a, mode="lossy")
        out = out * layout.s_max
        a = model.activation(out) if k < len(compiled) - 1 else out
    pred = np.argmax(np.abs(a) ** 2, axis=0)
    acc = 100.0 * float(np.mean(pred == dataset.labels))
    return AccuracyResult(acc, dataset.n_samples)


def _layer_smax(w: np.ndarray) -> float:
    return float(np.linalg.svd(w, compute_uv=False)[0])


def _one_axis_params(p: MziParams, which: str, value: float) -> MziParams:
    """The device ``p`` with loss axis ``which`` at ``value`` dB and the
    other two at 0 dB."""
    alphas = dict.fromkeys(EXPECTED_ALPHA_RANGES, 0.0)
    alphas[which] = float(value)
    return params_with_alphas(**alphas, base=p)


def loss_sweep(
    model: ComplexMlp,
    dataset: FeatureDataset,
    p: MziParams,
    which: str,
    grid,
) -> list[AccuracyResult]:
    """Accuracy on the device ``p`` along one loss axis, the other two at
    0 dB, crosstalk off."""
    if which not in EXPECTED_ALPHA_RANGES:
        raise ValueError(
            f"unknown loss axis {which!r}; options {sorted(EXPECTED_ALPHA_RANGES)}"
        )
    compiled = compile_layers(model.weights)
    return [
        _evaluate(compiled, model, dataset, _one_axis_params(p, which, value))
        for value in grid
    ]


def joint_loss_sample(
    model: ComplexMlp,
    dataset: FeatureDataset,
    p: MziParams,
    n_instances: int,
    rng: Rng,
) -> list[tuple[float, float, float, float]]:
    """Sample loss triples from per-axis half-normals and evaluate accuracy
    on the device ``p`` with those losses.

    Each axis draws ``lo + |N(0, sigma)|`` with ``lo`` the expected minimum
    and ``3 sigma`` at the expected maximum. Returns (alpha_l, alpha_m,
    alpha_prop, accuracy_pct) rows.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    compiled = compile_layers(model.weights)
    rows = []
    for _ in range(n_instances):
        draws = {}
        for key, (lo, hi) in EXPECTED_ALPHA_RANGES.items():
            draws[key] = float(rng.half_normal(lo, hi / 3.0))
        q = params_with_alphas(**draws, base=p)
        acc = _evaluate(compiled, model, dataset, q).accuracy_pct
        rows.append((*draws.values(), acc))  # EXPECTED_ALPHA_RANGES order
    return rows


def tolerance_search(
    model: ComplexMlp,
    dataset: FeatureDataset,
    p: MziParams,
    max_drop_pct: float,
) -> dict:
    """Largest single-axis loss on the device ``p`` keeping accuracy within
    ``max_drop_pct`` of its zero-loss accuracy (other axes at 0, crosstalk
    off): 4x the expected maximum if accuracy still passes there, else 18
    bisection steps over [0, 4x the expected maximum]."""
    if max_drop_pct <= 0:
        raise ValueError("max_drop_pct must be > 0")
    compiled = compile_layers(model.weights)

    def accuracy(q: MziParams) -> float:
        return _evaluate(compiled, model, dataset, q).accuracy_pct

    floor = accuracy(params_with_alphas(0.0, 0.0, 0.0, base=p)) - max_drop_pct
    out = {}
    for key, (_, hi) in EXPECTED_ALPHA_RANGES.items():
        ok, bad = 0.0, 4.0 * hi
        if accuracy(_one_axis_params(p, key, bad)) >= floor:
            out[key] = bad
            continue
        for _ in range(18):
            mid = 0.5 * (ok + bad)
            if accuracy(_one_axis_params(p, key, mid)) >= floor:
                ok = mid
            else:
                bad = mid
        out[key] = ok
    return out


def crosstalk_grid(
    model: ComplexMlp,
    dataset: FeatureDataset,
    p: MziParams,
    xb_grid,
    xc_grid,
    rng: Rng,
) -> np.ndarray:
    """Accuracy matrix over (X_B, X_C) pairs on the device ``p`` with losses
    at expected minima.

    Cells violating the X_B <= X_C ordering are skipped (NaN).
    """
    base = params_with_alphas(
        **{k: lo for k, (lo, _) in EXPECTED_ALPHA_RANGES.items()}, base=p
    )
    compiled = compile_layers(model.weights)
    grid = np.full((len(xb_grid), len(xc_grid)), np.nan)
    for i, xb in enumerate(xb_grid):
        for j, xc in enumerate(xc_grid):
            if xb > xc:
                continue
            q = replace(base, xb_db=float(xb), xc_db=float(xc))
            cell = _evaluate(compiled, model, dataset, q, rng.spawn(i, j))
            grid[i, j] = cell.accuracy_pct
    return grid
