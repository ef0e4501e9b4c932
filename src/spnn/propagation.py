"""Field propagation through compiled layers with first-order crosstalk.

The signal traverses each layer stage by stage (V^H mesh, phase screen,
Sigma attenuators, U mesh, phase screen, then scalar gain/NAU factors).
At every two-port mesh MZI a crosstalk coefficient X is drawn; the routed
signal keeps the sqrt(1-X) field factor while a sqrt(X)-scaled row-swapped
copy is born as a leak field. Leaks do not re-leak (first order), so after
its birth a leak rides the plain lossy transfer of the rest of the network,
which no X draw touches.

Propagation with crosstalk is one forward pass and one backward pass. The
forward pass moves only the signal, draws X MZI by MZI in light order and
writes each newborn two-row leak into the leak bank. The backward pass
walks the stages in reverse, keeping the running suffix transfer S from
the current point to the output (S = I at the output). At each mesh MZI it
maps that MZI's leak to the output, S[:, r:r+2] @ leak, and then folds the
MZI's 2x2 cell into two columns of S; screens, attenuators and gains scale
the columns of S. Under the first-order model this is exact, and each leak
costs O(N) instead of a push through every later MZI. Leak fields are
phase-resolved only at measurement points via Monte-Carlo interference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spnn.device import MziParams, crosstalk_coefficient, mzi_cells, mzi_transfer
from spnn.mesh import LayerLayout, MziPlacement, lossless_cells
from spnn.numerics import Rng, db_to_field, dbm_to_mw, power_to_db

__all__ = [
    "PropagationResult",
    "NetworkSpec",
    "propagate_signal",
    "propagate_with_crosstalk",
    "network_cascade",
    "transfer_matrix",
    "ideal_transfer",
    "insertion_loss_per_port",
    "monte_carlo_interference",
    "crosstalk_power_matrix",
    "resolve_crosstalk_fields",
]


@dataclass
class PropagationResult:
    """Signal plus tracked leak fields at a measurement point.

    ``leak_fields`` has shape (N, K) (or (N, K, S) for batched inputs):
    one column per source MZI, spread over all N output ports.
    """

    signal: np.ndarray
    leak_fields: np.ndarray
    sources: list[tuple[int, int]]  # (layer, light-order mesh MZI index)
    birth_power: np.ndarray  # (K,) or (K, S): total leak power at spawn time
    gain_lin: np.ndarray  # (K,) power gain applied to each leak after birth


@dataclass
class NetworkSpec:
    """A cascade of compiled layers sharing one device parameter set."""

    layers: list[LayerLayout]
    params: MziParams
    input_power_dbm: float = 0.0
    photodetector_sensitivity_dbm: float = -11.7

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        n = self.layers[0].n
        if any(lay.n != n for lay in self.layers):
            raise ValueError("all layers must share the same port count")

    @property
    def n(self) -> int:
        return self.layers[0].n

    @property
    def m(self) -> int:
        return len(self.layers)

    def launch_field(self) -> np.ndarray:
        """Equal-phase field with input_power_dbm per port."""
        amp = math.sqrt(dbm_to_mw(self.input_power_dbm))
        return np.full(self.n, amp, dtype=complex)


# --------------------------------------------------------------------------
# Core engine
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Mesh:
    """A mesh's MZIs in light order (column by column, placement order
    within a column) as arrays: upper rows, thetas and (K, 2, 2) cells."""

    rows: np.ndarray
    thetas: np.ndarray
    cells: np.ndarray


def _mesh(placements: list[MziPlacement], p: MziParams, mode: str) -> _Mesh:
    ordered = sorted(placements, key=lambda pl: pl.column)  # stable sort
    rows = np.array([pl.top_row for pl in ordered], dtype=int)
    thetas = np.array([pl.phases.theta for pl in ordered], dtype=float)
    phis = np.array([pl.phases.phi for pl in ordered], dtype=float)
    if mode == "ideal":
        return _Mesh(rows, thetas, lossless_cells(thetas, phis))
    return _Mesh(rows, thetas, mzi_cells(p, thetas, phis))


def _sigma_factors(layout: LayerLayout, p: MziParams, mode: str) -> np.ndarray:
    factors = np.empty(layout.n, dtype=complex)
    for pl in layout.sigma_stage:
        if mode == "ideal":
            factors[pl.top_row] = math.sin(pl.phases.theta / 2.0)
        else:
            factors[pl.top_row] = mzi_transfer(p, pl.phases)[0, 0]
    return factors


def _stages(layout: LayerLayout, p: MziParams, mode: str) -> list:
    """One layer in light order. A stage is a :class:`_Mesh` or a per-port
    field factor (phase screen or Sigma attenuators)."""
    if mode not in ("ideal", "lossy"):
        raise ValueError(f"unknown mode {mode!r}")
    return [
        _mesh(layout.v_mesh, p, mode),
        np.exp(1j * layout.v_screen),
        _sigma_factors(layout, p, mode),
        _mesh(layout.u_mesh, p, mode),
        np.exp(1j * layout.u_screen),
    ]


def _gain(layout: LayerLayout) -> float:
    """Field factor of the layer's OGU gain and NAU loss."""
    return db_to_field(layout.nau_loss_db - layout.gain_db)


def _apply_rows(arr: np.ndarray, r: int, t2: np.ndarray) -> None:
    sub = arr[r : r + 2].reshape(2, -1)
    arr[r : r + 2] = (t2 @ sub).reshape(arr[r : r + 2].shape)


def _scale_ports(arr: np.ndarray, per_port: np.ndarray) -> None:
    arr *= per_port.reshape((len(per_port),) + (1,) * (arr.ndim - 1))


def _signal_pass(
    layers: list[LayerLayout],
    p: MziParams,
    signal: np.ndarray,
    mode: str,
    include_gain: bool,
) -> np.ndarray:
    """Crosstalk-free propagation; mutates ``signal`` (N, ...) in place."""
    for layout in layers:
        for stage in _stages(layout, p, mode):
            if isinstance(stage, _Mesh):
                for r, t2 in zip(stage.rows.tolist(), stage.cells):
                    _apply_rows(signal, r, t2)
            else:
                _scale_ports(signal, stage)
        if include_gain:
            signal *= _gain(layout)
    return signal


def _nominal_mw(leak_birth: str, launch_mw: float) -> float | None:
    """The power a newborn leak is booked at per unit X: the launch power
    for the power-budget ledger, None for the physical leak."""
    if leak_birth not in ("physical", "nominal"):
        raise ValueError(f"unknown leak_birth {leak_birth!r}")
    return launch_mw if leak_birth == "nominal" else None


def _split(signal: np.ndarray, r: int, t2: np.ndarray, x_db: float, nominal_mw):
    """Routes rows r, r+1 of ``signal`` through ``t2`` in place, keeping
    sqrt(1-X) of the field; returns the newborn leak (2, B) and its power per
    sample (B,), booked at X * ``nominal_mw`` unless that is None."""
    x_lin = 10.0 ** (x_db / 10.0)
    sub = signal[r : r + 2].reshape(2, -1)
    routed = t2 @ sub
    leak2 = math.sqrt(x_lin) * (t2[::-1, :] @ sub)
    signal[r : r + 2] = (math.sqrt(1.0 - x_lin) * routed).reshape(
        signal[r : r + 2].shape
    )
    born = np.sum(np.abs(leak2) ** 2, axis=0)
    if nominal_mw is not None:
        # Power-budget ledger: every leak is booked at X times the nominal
        # launch power, regardless of how much the local signal has already
        # been attenuated. The physical leak direction is kept.
        target = x_lin * nominal_mw
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(born > 0.0, np.sqrt(target / born), 0.0)
        leak2 = leak2 * scale
        born = np.where(born > 0.0, target, 0.0)
    return leak2, born


def _crosstalk_pass(
    layers: list[LayerLayout],
    p: MziParams,
    signal: np.ndarray,
    rng: Rng | None,
    nominal_mw: float | None,
    include_gain: bool,
) -> PropagationResult:
    """Lossy propagation with first-order leaks: a forward pass that moves
    the signal, draws X per mesh MZI in light order and records every leak
    at birth, then one backward pass that maps every leak to the output
    through the running suffix transfer."""
    stages = [_stages(layout, p, "lossy") for layout in layers]
    k_total = sum(len(lay.v_mesh) + len(lay.u_mesh) for lay in layers)
    leaks = np.zeros((signal.shape[0], k_total) + signal.shape[1:], dtype=complex)
    sources: list = [None] * k_total
    birth_power = np.zeros((k_total,) + signal.shape[1:])
    gain_lin = np.ones(k_total)

    slot = 0
    for m, (layout, layer) in enumerate(zip(layers, stages)):
        first = slot
        for stage in layer:
            if not isinstance(stage, _Mesh):
                _scale_ports(signal, stage)
                continue
            for r, theta, t2 in zip(
                stage.rows.tolist(), stage.thetas.tolist(), stage.cells
            ):
                x_db = crosstalk_coefficient(p, theta, rng)
                leak2, born = _split(signal, r, t2, x_db, nominal_mw)
                leaks[r : r + 2, slot] = leak2.reshape(leaks[r : r + 2, slot].shape)
                birth_power[slot] = born.reshape(np.shape(birth_power[slot]))
                sources[slot] = (m, slot - first)
                slot += 1
        if include_gain:
            f = _gain(layout)
            signal *= f
            gain_lin[:slot] *= f * f

    # suffix = transfer from the current point to the output, leaks excluded.
    suffix = np.eye(signal.shape[0], dtype=complex)
    for layout, layer in zip(reversed(layers), reversed(stages)):
        if include_gain:
            suffix *= _gain(layout)
        for stage in reversed(layer):
            if not isinstance(stage, _Mesh):
                suffix *= stage
                continue
            for r, t2 in zip(stage.rows[::-1].tolist(), stage.cells[::-1]):
                slot -= 1
                pair = suffix[:, r : r + 2]
                at_birth = leaks[r : r + 2, slot].reshape(2, -1)
                leaks[:, slot] = (pair @ at_birth).reshape(leaks[:, slot].shape)
                suffix[:, r : r + 2] = pair @ t2
    return PropagationResult(signal, leaks, sources, birth_power, gain_lin)


def _as_field_array(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape[0] != n:
        raise ValueError(f"field length {x.shape[0]} != port count {n}")
    return x.copy()


def propagate_signal(
    layout: LayerLayout,
    p: MziParams,
    x: np.ndarray,
    mode: str = "lossy",
    include_gain: bool = False,
) -> np.ndarray:
    """OIU-only propagation (no crosstalk). ``ideal`` mode uses zero-dB
    losses so the result is exactly ``(w / s_max) @ x``; ``lossy`` applies
    the full device model per placement. Gain/NAU factors only when asked.
    """
    signal = _as_field_array(x, layout.n)
    return _signal_pass([layout], p, signal, mode, include_gain)


def propagate_with_crosstalk(
    layout: LayerLayout,
    p: MziParams,
    x: np.ndarray,
    rng: Rng | None = None,
    include_gain: bool = False,
    leak_birth: str = "physical",
    nominal_power_mw: float = 1.0,
) -> PropagationResult:
    """Lossy propagation with per-MZI crosstalk injection (single layer)."""
    nominal_mw = _nominal_mw(leak_birth, nominal_power_mw)
    signal = _as_field_array(x, layout.n)
    return _crosstalk_pass([layout], p, signal, rng, nominal_mw, include_gain)


def network_cascade(
    spec: NetworkSpec,
    x: np.ndarray | None = None,
    rng: Rng | None = None,
    crosstalk: bool = True,
    leak_birth: str = "physical",
) -> PropagationResult:
    """Feed layer outputs forward through all M layers.

    Leaks born in layer m traverse layers m+1..M in lossy mode (including
    each traversed layer's gain and NAU factors) without spawning further
    leaks; one backward pass maps the leaks of all M layers. ``leak_birth=
    "nominal"`` books each leak at X times the network launch power instead
    of X times the local (already attenuated) signal power; that is the
    power-budget ledger used for network-level crosstalk reporting.
    """
    if x is None:
        x = spec.launch_field()
    signal = _as_field_array(x, spec.n)
    nominal_mw = _nominal_mw(leak_birth, dbm_to_mw(spec.input_power_dbm))
    if not crosstalk:
        _signal_pass(spec.layers, spec.params, signal, "lossy", include_gain=True)
        leaks = np.zeros((spec.n, 0) + signal.shape[1:], dtype=complex)
        birth_power = np.zeros((0,) + signal.shape[1:])
        return PropagationResult(signal, leaks, [], birth_power, np.ones(0))
    return _crosstalk_pass(
        spec.layers, spec.params, signal, rng, nominal_mw, include_gain=True
    )


# --------------------------------------------------------------------------
# Transfer matrices and reporting
# --------------------------------------------------------------------------

def transfer_matrix(
    layers: list[LayerLayout],
    p: MziParams,
    mode: str = "lossy",
    include_gain: bool = False,
) -> np.ndarray:
    """End-to-end transfer matrix of the cascade (crosstalk off)."""
    t = np.eye(layers[0].n, dtype=complex)
    return _signal_pass(layers, p, t, mode, include_gain)


def ideal_transfer(layers: list[LayerLayout], p: MziParams) -> np.ndarray:
    """Lossless, gain-free cascade: the product of w_m / s_max_m."""
    return transfer_matrix(layers, p, mode="ideal", include_gain=False)


def insertion_loss_per_port(
    layers: list[LayerLayout], p: MziParams, include_gain: bool = True
) -> np.ndarray:
    """Per-output-port IL in dB: lossy (with gain/NAU when requested) row
    power relative to the ideal cascade's row power. The Sigma
    normalization deficit is excluded by construction (it appears in both)
    and is reported separately via ``LayerLayout.sigma_deficit_db``."""
    lossy = transfer_matrix(layers, p, mode="lossy", include_gain=include_gain)
    ideal = transfer_matrix(layers, p, mode="ideal", include_gain=False)
    lossy_pow = np.sum(np.abs(lossy) ** 2, axis=1)
    ideal_pow = np.sum(np.abs(ideal) ** 2, axis=1)
    # Row powers are the outputs for unit power on each of the n inputs.
    return power_to_db(_port_ratios(lossy_pow, ideal_pow, layers[0].n))


def _port_ratios(lossy_pow, ideal_pow, input_pow: float) -> np.ndarray:
    """Per-port lossy/ideal output power ratios. A port whose ideal power is
    below 1e-20 of the input power is dark: its ratio means nothing and is
    NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = lossy_pow / ideal_pow
    ratios[ideal_pow < 1e-20 * input_pow] = np.nan
    return ratios


def crosstalk_power_matrix(result: PropagationResult) -> np.ndarray:
    """Per-(port, source) crosstalk power in mW at the measurement point."""
    phys = np.abs(result.leak_fields) ** 2
    if phys.ndim != 2:
        raise ValueError("crosstalk_power_matrix expects an unbatched result")
    return phys


# --------------------------------------------------------------------------
# Monte-Carlo coherent interference
# --------------------------------------------------------------------------

def monte_carlo_interference(
    amplitudes: np.ndarray,
    signal_amplitude: float,
    trials: int,
    rng: Rng,
    chunk: int = 2000,
    percentiles: tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 95.0),
) -> dict:
    """Resolve unresolved crosstalk phases on one port statistically.

    Per trial each component gets an independent phase rho ~ U[0, 2pi);
    the trial records the received power |A_sig + sum A_k e^{j rho_k}|^2
    and the crosstalk-only power |sum A_k e^{j rho_k}|^2.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    amplitudes = np.asarray(amplitudes, dtype=float)
    k = amplitudes.size
    received = np.empty(trials)
    xtalk = np.empty(trials)
    if k == 0:
        received[:] = signal_amplitude**2
        xtalk[:] = 0.0
    else:
        done = 0
        while done < trials:
            m = min(chunk, trials - done)
            rho = rng.uniform(0.0, 2.0 * math.pi, size=(m, k))
            summed = np.exp(1j * rho) @ amplitudes.astype(complex)
            xtalk[done : done + m] = np.abs(summed) ** 2
            received[done : done + m] = np.abs(signal_amplitude + summed) ** 2
            done += m
    aligned = float(np.sum(amplitudes)) ** 2
    return {
        "received_mean_mw": float(received.mean()),
        "received_min_mw": float(received.min()),
        "received_percentiles_mw": {
            q: float(np.percentile(received, q)) for q in percentiles
        },
        "xtalk_mean_mw": float(xtalk.mean()),
        "xtalk_max_mw": float(xtalk.max()),
        "xtalk_percentiles_mw": {
            q: float(np.percentile(xtalk, q)) for q in percentiles
        },
        "xtalk_aligned_mw": aligned,
        "received_destructive_mw": max(0.0, signal_amplitude - math.sqrt(aligned))
        ** 2,
    }


# Leak-bank bytes resolve_crosstalk_fields turns into phased fields at a
# time: it bounds the temporaries (phases, magnitudes, phasors), not the bank.
_RESOLVE_BLOCK_BYTES = 8 * 2**20


def resolve_crosstalk_fields(
    result: PropagationResult, rng: Rng
) -> np.ndarray:
    """Add every leak field to the signal with an independent random phase
    per (port, component[, sample]); used by inference-accuracy forwards.

    The bank is resolved in blocks of port rows. The phases are drawn
    block by block in row order, which consumes the stream exactly as one
    draw of the bank's full shape does, so the result does not depend on
    the block size."""
    leaks = result.leak_fields
    if leaks.shape[1] == 0:
        return result.signal.copy()
    rows = max(1, _RESOLVE_BLOCK_BYTES // leaks[0].nbytes)
    out = np.empty(result.signal.shape, dtype=complex)
    for lo in range(0, leaks.shape[0], rows):
        block = leaks[lo : lo + rows]
        rho = rng.uniform(0.0, 2.0 * math.pi, size=block.shape)
        out[lo : lo + rows] = result.signal[lo : lo + rows] + np.sum(
            np.abs(block) * np.exp(1j * rho), axis=1
        )
    return out
