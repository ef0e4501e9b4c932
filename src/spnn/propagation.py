"""Field propagation through compiled layers with first-order crosstalk.

The signal traverses each layer stage by stage (V^H mesh, phase screen,
Sigma attenuators, U mesh, phase screen, then scalar gain/NAU factors).
At every two-port mesh MZI a crosstalk coefficient X is drawn; the routed
signal keeps the sqrt(1-X) field factor while a sqrt(X)-scaled row-swapped
copy is born as a leak field. Leaks do not re-leak (first order), so after
its birth a leak rides the plain lossy transfer of the rest of the network.

The MZIs of a mesh column share no waveguide, so every pass takes a whole
column per step, one stacked (c, 2, 2) @ (c, 2, B) product on the gathered
row pairs (as in Pai et al., Phys. Rev. Applied 11, 064044, 2019). With
crosstalk, a forward pass moves the signal, draws the X of each mesh in one
vector call that leaves the random stream as the MZI-by-MZI scalar draws do,
and keeps each newborn two-row leak in a (K, 2[, S]) array. One backward
pass keeps the running suffix transfer S from the current point to the
output (S = I there): per column it maps each leak to the output,
S[:, (r, r+1)] @ leak, and stores only its magnitude, in a float64 leak
bank, then folds the column's cells into those 2c columns of S; screens,
attenuators and gains scale the columns of S. This is exact under the
first-order model, and at the input S is the whole lossy crosstalk-free
transfer, returned so that insertion loss needs no second walk. Leak
phases are drawn only where leaks are resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spnn.device import LOSSLESS_MZI, MziParams, crosstalk_coefficient, mzi_cells
# Not called here: perfbench/test_perfbench.py's
# test_shim_wraps_importers_and_restores_every_function checks it is wrapped here.
from spnn.device import mzi_transfer  # noqa: F401
from spnn.mesh import LayerLayout, _schedule
from spnn.numerics import Rng, db_to_field

__all__ = [
    "GAIN_DB",
    "NAU_LOSS_DB",
    "PropagationResult",
    "NetworkSpec",
    "propagate_signal",
    "propagate_with_crosstalk",
    "network_cascade",
    "transfer_matrix",
    "monte_carlo_interference",
    "resolve_crosstalk_fields",
]

# Every network layer's optical gain unit and nonlinear activation unit.
GAIN_DB = 17.0
NAU_LOSS_DB = 1.0


@dataclass
class PropagationResult:
    """Signal plus tracked leak fields at a measurement point.

    ``leak_fields`` has shape (N, K) (or (N, K, S) for batched inputs):
    one column per source MZI, spread over all N output ports, as float64
    magnitudes |a|. ``spnn.analysis`` frees each result before its next pass.
    ``transfer`` (N, N) is the lossy crosstalk-free transfer from the input
    to the measurement point, gain included where the pass applied it.
    """

    signal: np.ndarray
    leak_fields: np.ndarray
    transfer: np.ndarray


@dataclass
class NetworkSpec:
    """A cascade of compiled layers sharing one device parameter set."""

    layers: list[LayerLayout]
    params: MziParams
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

    def launch_field(self) -> np.ndarray:
        """Equal-phase field of 1 mW per port."""
        return np.ones(self.n, dtype=complex)


# --------------------------------------------------------------------------
# Core engine
# --------------------------------------------------------------------------

def _stages(layout: LayerLayout, p: MziParams, gain: bool) -> list:
    """One layer in light order as two stages (theta, cells, factors): the
    V^H mesh, then its phase screen and each port's Sigma through-field; the
    U mesh, then its phase screen and, with ``gain``, the OGU gain GAIN_DB
    and NAU loss NAU_LOSS_DB. A factor scales the rows per port (N, 1) or
    as a whole."""
    sigma = layout.sigma_stage
    through = mzi_cells(p, sigma.theta, sigma.phi)[:, 0, 0]
    v, u = layout.v_mesh, layout.u_mesh
    v_factors = [np.exp(1j * layout.v_screen)[:, None], through[:, None]]
    u_factors = [np.exp(1j * layout.u_screen)[:, None]]
    if gain:
        u_factors.append(db_to_field(NAU_LOSS_DB - GAIN_DB))
    return [
        (v.theta, mzi_cells(p, v.theta, v.phi), v_factors),
        (u.theta, mzi_cells(p, u.theta, u.phi), u_factors),
    ]


def _signal_pass(
    layers: list[LayerLayout], p: MziParams, signal: np.ndarray
) -> np.ndarray:
    """Crosstalk-free propagation without gain; mutates ``signal`` (N, ...)
    in place."""
    rows = signal.reshape(signal.shape[0], -1)
    columns = _schedule(layers[0].n).columns
    for layout in layers:
        for _, cells, factors in _stages(layout, p, gain=False):
            for col, pairs in columns:
                rows[pairs] = cells[col] @ rows[pairs]
            for f in factors:
                rows *= f
    return signal


def _crosstalk_pass(
    layers: list[LayerLayout],
    p: MziParams,
    signal: np.ndarray,
    rng: Rng | None,
    leak_birth: str,
    include_gain: bool,
) -> PropagationResult:
    """Lossy propagation with first-order leaks (see :func:`_mapped_leaks`),
    keeping the magnitude of each mapped leak in a float64 (N, K, B) bank.
    ``leak_birth="nominal"`` books each leak at X times 1 mW."""
    if leak_birth not in ("physical", "nominal"):
        raise ValueError(f"unknown leak_birth {leak_birth!r}")
    n = signal.shape[0]
    rows = signal.reshape(n, -1)
    k_total = sum(len(lay.v_mesh) + len(lay.u_mesh) for lay in layers)
    bank = np.empty((n, k_total, rows.shape[1]))
    suffix_t = np.eye(n, dtype=complex)
    for slots, mapped in _mapped_leaks(
        layers, p, rows, rng, leak_birth, include_gain, suffix_t
    ):
        np.abs(mapped, out=bank[:, slots].transpose(1, 0, 2))
    leaks = bank.reshape((n, k_total) + signal.shape[1:])
    return PropagationResult(signal, leaks, suffix_t.T)


def _mapped_leaks(layers, p, rows, rng, leak_birth, include_gain, suffix_t):
    """The crosstalk pass proper. A forward pass moves ``rows`` (N, B) in
    place, draws X once per mesh and keeps each newborn two-row leak in a
    (K, 2, B) array; one backward pass then turns ``suffix_t`` (I on entry)
    into the transpose of the whole crosstalk-free transfer and yields, per
    mesh column, its slice of the K leak slots and its leaks mapped to the
    output, a (c, N, B) complex temporary. Both passes take one mesh column
    per step."""
    stages = [stage for lay in layers for stage in _stages(lay, p, include_gain)]
    columns = _schedule(layers[0].n).columns
    k_total = sum(len(theta) for theta, _, _ in stages)
    born = np.empty((k_total, 2, rows.shape[1]), dtype=complex)

    slot = 0
    for theta, cells, factors in stages:
        x_lin = 10.0 ** (crosstalk_coefficient(p, theta, rng) / 10.0)
        for col, pairs in columns:
            routed = cells[col] @ rows[pairs]
            x = x_lin[col, None, None]
            rows[pairs] = np.sqrt(1.0 - x) * routed
            leak = np.sqrt(x) * routed[:, ::-1]
            if leak_birth == "nominal":
                # Power-budget ledger: every leak is booked at X times the
                # 1 mW reference launch power, regardless of how much the
                # local signal has already been attenuated. The physical
                # leak direction is kept.
                power = np.sum(np.abs(leak) ** 2, axis=1, keepdims=True)
                with np.errstate(divide="ignore", invalid="ignore"):
                    scale = np.sqrt(x / power)
                leak *= np.where(power > 0.0, scale, 0.0)
            born[slot + col.start : slot + col.stop] = leak
        slot += len(theta)
        for f in factors:
            rows *= f

    # suffix_t is the transpose of the transfer S from the current point to
    # the output, leaks excluded: row i of suffix_t is column i of S.
    for theta, cells, factors in reversed(stages):
        for f in reversed(factors):
            suffix_t *= f
        slot -= len(theta)
        for col, pairs in reversed(columns):
            slots = slice(slot + col.start, slot + col.stop)
            pair = suffix_t[pairs]
            yield slots, pair.transpose(0, 2, 1) @ born[slots]
            suffix_t[pairs] = cells[col].transpose(0, 2, 1) @ pair


def _device(p: MziParams, mode: str) -> MziParams:
    """The device a ``mode`` propagates on: ``p`` when lossy, the lossless
    3-dB device when ideal."""
    if mode not in ("ideal", "lossy"):
        raise ValueError(f"unknown mode {mode!r}")
    return LOSSLESS_MZI if mode == "ideal" else p


def _as_field_array(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim == 0 or x.shape[0] != n:
        raise ValueError(f"expected a field of shape ({n},) or ({n}, S), got {x.shape}")
    return x.copy()


def propagate_signal(
    layout: LayerLayout,
    p: MziParams,
    x: np.ndarray,
    mode: str = "lossy",
) -> np.ndarray:
    """OIU-only propagation (no crosstalk, no gain). ``ideal`` mode runs on
    the lossless 3-dB device, so the result is ``(w / s_max) @ x`` to
    rounding; ``lossy`` applies the full device model per placement.
    """
    return _signal_pass([layout], _device(p, mode), _as_field_array(x, layout.n))


def propagate_with_crosstalk(
    layout: LayerLayout,
    p: MziParams,
    x: np.ndarray,
    rng: Rng | None = None,
    leak_birth: str = "physical",
) -> PropagationResult:
    """Lossy propagation with per-MZI crosstalk injection through one layer's
    meshes, without its gain. ``leak_birth="nominal"`` books each leak at X
    times 1 mW."""
    signal = _as_field_array(x, layout.n)
    return _crosstalk_pass([layout], p, signal, rng, leak_birth, include_gain=False)


def network_cascade(
    spec: NetworkSpec,
    x: np.ndarray | None = None,
    rng: Rng | None = None,
    leak_birth: str = "physical",
) -> PropagationResult:
    """Feed layer outputs forward through all M layers.

    Leaks born in layer m traverse layers m+1..M in lossy mode (including
    each traversed layer's gain and NAU factors) without spawning further
    leaks; one backward pass maps the leaks of all M layers. ``leak_birth=
    "nominal"`` books each leak at X times the 1 mW reference launch power
    instead of X times the local (already attenuated) signal power; that is
    the power-budget ledger used for network-level crosstalk reporting.
    """
    if x is None:
        x = spec.launch_field()
    signal = _as_field_array(x, spec.n)
    return _crosstalk_pass(
        spec.layers, spec.params, signal, rng, leak_birth, include_gain=True
    )


# --------------------------------------------------------------------------
# Transfer matrices and reporting
# --------------------------------------------------------------------------

def transfer_matrix(
    layers: list[LayerLayout],
    p: MziParams,
    mode: str = "lossy",
) -> np.ndarray:
    """End-to-end transfer matrix of the cascade (crosstalk and gain off)."""
    return _signal_pass(layers, _device(p, mode), np.eye(layers[0].n, dtype=complex))


# --------------------------------------------------------------------------
# Monte-Carlo coherent interference
# --------------------------------------------------------------------------

# Trials per phase draw in monte_carlo_interference. It bounds the (chunk, K)
# phase arrays; the stream does not depend on it.
_MC_CHUNK = 2000


def monte_carlo_interference(
    amplitudes: np.ndarray,
    signal_amplitude: float,
    trials: int,
    rng: Rng,
) -> dict:
    """Resolve unresolved crosstalk phases on one port statistically.

    Per trial each component gets an independent phase rho ~ U[0, 2pi);
    the trial records the received power |A_sig + sum A_k e^{j rho_k}|^2
    and the crosstalk-only power |sum A_k e^{j rho_k}|^2.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    amplitudes = np.asarray(amplitudes, dtype=float)
    if not (np.isfinite(amplitudes) & (amplitudes >= 0.0)).all():
        raise ValueError("crosstalk amplitudes must be finite and >= 0")
    if not (math.isfinite(signal_amplitude) and signal_amplitude >= 0.0):
        raise ValueError("signal amplitude must be finite and >= 0")
    k = amplitudes.size
    received = np.empty(trials)
    xtalk = np.empty(trials)
    done = 0
    while done < trials:
        m = min(_MC_CHUNK, trials - done)
        rho = rng.uniform(0.0, 2.0 * math.pi, size=(m, k))
        summed = np.exp(1j * rho) @ amplitudes.astype(complex)
        xtalk[done : done + m] = np.abs(summed) ** 2
        received[done : done + m] = np.abs(signal_amplitude + summed) ** 2
        done += m
    aligned = float(np.sum(amplitudes)) ** 2
    return {
        "received_mean_mw": float(received.mean()),
        "received_min_mw": float(received.min()),
        "xtalk_mean_mw": float(xtalk.mean()),
        "xtalk_max_mw": float(xtalk.max()),
        "xtalk_aligned_mw": aligned,
        "received_destructive_mw": max(0.0, signal_amplitude - math.sqrt(aligned))
        ** 2,
    }


# Bytes of the float64 magnitude bank resolve_crosstalk_fields turns into
# phased fields at a time: it bounds the temporaries, one float64 phase and
# its float32 copy and cos/sin (about 2x these bytes), not the bank.
_RESOLVE_BLOCK_BYTES = 4 * 2**20


def resolve_crosstalk_fields(
    result: PropagationResult, rng: Rng
) -> np.ndarray:
    """Add every leak field to the signal with an independent random phase
    per (port, component[, sample]); used by inference-accuracy forwards.

    The bank is resolved in blocks of port rows. The phases are drawn
    block by block in row order, which consumes the stream exactly as one
    draw of the bank's full shape does, so the result does not depend on
    the block size. Each phase is rounded to float32 (by at most ~4e-7 rad)
    for its cos and sin; the weighted parts are summed in float64."""
    leaks = result.leak_fields
    rows = max(1, _RESOLVE_BLOCK_BYTES // max(1, leaks[0].nbytes))
    out = result.signal.astype(complex)
    trig = np.empty((min(rows, len(leaks)),) + leaks.shape[1:], dtype=np.float32)
    for lo in range(0, leaks.shape[0], rows):
        block = leaks[lo : lo + rows]
        rho = rng.uniform(0.0, 2.0 * math.pi, size=block.shape)
        rho32 = rho.astype(np.float32)
        t = trig[: len(block)]
        for part, fn in ((out.real, np.cos), (out.imag, np.sin)):
            np.multiply(block, fn(rho32, out=t), out=rho)
            part[lo : lo + rows] += np.sum(rho, axis=1)
        del rho, rho32
    return out
