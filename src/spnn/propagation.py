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
costs O(N) instead of a push through every later MZI. At the input S is
the whole lossy crosstalk-free transfer; it is returned with the result,
so insertion loss needs no second lossy walk. Leak fields are
phase-resolved only at measurement points via Monte-Carlo interference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spnn.device import (
    MziParams,
    PhasePair,
    crosstalk_coefficient,
    mzi_cells,
    mzi_transfer,
)
from spnn.mesh import LayerLayout, Mesh, lossless_cells
from spnn.numerics import Rng, db_to_field, dbm_to_mw

__all__ = [
    "PropagationResult",
    "NetworkSpec",
    "propagate_signal",
    "propagate_with_crosstalk",
    "network_cascade",
    "transfer_matrix",
    "monte_carlo_interference",
    "resolve_crosstalk_fields",
]


@dataclass
class PropagationResult:
    """Signal plus tracked leak fields at a measurement point.

    ``leak_fields`` has shape (N, K) (or (N, K, S) for batched inputs):
    one column per source MZI, spread over all N output ports.
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
class _CellMesh:
    """A mesh with the 2x2 cell of each MZI, (K, 2, 2) in light order."""

    mesh: Mesh
    cells: np.ndarray


def _cell_mesh(mesh: Mesh, p: MziParams, mode: str) -> _CellMesh:
    if mode == "ideal":
        return _CellMesh(mesh, lossless_cells(mesh.theta, mesh.phi))
    return _CellMesh(mesh, mzi_cells(p, mesh.theta, mesh.phi))


def _sigma_factors(layout: LayerLayout, p: MziParams, mode: str) -> np.ndarray:
    """Through-field factor of each port's attenuator, in port order."""
    sigma = layout.sigma_stage
    if mode == "ideal":
        return np.array([math.sin(t / 2.0) for t in sigma.theta.tolist()], complex)
    return np.array(
        [
            mzi_transfer(p, PhasePair(t, f))[0, 0]
            for t, f in zip(sigma.theta.tolist(), sigma.phi.tolist())
        ]
    )


def _stages(layout: LayerLayout, p: MziParams, mode: str) -> list:
    """One layer in light order. A stage is a :class:`_CellMesh` or a
    per-port field factor (phase screen or Sigma attenuators)."""
    if mode not in ("ideal", "lossy"):
        raise ValueError(f"unknown mode {mode!r}")
    return [
        _cell_mesh(layout.v_mesh, p, mode),
        np.exp(1j * layout.v_screen),
        _sigma_factors(layout, p, mode),
        _cell_mesh(layout.u_mesh, p, mode),
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
) -> np.ndarray:
    """Crosstalk-free propagation without gain; mutates ``signal`` (N, ...)
    in place."""
    for layout in layers:
        for stage in _stages(layout, p, mode):
            if isinstance(stage, _CellMesh):
                for r, t2 in zip(stage.mesh.row.tolist(), stage.cells):
                    _apply_rows(signal, r, t2)
            else:
                _scale_ports(signal, stage)
    return signal


def _nominal_mw(leak_birth: str, launch_mw: float) -> float | None:
    """The power a newborn leak is booked at per unit X: the launch power
    for the power-budget ledger, None for the physical leak."""
    if leak_birth not in ("physical", "nominal"):
        raise ValueError(f"unknown leak_birth {leak_birth!r}")
    return launch_mw if leak_birth == "nominal" else None


def _split(signal: np.ndarray, r: int, t2: np.ndarray, x_db: float, nominal_mw):
    """Routes rows r, r+1 of ``signal`` through ``t2`` in place, keeping
    sqrt(1-X) of the field; returns the newborn leak (2, B), rescaled to a
    power per sample of X * ``nominal_mw`` unless that is None."""
    x_lin = 10.0 ** (x_db / 10.0)
    sub = signal[r : r + 2].reshape(2, -1)
    routed = t2 @ sub
    leak2 = math.sqrt(x_lin) * (t2[::-1, :] @ sub)
    signal[r : r + 2] = (math.sqrt(1.0 - x_lin) * routed).reshape(
        signal[r : r + 2].shape
    )
    if nominal_mw is not None:
        # Power-budget ledger: every leak is booked at X times the nominal
        # launch power, regardless of how much the local signal has already
        # been attenuated. The physical leak direction is kept.
        born = np.sum(np.abs(leak2) ** 2, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(born > 0.0, np.sqrt(x_lin * nominal_mw / born), 0.0)
        leak2 = leak2 * scale
    return leak2


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
    through the running suffix transfer, which ends as the whole network's
    crosstalk-free transfer."""
    stages = [_stages(layout, p, "lossy") for layout in layers]
    k_total = sum(len(lay.v_mesh) + len(lay.u_mesh) for lay in layers)
    leaks = np.zeros((signal.shape[0], k_total) + signal.shape[1:], dtype=complex)

    slot = 0
    for layout, layer in zip(layers, stages):
        for stage in layer:
            if not isinstance(stage, _CellMesh):
                _scale_ports(signal, stage)
                continue
            for r, theta, t2 in zip(
                stage.mesh.row.tolist(), stage.mesh.theta.tolist(), stage.cells
            ):
                x_db = crosstalk_coefficient(p, theta, rng)
                leak2 = _split(signal, r, t2, x_db, nominal_mw)
                leaks[r : r + 2, slot] = leak2.reshape(leaks[r : r + 2, slot].shape)
                slot += 1
        if include_gain:
            signal *= _gain(layout)

    # suffix = transfer from the current point to the output, leaks excluded.
    suffix = np.eye(signal.shape[0], dtype=complex)
    for layout, layer in zip(reversed(layers), reversed(stages)):
        if include_gain:
            suffix *= _gain(layout)
        for stage in reversed(layer):
            if not isinstance(stage, _CellMesh):
                suffix *= stage
                continue
            for r, t2 in zip(stage.mesh.row[::-1].tolist(), stage.cells[::-1]):
                slot -= 1
                pair = suffix[:, r : r + 2]
                at_birth = leaks[r : r + 2, slot].reshape(2, -1)
                leaks[:, slot] = (pair @ at_birth).reshape(leaks[:, slot].shape)
                suffix[:, r : r + 2] = pair @ t2
    return PropagationResult(signal, leaks, suffix)


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
) -> np.ndarray:
    """OIU-only propagation (no crosstalk, no gain). ``ideal`` mode uses
    zero-dB losses so the result is exactly ``(w / s_max) @ x``; ``lossy``
    applies the full device model per placement.
    """
    signal = _as_field_array(x, layout.n)
    return _signal_pass([layout], p, signal, mode)


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
    nominal_mw = _nominal_mw(leak_birth, 1.0)
    signal = _as_field_array(x, layout.n)
    return _crosstalk_pass([layout], p, signal, rng, nominal_mw, include_gain=False)


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
    "nominal"`` books each leak at X times the network launch power instead
    of X times the local (already attenuated) signal power; that is the
    power-budget ledger used for network-level crosstalk reporting.
    """
    if x is None:
        x = spec.launch_field()
    signal = _as_field_array(x, spec.n)
    nominal_mw = _nominal_mw(leak_birth, dbm_to_mw(spec.input_power_dbm))
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
) -> np.ndarray:
    """End-to-end transfer matrix of the cascade (crosstalk and gain off)."""
    t = np.eye(layers[0].n, dtype=complex)
    return _signal_pass(layers, p, t, mode)


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
    k = amplitudes.size
    received = np.empty(trials)
    xtalk = np.empty(trials)
    if k == 0:
        received[:] = signal_amplitude**2
        xtalk[:] = 0.0
    else:
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
