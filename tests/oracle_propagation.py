"""Differential oracle: the per-MZI forward-push propagation engine.

Every leak field born at a mesh MZI is pushed, together with the whole leak
bank, through every later MZI, screen, attenuator and gain stage, exactly as
the signal is. This costs O(M^2 N^4) per network but has no algebra beyond
the stage-by-stage definition of the model, so the fast engine in
:mod:`spnn.propagation` is checked against it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

import oracle_clements
from spnn.device import (
    LOSSLESS_MZI,
    MziParams,
    PhasePair,
    crosstalk_coefficient,
    crosstalk_mean_db,
    mzi_transfer,
)
from spnn.mesh import LayerLayout, Mesh
from spnn.numerics import Rng, db_to_field
from spnn.propagation import GAIN_DB, NAU_LOSS_DB, NetworkSpec, PropagationResult


# --------------------------------------------------------------------------
# Core engine
# --------------------------------------------------------------------------

def _apply_rows(arr: np.ndarray, r: int, t2: np.ndarray) -> None:
    sub = arr[r : r + 2].reshape(2, -1)
    arr[r : r + 2] = (t2 @ sub).reshape(arr[r : r + 2].shape)


@functools.cache
def _placements(n: int) -> tuple[list[int], list[int]]:
    """Column and upper row of each MZI of an n-port mesh in light order, as
    the dense Clements oracle lays them out; they depend only on n."""
    placed, _ = oracle_clements.clements_decompose(np.eye(n))
    return placed.column.tolist(), placed.row.tolist()


def _mesh_columns(mesh: Mesh, n: int) -> list[list[tuple[int, PhasePair]]]:
    """(upper row, phases) of each MZI, grouped by column, columns in
    ascending order, stored order within a column."""
    cols: dict[int, list[tuple[int, PhasePair]]] = {}
    for j, (column, row) in enumerate(zip(*_placements(n))):
        phases = PhasePair(float(mesh.theta[j]), float(mesh.phi[j]))
        cols.setdefault(column, []).append((row, phases))
    return [cols[c] for c in sorted(cols)]


def _sigma_factors(layout: LayerLayout, p: MziParams) -> np.ndarray:
    factors = np.empty(layout.n, dtype=complex)
    sigma = layout.sigma_stage
    for j in range(len(sigma)):
        phases = PhasePair(float(sigma.theta[j]), float(sigma.phi[j]))
        factors[j] = mzi_transfer(p, phases)[0, 0]
    return factors


class _LayerEngine:
    """Propagates a signal array and an optional bank of leak fields
    through one layer, spawning new leaks when crosstalk is enabled."""

    def __init__(
        self,
        layout: LayerLayout,
        p: MziParams,
        mode: str,
        rng: Rng | None = None,
        crosstalk: bool = False,
        leak_birth: str = "physical",
    ):
        if mode not in ("ideal", "lossy"):
            raise ValueError(f"unknown mode {mode!r}")
        if leak_birth not in ("physical", "nominal"):
            raise ValueError(f"unknown leak_birth {leak_birth!r}")
        self.layout = layout
        self.p = p
        # Ideal mode is the lossless 3-dB device, one MZI at a time.
        self.cell_params = LOSSLESS_MZI if mode == "ideal" else p
        self.rng = rng
        self.crosstalk = crosstalk
        self.leak_birth = leak_birth
        self._cell_cache: dict[tuple[float, float], np.ndarray] = {}

    def _cell(self, phases) -> np.ndarray:
        key = (phases.theta, phases.phi)
        if key not in self._cell_cache:
            self._cell_cache[key] = mzi_transfer(self.cell_params, phases)
        return self._cell_cache[key]

    def _draw_x(self, theta: float) -> float:
        if self.rng is None:
            return crosstalk_mean_db(self.p, theta)
        return crosstalk_coefficient(self.p, theta, self.rng)

    def run(self, signal, leaks, spawn_slots=None):
        """Mutates signal/leaks in place. ``spawn_slots`` is an iterator of
        column indices in ``leaks`` reserved for this layer's new leaks."""
        for block, role in ((self.layout.v_mesh, "v"), (self.layout.u_mesh, "u")):
            for column in _mesh_columns(block, self.layout.n):
                for r, phases in column:
                    t2 = self._cell(phases)
                    if leaks is not None and leaks.shape[1]:
                        _apply_rows(leaks, r, t2)
                    if self.crosstalk:
                        x_db = self._draw_x(phases.theta)
                        x_lin = 10.0 ** (x_db / 10.0)
                        sig_f = math.sqrt(1.0 - x_lin)
                        leak_f = math.sqrt(x_lin)
                        sub = signal[r : r + 2].reshape(2, -1)
                        routed = t2 @ sub
                        leak2 = leak_f * (t2[::-1, :] @ sub)
                        signal[r : r + 2] = (sig_f * routed).reshape(
                            signal[r : r + 2].shape
                        )
                        if self.leak_birth == "nominal":
                            # Power-budget ledger: every leak is booked at
                            # X times the nominal launch power, regardless of
                            # how much the local signal has already been
                            # attenuated. The physical leak direction is kept.
                            born = np.sum(np.abs(leak2) ** 2, axis=0)
                            target = x_lin  # X times 1 mW
                            with np.errstate(divide="ignore", invalid="ignore"):
                                scale = np.where(
                                    born > 0.0, np.sqrt(target / born), 0.0
                                )
                            leak2 = leak2 * scale
                        slot = next(spawn_slots)
                        leaks[r : r + 2, slot] = leak2.reshape(
                            leaks[r : r + 2, slot].shape
                        )
                    else:
                        _apply_rows(signal, r, t2)
            if role == "v":
                screen = np.exp(1j * self.layout.v_screen)
                self._broadcast(signal, leaks, screen)
                sig = _sigma_factors(self.layout, self.cell_params)
                self._broadcast(signal, leaks, sig)
            else:
                screen = np.exp(1j * self.layout.u_screen)
                self._broadcast(signal, leaks, screen)

    @staticmethod
    def _broadcast(signal, leaks, per_port):
        shape = (len(per_port),) + (1,) * (signal.ndim - 1)
        signal *= per_port.reshape(shape)
        if leaks is not None and leaks.shape[1]:
            leaks *= per_port.reshape((len(per_port),) + (1,) * (leaks.ndim - 1))


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
    """OIU-only propagation (no crosstalk, no gain). ``ideal`` mode runs on
    the lossless 3-dB device, so the result is ``(w / s_max) @ x`` to
    rounding; ``lossy`` applies the full device model per placement.
    """
    signal = _as_field_array(x, layout.n)
    engine = _LayerEngine(layout, p, mode)
    engine.run(signal, leaks=None)
    return signal


def propagate_with_crosstalk(
    layout: LayerLayout,
    p: MziParams,
    x: np.ndarray,
    rng: Rng | None = None,
    leak_birth: str = "physical",
) -> PropagationResult:
    """Lossy propagation with per-MZI crosstalk injection through one
    layer's meshes, without its gain; nominal leaks are booked at 1 mW."""
    signal = _as_field_array(x, layout.n)
    n_mesh = len(layout.v_mesh) + len(layout.u_mesh)
    leak_shape = (layout.n, n_mesh) + signal.shape[1:]
    leaks = np.zeros(leak_shape, dtype=complex)
    engine = _LayerEngine(
        layout, p, "lossy", rng=rng, crosstalk=True, leak_birth=leak_birth
    )
    engine.run(signal, leaks, iter(range(n_mesh)))
    return PropagationResult(signal, leaks, transfer_matrix([layout], p))


def transfer_matrix(
    layers: list[LayerLayout],
    p: MziParams,
    mode: str = "lossy",
    include_gain: bool = False,
) -> np.ndarray:
    """End-to-end transfer matrix of the cascade (crosstalk off)."""
    n = layers[0].n
    t = np.eye(n, dtype=complex)
    for layout in layers:
        engine = _LayerEngine(layout, p, mode)
        engine.run(t, leaks=None)
        if include_gain:
            t *= db_to_field(NAU_LOSS_DB - GAIN_DB)
    return t


def network_cascade(
    spec: NetworkSpec,
    x: np.ndarray | None = None,
    rng: Rng | None = None,
    leak_birth: str = "physical",
) -> PropagationResult:
    """Feed layer outputs forward through all M layers.

    Leaks born in layer m traverse layers m+1..M in lossy mode (including
    each traversed layer's gain and NAU factors) without spawning further
    leaks. ``leak_birth="nominal"`` books each leak at X times the network
    launch power instead of X times the local (already attenuated) signal
    power; that is the power-budget ledger used for network-level crosstalk
    reporting.
    """
    if x is None:
        x = spec.launch_field()
    signal = _as_field_array(x, spec.n)

    per_layer = [len(lay.v_mesh) + len(lay.u_mesh) for lay in spec.layers]
    leaks = np.zeros((spec.n, sum(per_layer)) + signal.shape[1:], dtype=complex)

    offset = 0
    for m, layout in enumerate(spec.layers):
        engine = _LayerEngine(
            layout,
            spec.params,
            "lossy",
            rng=rng,
            crosstalk=True,
            leak_birth=leak_birth,
        )
        engine.run(signal, leaks, iter(range(offset, offset + per_layer[m])))
        offset += per_layer[m]
        f = db_to_field(NAU_LOSS_DB - GAIN_DB)
        signal *= f
        leaks[:, :offset] *= f
    transfer = transfer_matrix(spec.layers, spec.params, include_gain=True)
    return PropagationResult(signal, leaks, transfer)
