"""Compile an NxN weight matrix into a physical layer layout.

A layer is W = U . diag(S) . V^H realized as three stages in light order:
a rectangular MZI mesh for V^H, one single-pass attenuator MZI per port for
diag(S)/s_max, and a second mesh for U. Each mesh carries N(N-1)/2 MZIs and
a zero-loss output phase screen absorbing the residual diagonal phases.

The lossless 2x2 cell realized by one MZI at coupling 0.5 is

    T(theta, phi) = j e^{j theta/2} [[e^{j phi} sin(theta/2),  cos(theta/2)],
                                     [e^{j phi} cos(theta/2), -sin(theta/2)]]

which is what :func:`spnn.device.mzi_transfer` reduces to at zero dB loss.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from spnn.numerics import _member, svd, unitarity_residual

__all__ = [
    "Mesh",
    "LayerLayout",
    "lossless_cells",
    "clements_decompose",
    "clements_reconstruct",
    "compile_layers",
    "compile_layer",
    "layout_to_json",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class Mesh:
    """The phases of one stage's MZIs in light order; theta lies in [0, pi]
    and phi in [0, 2*pi). In an n-port unitary mesh, MZI k sits where
    ``_schedule(n)`` places it; in the Sigma stage, attenuator k sits on
    port k."""

    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("theta", "phi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        if len(self.theta) != len(self.phi):
            raise ValueError("mesh arrays must have equal lengths")
        ok = (self.theta >= 0.0) & (self.theta <= math.pi + 1e-12)
        if not ok.all():
            raise ValueError(f"theta must be in [0, pi], got {self.theta[~ok]}")
        ok = (self.phi >= 0.0) & (self.phi < TWO_PI + 1e-12)
        if not ok.all():
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi[~ok]}")

    def __len__(self) -> int:
        return len(self.theta)


def _check_placements(column: np.ndarray, row: np.ndarray, n: int) -> None:
    """Rejects an MZI outside the n waveguides and two MZIs sharing a
    waveguide in one column."""
    outside = row + 1 >= n
    if outside.any():
        raise ValueError(f"mesh rows out of range for n={n}: {row[outside]}")
    # With every row below n - 1, two MZIs share a waveguide exactly when
    # their keys column * n + row are less than 2 apart.
    keys = np.sort(column * n + row)
    if (keys[1:] - keys[:-1] < 2).any():
        raise ValueError("two MZIs share a waveguide in one column")


@dataclass
class LayerLayout:
    """Physical realization of one layer; light flows V^H -> Sigma -> U.
    The Sigma stage holds attenuator k on port k."""

    n: int
    v_mesh: Mesh
    v_screen: np.ndarray
    sigma_stage: Mesh
    s_max: float
    u_mesh: Mesh
    u_screen: np.ndarray

    def __post_init__(self):
        expected = self.n * (self.n - 1) // 2
        if len(self.v_mesh) != expected or len(self.u_mesh) != expected:
            raise ValueError(
                f"mesh size mismatch: expected {expected} MZIs per unitary "
                f"mesh for n={self.n}"
            )
        for name in ("v_screen", "u_screen"):
            if np.shape(getattr(self, name)) != (self.n,):
                raise ValueError(f"{name} must hold one phase per port (n={self.n})")
        if len(self.sigma_stage) != self.n:
            raise ValueError(f"sigma stage needs one attenuator per port (n={self.n})")

    def sigma_deficit_db(self) -> float:
        """Power-budget line for the Sigma normalization: -20*log10(s_max)
        when s_max < 1 (extra required gain), negative when s_max > 1."""
        return -20.0 * math.log10(self.s_max)


def lossless_cells(theta, phi) -> np.ndarray:
    """Lossless cells T(theta, phi) for arrays of phases: shape
    ``theta.shape + (2, 2)``."""
    half = np.asarray(theta, dtype=float) / 2.0
    s, c = np.sin(half), np.cos(half)
    ephi = np.exp(1j * np.asarray(phi, dtype=float))
    cells = np.empty(half.shape + (2, 2), dtype=complex)
    cells[..., 0, 0] = ephi * s
    cells[..., 0, 1] = c
    cells[..., 1, 0] = ephi * c
    cells[..., 1, 1] = -s
    return (1j * np.exp(1j * half))[..., None, None] * cells


def _wrap_phi(phi):
    """Phases wrapped into [0, 2*pi)."""
    phi = np.fmod(phi, TWO_PI)
    return np.where(phi < 0, phi + TWO_PI, phi)


@dataclass(frozen=True, eq=False)
class _Schedule:
    """The rectangular nulling order of an n-port mesh, which depends only on
    n (Clements et al., Optica 3, 1460, 2016).

    ``steps`` lists the nullings as (left, mode, index). A right nulling
    rotates columns (mode, mode+1) to null entry (index, mode); a left one
    rotates rows (mode, mode+1) to null entry (mode+1, index). The mesh
    applies the rights as nulled, then every left folded through the
    diagonal, last first; ``order`` takes that application order to light
    order, whose MZIs sit at ``column`` and ``row`` (upper waveguide).
    ``columns`` holds each column's slice of light order and the waveguide
    pairs (c, 2) of its MZIs. ``folds`` groups the folds by column as (fold
    positions, their lefts' positions in ``left``, modes); a column's MZIs
    share no waveguide, so its folds are independent."""

    steps: tuple[tuple[bool, int, int], ...]
    right: np.ndarray
    left: np.ndarray
    folds: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    order: np.ndarray
    column: np.ndarray
    row: np.ndarray
    columns: tuple[tuple[slice, np.ndarray], ...]


@functools.cache
def _schedule(n: int) -> _Schedule:
    """The schedule of n, built and checked once; its arrays are read-only
    and shared by everything that places the MZIs of an n-port mesh."""
    steps = []
    for i in range(n - 1):
        for j in range(i + 1):
            if i % 2 == 0:
                steps.append((False, i - j, n - 1 - j))
            else:
                steps.append((True, n - 2 - i + j, j))
    right = np.array([k for k, step in enumerate(steps) if not step[0]], dtype=int)
    left = np.array([k for k, step in enumerate(steps) if step[0]], dtype=int)
    modes = np.array([steps[k][1] for k in [*right, *left[::-1]]], dtype=int)
    next_col = [0] * n
    depth = np.zeros(len(modes), dtype=int)
    for k, m in enumerate(modes.tolist()):
        depth[k] = max(next_col[m], next_col[m + 1])
        next_col[m] = next_col[m + 1] = depth[k] + 1
    fold_columns = depth[len(right) :]
    folds = []
    for col in np.unique(fold_columns):
        pos = np.flatnonzero(fold_columns == col)
        folds.append((pos, len(left) - 1 - pos, modes[len(right) + pos]))
    # Light order: column by column, application order within a column.
    order = np.argsort(depth, kind="stable")
    column, row = depth[order], modes[order]
    _check_placements(column, row, n)
    pairs = np.stack([row, row + 1], axis=1)
    for a in (right, left, order, column, row, pairs, *(a for f in folds for a in f)):
        a.flags.writeable = False
    edges = [0, *(np.flatnonzero(np.diff(column)) + 1).tolist(), len(column)]
    cols = tuple((slice(lo, hi), pairs[lo:hi]) for lo, hi in zip(edges, edges[1:]))
    return _Schedule(tuple(steps), right, left, tuple(folds), order, column, row, cols)


def _null(v: np.ndarray, steps) -> np.ndarray:
    """Run the nulling ``steps`` in place on a stack held as v (N, N, B),
    leaving each matrix diagonal. Returns each step's pair (a, b) before
    the step (steps, 2, B): for a right nulling a = v[index, mode] and
    b = v[index, mode+1], for a left one a = v[mode, index] and
    b = v[mode+1, index].

    A right nulling applies T(theta, phi)^H to columns (x, y) with theta =
    2 atan2(|b|, |a|) and e^{j phi} = -u_a u_b^*; a left one applies T to
    rows (x, y) with theta = 2 atan2(|a|, |b|) and e^{j phi} = u_a^* u_b
    (u = z/|z|). phi is 0 where |a| or |b| is below 1e-300. With s, c =
    sin, cos(theta/2), both updates take the form x <- p e s x + p q0 y,
    y <- p e c x + p q1 y, with (B,) coefficients set below."""
    b = v.shape[-1]
    pairs = np.empty((len(steps), 2, b), dtype=complex)
    sc = np.zeros((2, b), dtype=complex)  # (s, c), real
    q = np.zeros((2, b), dtype=complex)  # real
    p = np.empty(b, dtype=complex)
    for k, (left, mode, index) in enumerate(steps):
        if left:
            slab = v[mode : mode + 2]  # rows x, y: (2, N, B)
            pair = slab[:, index]
        else:
            slab = v[:, mode : mode + 2]  # columns x, y: (N, 2, B)
            pair = slab[index]
        pairs[k] = pair
        mag = np.abs(pair)
        half = np.arctan2(mag[0], mag[1]) if left else np.arctan2(mag[1], mag[0])
        s = np.sin(half, out=sc.real[0])
        c = np.cos(half, out=sc.real[1])
        unit = pair / mag
        e = unit[1] * unit[0].conj()
        # Left: T = g [[e s, c], [e c, -s]] with p = g = -s + jc, so
        # (q0, q1) = (c, -s). Right: T^H columns give x <- g^* (e^* s x +
        # c y), y <- g^* (e^* c x - s y) with e^* = -e; p = -g^* = s + jc
        # takes the sign, so (q0, q1) = (-c, s) and a dead pair has e = -1.
        np.copyto(e, 1.0 if left else -1.0, where=np.minimum(mag[0], mag[1]) < 1e-300)
        p.imag = c
        if left:
            np.negative(s, out=p.real)
            q.real[0] = c
            np.negative(s, out=q.real[1])
        else:
            p.real = s
            np.negative(c, out=q.real[0])
            q.real[1] = s
        x_coef = (p * e) * sc
        y_coef = p * q
        if left:
            new = x_coef[:, None] * slab[:1]
            new += y_coef[:, None] * slab[1:]
        else:
            new = slab[:, :1] * x_coef
            new += slab[:, 1:] * y_coef
        slab[...] = new
    return pairs


def _fold(theta, phi, d: np.ndarray, folds) -> np.ndarray:
    """Rewrite each left factor's inverse T(theta, phi)^{-1} @ diag(d0, d1)
    as diag(d0', d1') @ T(theta, phi'), last left first, column by column.
    The push-through keeps theta (Clements et al., Optica 3, 1460, 2016);
    with r = -e^{-j theta}: e^{j phi'} = d0/d1, d0' = r e^{-j phi} d1 and
    d1' = r d1. Where sin or cos(theta/2) is at most 1e-12 (bar- or
    cross-like) phi' is 0, and d1' (bar-like) or d0' (cross-like) takes d0
    in place of d1. ``theta``, ``phi`` (L, B) are the lefts'; ``d`` (N, B)
    is updated in place. Returns e^{j phi'} (L, B) by fold position."""
    r_phi = -np.exp(-1j * (theta + phi))
    r = -np.exp(-1j * theta)
    bar, cross = np.sin(theta / 2.0) <= 1e-12, np.cos(theta / 2.0) <= 1e-12
    ephi = np.empty(theta.shape, dtype=complex)
    for pos, lefts, ms in folds:
        d0, d1 = d[ms], d[ms + 1]
        ephi[pos] = np.where(bar[lefts] | cross[lefts], 1.0, d0 / d1)
        d[ms] = r_phi[lefts] * np.where(cross[lefts], d0, d1)
        d[ms + 1] = r[lefts] * np.where(bar[lefts], d0, d1)
    return ephi


def clements_decompose(u: np.ndarray, tol: float = 1e-8):
    """Rectangular-mesh decomposition of a unitary, or of a stack of them.

    For an (N, N) unitary returns a mesh of exactly N(N-1)/2 MZIs plus a
    per-port output phase screen, such that ``clements_reconstruct(mesh, n,
    screen)`` reproduces ``u``; for a stack (B, N, N) returns the B meshes
    and the (B, N) screens. One loop walks the schedule of N once for the
    whole stack: each step rotates two columns or two rows of every matrix
    with (B,) angles, O(N^3) arithmetic per matrix. A matrix's phases do
    not depend on the rest of the stack.
    """
    us = np.asarray(u, dtype=complex)
    single = us.ndim == 2
    if single:
        us = us[None]
    if us.ndim != 3 or us.shape[1] != us.shape[2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got {np.shape(u)}"
        )
    b, n = us.shape[:2]
    resid = unitarity_residual(us)
    bad = np.flatnonzero(~(resid < tol))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"input is not unitary: residual {resid[i]:.3e} exceeds tol {tol:g}"
            f"{_member(i, b)}"
        )

    sched = _schedule(n)
    v = np.moveaxis(us, 0, -1).copy()  # (N, N, B): each step's slices are (N, B)
    # Zero amplitudes divide by zero in the nulling branches their masks
    # discard.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pairs = _null(v, sched.steps)
        d = np.diagonal(v).T.copy()  # (N, B)
        v[np.arange(n), np.arange(n)] = 0.0
        off = np.abs(v).max(axis=(0, 1), initial=0.0)
        bad = np.flatnonzero(~(off <= 1e3 * tol))
        if bad.size:
            raise ValueError(f"nulling did not reach diagonal form{_member(bad[0], b)}")

        # As (p0, p1) = (a, -b) for a right nulling and (b, a) for a left one,
        # theta = 2 atan2(|p1|, |p0|) and phi = arg(p0) - arg(p1) for both.
        pairs[sched.right, 1] *= -1.0
        pairs[sched.left] = pairs[sched.left, ::-1]
        mag = np.abs(pairs)
        theta = 2.0 * np.arctan2(mag[:, 1], mag[:, 0])
        phi = _wrap_phi(np.angle(pairs[:, 0]) - np.angle(pairs[:, 1]))
        phi[np.minimum(mag[:, 0], mag[:, 1]) < 1e-300] = 0.0

        # U = L1^-1 ... Lp^-1 D Rq ... R1; fold each left inverse through
        # the diagonal, last first, so everything becomes screen @ (ordinary
        # MZI factors) and the folded factors apply after the rights.
        fold_ephi = _fold(theta[sched.left], phi[sched.left], d, sched.folds)
    right = sched.right
    thetas = np.concatenate([theta[right], theta[sched.left[::-1]]])[sched.order]
    phis = np.concatenate([phi[right], _wrap_phi(np.angle(fold_ephi))])[sched.order]
    thetas = np.ascontiguousarray(np.minimum(thetas, math.pi).T)
    phis = np.ascontiguousarray(phis.T)
    screens = np.ascontiguousarray(np.angle(d).T)
    meshes = [Mesh(t, p) for t, p in zip(thetas, phis)]
    return (meshes[0], screens[0]) if single else (meshes, screens)


def clements_reconstruct(
    mesh: Mesh, n: int, phase_screen: np.ndarray | None = None
) -> np.ndarray:
    """Lossless transfer of a mesh plus output phase screen.

    Verification oracle for :func:`clements_decompose`; the MZIs sit where
    the schedule of n places them, so a mesh of other than n(n-1)/2 MZIs is
    rejected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(mesh) != n * (n - 1) // 2:
        raise ValueError(f"expected {n * (n - 1) // 2} MZIs for n={n}, got {len(mesh)}")
    cells = lossless_cells(mesh.theta, mesh.phi)
    m = np.eye(n, dtype=complex)
    for col, pairs in _schedule(n).columns:
        c = np.eye(n, dtype=complex)
        for cell, (r, _) in zip(cells[col], pairs.tolist()):
            c[r : r + 2, r : r + 2] = cell
        m = c @ m
    if phase_screen is not None:
        m = np.diag(np.exp(1j * np.asarray(phase_screen))) @ m
    return m


def _attenuators(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta, phi (B, N) and s_max (B,) of the per-port single-pass MZIs
    realizing each row of s (B, N) >= 0 as a diagonal.

    Normalizes by s_max = max(s); port k gets theta with lossless through
    amplitude s_k/s_max. phi compensates the cell's intrinsic phase so the
    through coefficient is real and positive. One input and one output of
    each attenuator MZI are terminated.
    """
    s_max = s.max(axis=1, initial=0.0)
    bad = np.flatnonzero(s_max == 0.0)
    if bad.size:
        raise ValueError(
            f"all-zero diagonal: degenerate layer{_member(bad[0], len(s))}"
        )
    theta = 2.0 * np.arcsin(np.minimum(1.0, s / s_max[:, None]))
    return theta, _wrap_phi(-theta / 2.0 - math.pi / 2.0), s_max


def compile_layers(ws: np.ndarray) -> list[LayerLayout]:
    """SVD + Clements compilation of a stack (B, N, N) of square weight
    matrices: one stacked SVD, then one decomposition loop over all 2B
    unitaries. Returns one layout per matrix, equal to what the matrix
    compiles to alone; the ideal lossless end-to-end transfer of layout i
    equals ``ws[i] / s_max``.
    """
    ws = np.asarray(ws, dtype=complex)
    if ws.ndim != 3 or ws.shape[1] != ws.shape[2]:
        raise ValueError(
            f"compile_layers expects a stack of square matrices, got {ws.shape}"
        )
    b, n = ws.shape[:2]
    bad = np.flatnonzero(~np.isfinite(ws).all(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"weights contain NaN or inf{_member(bad[0], b)}")
    u, s, vh = svd(ws)
    meshes, screens = clements_decompose(np.concatenate([u, vh]))
    theta, phi, s_max = _attenuators(s)
    return [
        LayerLayout(
            n=n,
            v_mesh=meshes[b + i],
            v_screen=screens[b + i],
            sigma_stage=Mesh(theta[i], phi[i]),
            s_max=float(s_max[i]),
            u_mesh=meshes[i],
            u_screen=screens[i],
        )
        for i in range(b)
    ]


def compile_layer(w: np.ndarray) -> LayerLayout:
    """SVD + Clements compilation of a square weight matrix: a stack of one
    through :func:`compile_layers`.

    The ideal lossless end-to-end transfer of the returned layout equals
    ``w / s_max``.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"compile_layer expects a square matrix, got {w.shape}")
    return compile_layers(w[None])[0]


# --------------------------------------------------------------------------
# JSON serialization
# --------------------------------------------------------------------------

def _mesh_to_dict(mesh: Mesh, n: int, role: str) -> list[dict]:
    sched = _schedule(n)
    cols: dict[int, list[dict]] = {}
    arrays = (sched.column, sched.row, mesh.theta, mesh.phi)
    for c, r, theta, phi in zip(*(a.tolist() for a in arrays)):
        cols.setdefault(c, []).append(
            {"rows": [r, r + 1], "theta": theta, "phi": phi, "role": role}
        )
    return [{"placements": cols[c]} for c in sorted(cols)]


def layout_to_json(layout: LayerLayout) -> str:
    sigma = layout.sigma_stage
    doc = {
        "n": layout.n,
        "v_mesh": {
            "columns": _mesh_to_dict(layout.v_mesh, layout.n, "unitary_V"),
            "phase_screen": list(map(float, layout.v_screen)),
        },
        "sigma_stage": {
            "placements": [
                {"rows": [r], "theta": theta, "phi": phi, "role": "diagonal"}
                for r, (theta, phi) in enumerate(
                    zip(sigma.theta.tolist(), sigma.phi.tolist())
                )
            ],
            "s_max": layout.s_max,
        },
        "u_mesh": {
            "columns": _mesh_to_dict(layout.u_mesh, layout.n, "unitary_U"),
            "phase_screen": list(map(float, layout.u_screen)),
        },
    }
    return json.dumps(doc, indent=1)
