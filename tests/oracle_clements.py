"""Differential oracles for the stacked Clements decomposition.

Both decompose one matrix at a time with Python-scalar angles, in the
nulling order of Clements et al., Optica 3, 1460 (2016), and are derived
apart from :func:`spnn.mesh.clements_decompose`, which walks the same order
for a whole stack at once with (B,) angles and masked branches:

* :func:`clements_decompose` multiplies the working matrix by a full N x N
  matrix that embeds one 2x2 cell per step, which costs O(N^5) per mesh
  but follows the definition of each step literally;
* :func:`scalar_decompose` rotates two columns or two rows in place per
  step, O(N^3) per mesh, and folds and lays out the lefts with its own
  scalar helpers. It shares only the nulling angles with the dense oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from spnn.mesh import TWO_PI, Mesh
from spnn.numerics import unitarity_residual


@dataclass(frozen=True, eq=False)
class PlacedMesh(Mesh):
    """An oracle mesh: the phases plus each MZI's column and upper row in
    light order, laid out here apart from :func:`spnn.mesh._schedule`."""

    column: np.ndarray
    row: np.ndarray


def lossless_cell(theta: float, phi: float) -> np.ndarray:
    """The lossless cell T(theta, phi) as the :mod:`spnn.mesh` docstring
    writes it."""
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    ephi = np.exp(1j * phi)
    return 1j * np.exp(0.5j * theta) * np.array([[ephi * s, c], [ephi * c, -s]])


def is_unitary(m: np.ndarray, tol: float) -> bool:
    """True iff ``max|m @ m^H - I| < tol``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"is_unitary expects a square matrix, got {m.shape}")
    return bool(unitarity_residual(m) < tol)


def _wrap_phi(phi: float) -> float:
    phi = math.fmod(phi, TWO_PI)
    return phi + TWO_PI if phi < 0 else phi


def _null_right(a: complex, b: complex) -> tuple[float, float]:
    """(theta, phi) so that a*e^{-j phi}*sin(t/2) + b*cos(t/2) = 0."""
    theta = 2.0 * math.atan2(abs(b), abs(a))
    if abs(a) < 1e-300 or abs(b) < 1e-300:
        return theta, 0.0
    phi = np.angle(a) - np.angle(-b)
    return theta, _wrap_phi(float(phi))


def _null_left(a: complex, b: complex) -> tuple[float, float]:
    """(theta, phi) so that e^{j phi}*cos(t/2)*a - sin(t/2)*b = 0."""
    theta = 2.0 * math.atan2(abs(a), abs(b))
    if abs(a) < 1e-300 or abs(b) < 1e-300:
        return theta, 0.0
    phi = np.angle(b) - np.angle(a)
    return theta, _wrap_phi(float(phi))


def _embed(n: int, m: int, block: np.ndarray) -> np.ndarray:
    full = np.eye(n, dtype=complex)
    full[m : m + 2, m : m + 2] = block
    return full


def _push_through_diagonal(
    theta: float, phi: float, d0: complex, d1: complex
) -> tuple[float, float, complex, complex]:
    """Rewrite T(theta,phi)^{-1} @ diag(d0,d1) as diag(d0',d1') @ T(t',p')."""
    x = lossless_cell(theta, phi).conj().T @ np.diag([d0, d1])
    theta_p = 2.0 * math.atan2(abs(x[0, 0]), abs(x[0, 1]))
    s, c = math.sin(theta_p / 2.0), math.cos(theta_p / 2.0)
    base = 1j * np.exp(1j * theta_p / 2.0)
    eps = 1e-12
    if c > eps and s > eps:
        d0p = x[0, 1] / (base * c)
        ephi = x[0, 0] / (d0p * base * s)
        d1p = x[1, 0] / (base * c * ephi)
        phi_p = _wrap_phi(float(np.angle(ephi)))
    elif s <= eps:  # bar-like: off-diagonal of T' vanishes on the diagonal
        phi_p = 0.0
        d0p = x[0, 1] / base
        d1p = x[1, 0] / base
    else:  # c <= eps, cross-like
        phi_p = 0.0
        d0p = x[0, 0] / (base * s)
        d1p = -x[1, 1] / (base * s)
    return theta_p, phi_p, d0p, d1p


def clements_decompose(
    u: np.ndarray, tol: float = 1e-8
) -> tuple[PlacedMesh, np.ndarray]:
    """Rectangular-mesh decomposition of a unitary.

    Returns a mesh of exactly N(N-1)/2 MZIs plus a per-port output phase
    screen, such that ``clements_reconstruct(mesh, n, screen)`` reproduces
    ``u``.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got {u.shape}")
    if not is_unitary(u, tol):
        raise ValueError(
            f"input is not unitary: residual {unitarity_residual(u):.3e} "
            f"exceeds tol {tol:g}"
        )

    v = u.copy()
    rights: list[tuple[int, float, float]] = []  # (mode, theta, phi)
    lefts: list[tuple[int, float, float]] = []

    for i in range(n - 1):
        for j in range(i + 1):
            if i % 2 == 0:
                # Null v[n-1-j, i-j] from the right on modes (i-j, i-j+1).
                m, r = i - j, n - 1 - j
                theta, phi = _null_right(v[r, m], v[r, m + 1])
                tinv = _embed(n, m, lossless_cell(theta, phi).conj().T)
                v = v @ tinv
                rights.append((m, theta, phi))
            else:
                # Null v[n-1-i+j, j] from the left on rows above it.
                r = n - 1 - i + j
                theta, phi = _null_left(v[r - 1, j], v[r, j])
                t = _embed(n, r - 1, lossless_cell(theta, phi))
                v = t @ v
                lefts.append((r - 1, theta, phi))

    diag = np.diagonal(v).copy()
    if np.max(np.abs(v - np.diag(diag))) > 1e3 * tol:
        raise ValueError("nulling did not reach diagonal form")

    # U = L1^-1 ... Lp^-1 D Rq ... R1; fold each left inverse through the
    # diagonal so everything becomes screen @ (ordinary MZI factors).
    middle: list[tuple[int, float, float]] = []
    for m, theta, phi in reversed(lefts):
        theta_p, phi_p, d0p, d1p = _push_through_diagonal(
            theta, phi, diag[m], diag[m + 1]
        )
        diag[m], diag[m + 1] = d0p, d1p
        middle.insert(0, (m, theta_p, phi_p))

    # Matrix product order: u = diag(screen) . middle[0..p-1] . R_q ... R_1.
    # Applied-first-to-last order on the input is therefore rights in
    # recorded order, then middle reversed.
    applied = rights + [f for f in reversed(middle)]

    next_col = np.zeros(n, dtype=int)
    columns = np.zeros(len(applied), dtype=int)
    for k, (m, _, _) in enumerate(applied):
        columns[k] = max(next_col[m], next_col[m + 1])
        next_col[m] = next_col[m + 1] = columns[k] + 1
    # Light order: column by column, application order within a column.
    order = np.argsort(columns, kind="stable")
    rows, thetas, phis = np.array(applied, dtype=float).reshape(-1, 3)[order].T
    thetas = np.minimum(thetas, math.pi)
    mesh = PlacedMesh(thetas, phis, columns[order], rows.astype(int))
    return mesh, np.angle(diag)


# --------------------------------------------------------------------------
# Scalar O(N^3) oracle


def _scalar_cell(theta: float, phi: float) -> tuple[tuple[complex, complex], ...]:
    """T(theta, phi) as rows of Python scalars."""
    half = theta / 2.0
    s, c = math.sin(half), math.cos(half)
    g, ephi = 1j * cmath.exp(1j * half), cmath.exp(1j * phi)
    return (g * (ephi * s), g * c), (g * (ephi * c), g * -s)


def _scalar_push_through_diagonal(
    theta: float, phi: float, d0: complex, d1: complex
) -> tuple[float, float, complex, complex]:
    """Rewrite T(theta,phi)^{-1} @ diag(d0,d1) as diag(d0',d1') @ T(t',p')."""
    (t00, t01), (t10, t11) = _scalar_cell(theta, phi)
    # x = T^H @ diag(d0, d1)
    x00, x01 = t00.conjugate() * d0, t10.conjugate() * d1
    x10, x11 = t01.conjugate() * d0, t11.conjugate() * d1
    theta_p = 2.0 * math.atan2(abs(x00), abs(x01))
    s, c = math.sin(theta_p / 2.0), math.cos(theta_p / 2.0)
    base = 1j * cmath.exp(1j * theta_p / 2.0)
    eps = 1e-12
    if c > eps and s > eps:
        d0p = x01 / (base * c)
        ephi = x00 / (d0p * base * s)
        d1p = x10 / (base * c * ephi)
        phi_p = _wrap_phi(cmath.phase(ephi))
    elif s <= eps:  # bar-like: off-diagonal of T' vanishes on the diagonal
        phi_p = 0.0
        d0p = x01 / base
        d1p = x10 / base
    else:  # c <= eps, cross-like
        phi_p = 0.0
        d0p = x00 / (base * s)
        d1p = -x11 / (base * s)
    return theta_p, phi_p, d0p, d1p


def scalar_decompose(u: np.ndarray, tol: float = 1e-8) -> tuple[PlacedMesh, np.ndarray]:
    """One matrix, one Python-scalar step per MZI: each nulling rotates two
    columns or two rows of the working matrix in place."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got {u.shape}")
    if not is_unitary(u, tol):
        raise ValueError(
            f"input is not unitary: residual {unitarity_residual(u):.3e} "
            f"exceeds tol {tol:g}"
        )
    v = u.copy()
    n = v.shape[0]
    applied: list[tuple[int, float, float]] = []  # (mode, theta, phi)
    lefts: list[tuple[int, float, float]] = []
    for i in range(n - 1):
        for j in range(i + 1):
            if i % 2 == 0:
                # Null v[n-1-j, i-j] from the right on modes (i-j, i-j+1).
                m, r = i - j, n - 1 - j
                theta, phi = _null_right(complex(v[r, m]), complex(v[r, m + 1]))
                tinv = np.array(_scalar_cell(theta, phi)).conj().T
                v[:, m : m + 2] = v[:, m : m + 2] @ tinv
                applied.append((m, theta, phi))
            else:
                # Null v[n-1-i+j, j] from the left on rows above it.
                r = n - 1 - i + j
                theta, phi = _null_left(complex(v[r - 1, j]), complex(v[r, j]))
                cell = np.array(_scalar_cell(theta, phi))
                v[r - 1 : r + 1, :] = cell @ v[r - 1 : r + 1, :]
                lefts.append((r - 1, theta, phi))

    diag = np.diagonal(v).tolist()
    if np.max(np.abs(v - np.diag(diag))) > 1e3 * tol:
        raise ValueError("nulling did not reach diagonal form")
    # U = L1^-1 ... Lp^-1 D Rq ... R1; fold each left inverse through the
    # diagonal, last first, so everything becomes screen @ (ordinary MZI
    # factors) and the folded factors apply to the input after the rights.
    for m, theta, phi in reversed(lefts):
        theta_p, phi_p, diag[m], diag[m + 1] = _scalar_push_through_diagonal(
            theta, phi, diag[m], diag[m + 1]
        )
        applied.append((m, theta_p, phi_p))

    next_col = [0] * n
    columns = np.zeros(len(applied), dtype=int)
    for k, (m, _, _) in enumerate(applied):
        columns[k] = max(next_col[m], next_col[m + 1])
        next_col[m] = next_col[m + 1] = columns[k] + 1
    # Light order: column by column, application order within a column.
    order = np.argsort(columns, kind="stable")
    rows, thetas, phis = np.array(applied, dtype=float).reshape(-1, 3)[order].T
    thetas = np.minimum(thetas, math.pi)
    mesh = PlacedMesh(thetas, phis, columns[order], rows.astype(int))
    return mesh, np.angle(diag)
