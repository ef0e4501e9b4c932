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

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from spnn.numerics import is_unitary, svd, unitarity_residual

__all__ = [
    "Mesh",
    "LayerLayout",
    "lossless_cells",
    "clements_decompose",
    "clements_reconstruct",
    "diagonal_to_attenuators",
    "compile_layer",
    "layout_to_json",
    "layout_from_json",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class Mesh:
    """The MZIs of one stage as arrays in light order: stable-sorted by depth
    column, nulling order within a column. ``row`` is each MZI's upper
    waveguide; theta lies in [0, pi] and phi in [0, 2*pi)."""

    column: np.ndarray
    row: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name, dtype in (
            ("column", int), ("row", int), ("theta", float), ("phi", float)
        ):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype))
        if not len(self.column) == len(self.row) == len(self.theta) == len(self.phi):
            raise ValueError("mesh arrays must have equal lengths")
        if (self.column < 0).any() or (self.row < 0).any():
            raise ValueError("column and row must be >= 0")
        if (self.column[1:] < self.column[:-1]).any():
            raise ValueError("mesh columns must be non-decreasing (light order)")
        ok = (self.theta >= 0.0) & (self.theta <= math.pi + 1e-12)
        if not ok.all():
            raise ValueError(f"theta must be in [0, pi], got {self.theta[~ok]}")
        ok = (self.phi >= 0.0) & (self.phi < TWO_PI + 1e-12)
        if not ok.all():
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi[~ok]}")

    def __len__(self) -> int:
        return len(self.theta)


def _check_mesh(mesh: Mesh, n: int) -> None:
    """Rejects an MZI outside the n waveguides and two MZIs sharing a
    waveguide in one column."""
    outside = mesh.row + 1 >= n
    if outside.any():
        raise ValueError(f"mesh rows out of range for n={n}: {mesh.row[outside]}")
    # With every row below n - 1, two MZIs share a waveguide exactly when
    # their keys column * n + row are less than 2 apart.
    keys = np.sort(mesh.column * n + mesh.row)
    if (keys[1:] - keys[:-1] < 2).any():
        raise ValueError("two MZIs share a waveguide in one column")


@dataclass
class LayerLayout:
    """Physical realization of one layer; light flows V^H -> Sigma -> U.
    The Sigma stage holds attenuator k at column 0, row k."""

    n: int
    v_mesh: Mesh
    v_screen: np.ndarray
    sigma_stage: Mesh
    s_max: float
    u_mesh: Mesh
    u_screen: np.ndarray
    gain_db: float = 17.0
    nau_loss_db: float = 1.0

    def __post_init__(self):
        expected = self.n * (self.n - 1) // 2
        if len(self.v_mesh) != expected or len(self.u_mesh) != expected:
            raise ValueError(
                f"mesh size mismatch: expected {expected} MZIs per unitary "
                f"mesh for n={self.n}"
            )
        _check_mesh(self.v_mesh, self.n)
        _check_mesh(self.u_mesh, self.n)
        for name in ("v_screen", "u_screen"):
            if np.shape(getattr(self, name)) != (self.n,):
                raise ValueError(f"{name} must hold one phase per port (n={self.n})")
        if not np.array_equal(self.sigma_stage.row, np.arange(self.n)):
            raise ValueError("sigma stage must hold attenuator k on row k")

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


def _cell(theta: float, phi: float) -> tuple[tuple[complex, complex], ...]:
    """T(theta, phi) as rows of Python scalars."""
    half = theta / 2.0
    s, c = math.sin(half), math.cos(half)
    g, ephi = 1j * cmath.exp(1j * half), cmath.exp(1j * phi)
    return (g * (ephi * s), g * c), (g * (ephi * c), g * -s)


def _wrap_phi(phi: float) -> float:
    phi = math.fmod(phi, TWO_PI)
    return phi + TWO_PI if phi < 0 else phi


def _null_right(a: complex, b: complex) -> tuple[float, float]:
    """(theta, phi) so that a*e^{-j phi}*sin(t/2) + b*cos(t/2) = 0."""
    theta = 2.0 * math.atan2(abs(b), abs(a))
    if abs(a) < 1e-300 or abs(b) < 1e-300:
        return theta, 0.0
    return theta, _wrap_phi(cmath.phase(a) - cmath.phase(-b))


def _null_left(a: complex, b: complex) -> tuple[float, float]:
    """(theta, phi) so that e^{j phi}*cos(t/2)*a - sin(t/2)*b = 0."""
    theta = 2.0 * math.atan2(abs(a), abs(b))
    if abs(a) < 1e-300 or abs(b) < 1e-300:
        return theta, 0.0
    return theta, _wrap_phi(cmath.phase(b) - cmath.phase(a))


def _push_through_diagonal(
    theta: float, phi: float, d0: complex, d1: complex
) -> tuple[float, float, complex, complex]:
    """Rewrite T(theta,phi)^{-1} @ diag(d0,d1) as diag(d0',d1') @ T(t',p')."""
    (t00, t01), (t10, t11) = _cell(theta, phi)
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


def clements_decompose(u: np.ndarray, tol: float = 1e-8) -> tuple[Mesh, np.ndarray]:
    """Rectangular-mesh decomposition of a unitary.

    Returns a mesh of exactly N(N-1)/2 MZIs plus a per-port output phase
    screen, such that ``clements_reconstruct(mesh, n, screen)`` reproduces
    ``u``. Each nulling rotates two columns or two rows in place: O(N^3)
    arithmetic in O(N^2) scalar steps.
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
    applied: list[tuple[int, float, float]] = []  # (mode, theta, phi)
    lefts: list[tuple[int, float, float]] = []

    for i in range(n - 1):
        for j in range(i + 1):
            if i % 2 == 0:
                # Null v[n-1-j, i-j] from the right on modes (i-j, i-j+1).
                m, r = i - j, n - 1 - j
                theta, phi = _null_right(complex(v[r, m]), complex(v[r, m + 1]))
                tinv = np.array(_cell(theta, phi)).conj().T
                v[:, m : m + 2] = v[:, m : m + 2] @ tinv
                applied.append((m, theta, phi))
            else:
                # Null v[n-1-i+j, j] from the left on rows above it.
                r = n - 1 - i + j
                theta, phi = _null_left(complex(v[r - 1, j]), complex(v[r, j]))
                v[r - 1 : r + 1, :] = np.array(_cell(theta, phi)) @ v[r - 1 : r + 1, :]
                lefts.append((r - 1, theta, phi))

    diag = np.diagonal(v).tolist()
    if np.max(np.abs(v - np.diag(diag))) > 1e3 * tol:
        raise ValueError("nulling did not reach diagonal form")

    # U = L1^-1 ... Lp^-1 D Rq ... R1; fold each left inverse through the
    # diagonal, last first, so everything becomes screen @ (ordinary MZI
    # factors) and the folded factors apply to the input after the rights.
    for m, theta, phi in reversed(lefts):
        theta_p, phi_p, diag[m], diag[m + 1] = _push_through_diagonal(
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
    mesh = Mesh(columns[order], rows, np.minimum(thetas, math.pi), phis)
    return mesh, np.angle(diag)


def clements_reconstruct(
    mesh: Mesh, n: int, phase_screen: np.ndarray | None = None
) -> np.ndarray:
    """Lossless transfer of a mesh plus output phase screen.

    Verification oracle for :func:`clements_decompose`; rejects MZIs
    outside the n waveguides and two MZIs sharing one in a column.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_mesh(mesh, n)
    cells = lossless_cells(mesh.theta, mesh.phi)
    m = np.eye(n, dtype=complex)
    for col in np.unique(mesh.column):
        c = np.eye(n, dtype=complex)
        for k in np.flatnonzero(mesh.column == col):
            r = mesh.row[k]
            c[r : r + 2, r : r + 2] = cells[k]
        m = c @ m
    if phase_screen is not None:
        m = np.diag(np.exp(1j * np.asarray(phase_screen))) @ m
    return m


def diagonal_to_attenuators(s: np.ndarray) -> tuple[Mesh, float]:
    """Realize a nonnegative diagonal as per-port single-pass MZIs.

    Normalizes by s_max = max(s); port k gets theta with lossless through
    amplitude s_k/s_max. phi compensates the cell's intrinsic phase so the
    through coefficient is real and positive. One input and one output of
    each attenuator MZI are terminated.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("diagonal values must be >= 0")
    s_max = float(np.max(s)) if s.size else 0.0
    if s_max == 0.0:
        raise ValueError("all-zero diagonal: degenerate layer")
    thetas = [2.0 * math.asin(min(1.0, sk / s_max)) for sk in s]
    phis = [_wrap_phi(-theta / 2.0 - math.pi / 2.0) for theta in thetas]
    return Mesh(np.zeros(len(s), dtype=int), np.arange(len(s)), thetas, phis), s_max


def compile_layer(
    w: np.ndarray, gain_db: float = 17.0, nau_loss_db: float = 1.0
) -> LayerLayout:
    """SVD + Clements compilation of a square weight matrix.

    The ideal lossless end-to-end transfer of the returned layout equals
    ``w / s_max``.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"compile_layer expects a square matrix, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights contain NaN or inf")
    u, s, vh = svd(w)
    u_mesh, u_screen = clements_decompose(u)
    v_mesh, v_screen = clements_decompose(vh)
    sigma_stage, s_max = diagonal_to_attenuators(s)
    return LayerLayout(
        n=w.shape[0],
        v_mesh=v_mesh,
        v_screen=v_screen,
        sigma_stage=sigma_stage,
        s_max=s_max,
        u_mesh=u_mesh,
        u_screen=u_screen,
        gain_db=gain_db,
        nau_loss_db=nau_loss_db,
    )


# --------------------------------------------------------------------------
# JSON round trip
# --------------------------------------------------------------------------

def _mesh_to_dict(mesh: Mesh, role: str) -> list[dict]:
    cols: dict[int, list[dict]] = {}
    for c, r, theta, phi in zip(
        mesh.column.tolist(), mesh.row.tolist(), mesh.theta.tolist(), mesh.phi.tolist()
    ):
        cols.setdefault(c, []).append(
            {"rows": [r, r + 1], "theta": theta, "phi": phi, "role": role}
        )
    return [{"placements": cols[c]} for c in sorted(cols)]


def _mesh_from_dict(columns: list[dict], span: int) -> Mesh:
    """Columns re-indexed in list order; each MZI spans ``span`` consecutive rows."""
    entries = [(c, e) for c, col in enumerate(columns) for e in col["placements"]]
    for _, e in entries:
        rows = e["rows"]
        if not rows or rows != list(range(rows[0], rows[0] + span)):
            raise ValueError(f"MZI rows {rows} are not {span} consecutive waveguides")
    return Mesh(
        [c for c, _ in entries],
        [e["rows"][0] for _, e in entries],
        [e["theta"] for _, e in entries],
        [e["phi"] for _, e in entries],
    )


def layout_to_json(layout: LayerLayout) -> str:
    sigma = layout.sigma_stage
    doc = {
        "n": layout.n,
        "v_mesh": {
            "columns": _mesh_to_dict(layout.v_mesh, "unitary_V"),
            "phase_screen": list(map(float, layout.v_screen)),
        },
        "sigma_stage": {
            "placements": [
                {"rows": [r], "theta": theta, "phi": phi, "role": "diagonal"}
                for r, theta, phi in zip(
                    sigma.row.tolist(), sigma.theta.tolist(), sigma.phi.tolist()
                )
            ],
            "s_max": layout.s_max,
        },
        "u_mesh": {
            "columns": _mesh_to_dict(layout.u_mesh, "unitary_U"),
            "phase_screen": list(map(float, layout.u_screen)),
        },
        "gain_db": layout.gain_db,
        "nau_loss_db": layout.nau_loss_db,
    }
    return json.dumps(doc, indent=1)


def layout_from_json(text: str) -> LayerLayout:
    doc = json.loads(text)
    return LayerLayout(
        n=int(doc["n"]),
        v_mesh=_mesh_from_dict(doc["v_mesh"]["columns"], 2),
        v_screen=np.asarray(doc["v_mesh"]["phase_screen"], dtype=float),
        sigma_stage=_mesh_from_dict([doc["sigma_stage"]], 1),
        s_max=float(doc["sigma_stage"]["s_max"]),
        u_mesh=_mesh_from_dict(doc["u_mesh"]["columns"], 2),
        u_screen=np.asarray(doc["u_mesh"]["phase_screen"], dtype=float),
        gain_db=float(doc["gain_db"]),
        nau_loss_db=float(doc["nau_loss_db"]),
    )
