"""Numerical substrate: complex matrices, SVD, 2-D FFT, dB bridges, seeded RNG.

The dB bridges below carry most dB <-> linear conversion in the package;
the crosstalk coefficient X goes from dB to linear inline, as
``10 ** (x_db / 10)``, in :mod:`spnn.propagation`, :mod:`spnn.device` and
the CLI's ``device-sweep``. Nothing downstream stores mixed-unit values.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Rng",
    "db_to_field",
    "db_to_power",
    "power_to_db",
    "mw_to_dbm",
    "svd",
    "fft2d",
    "random_unitary",
]


# --------------------------------------------------------------------------
# dB bridges
# --------------------------------------------------------------------------

def db_to_field(loss_db: float) -> float:
    """Field-amplitude transmission for a power loss given in dB.

    ``10**(-loss_db/20)``; the squared value is the power transmission
    ``10**(-loss_db/10)``. A negative argument expresses gain.
    """
    return 10.0 ** (-np.asarray(loss_db, dtype=float) / 20.0)


def db_to_power(loss_db: float) -> float:
    """Power transmission ``10**(-loss_db/10)`` for a loss given in dB."""
    return 10.0 ** (-np.asarray(loss_db, dtype=float) / 10.0)


def power_to_db(ratio):
    """Loss in dB for a power ratio; ratio 0 maps to +inf (full extinction)."""
    ratio = np.asarray(ratio, dtype=float)
    with np.errstate(divide="ignore"):
        return -10.0 * np.log10(ratio)


def mw_to_dbm(p_mw):
    """Absolute power in dBm from milliwatts; 0 mW maps to -inf dBm."""
    p_mw = np.asarray(p_mw, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(p_mw)


# --------------------------------------------------------------------------
# Seeded RNG
# --------------------------------------------------------------------------

class Rng:
    """Seeded random stream. Identical seed (and spawn keys) => identical
    stream, independent of scheduling; children are derived, never shared.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in _spawn_key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def spawn(self, *keys: int) -> "Rng":
        """Independent child stream, reproducible from (seed, keys)."""
        return Rng(self.seed, self.spawn_key + tuple(keys))

    # -- distributions ----------------------------------------------------

    @property
    def state(self) -> dict:
        """The generator state; assigning a saved state rewinds the stream."""
        return self._gen.bit_generator.state

    @state.setter
    def state(self, value: dict) -> None:
        self._gen.bit_generator.state = value

    def gaussian(self, mu, sigma, size=None):
        """Normal draws; mu and sigma may be arrays. A scalar sigma of 0
        returns mu and consumes nothing."""
        if not isinstance(sigma, np.ndarray) and sigma <= 0:
            if sigma < 0:
                raise ValueError(f"sigma must be >= 0, got {sigma}")
            return np.full(size, float(mu)) if size is not None else float(mu)
        return self._gen.normal(mu, sigma, size=size)

    def uniform(self, a: float, b: float, size=None):
        if a > b:
            raise ValueError(f"uniform bounds out of order: a={a} > b={b}")
        return self._gen.uniform(a, b, size=size)

    def half_normal(self, loc: float, sigma: float):
        """``loc + |gaussian(0, sigma)|``; always >= loc."""
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        return loc + np.abs(self._gen.normal(0.0, sigma))

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int):
        return self._gen.permutation(n)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def __repr__(self):  # pragma: no cover
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"


# --------------------------------------------------------------------------
# Linear algebra
# --------------------------------------------------------------------------

def _member(i: int, count: int) -> str:
    """Names member i of a stack of ``count`` matrices in an error message;
    empty for a lone matrix."""
    return f" (matrix {i} of {count})" if count > 1 else ""


def svd(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of a square complex matrix, or of a stack (B, N, N) of them:
    ``w = U @ diag(S) @ Vh`` per matrix.

    S is nonnegative and sorted descending; U and Vh are unitary.
    Raises on non-convergence with the reconstruction residual attached,
    naming the failing member of a stack.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim not in (2, 3) or w.shape[-1] != w.shape[-2]:
        raise ValueError(
            f"svd expects a square matrix or a stack of them, got shape {w.shape}"
        )
    try:
        u, s, vh = np.linalg.svd(w)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise np.linalg.LinAlgError(f"SVD failed to converge: {exc}") from exc
    resid = np.atleast_1d(np.linalg.norm((u * s[..., None, :]) @ vh - w, axis=(-2, -1)))
    scale = np.maximum(1.0, np.linalg.norm(w, axis=(-2, -1)))
    bad = np.flatnonzero(~(resid <= 1e-9 * scale))
    if bad.size:
        i = bad[0]
        raise np.linalg.LinAlgError(
            f"SVD reconstruction residual too large: {resid[i]:.3e}"
            f"{_member(i, len(resid))}"
        )
    return u, s, vh


def unitarity_residual(m: np.ndarray):
    """``max|m @ m^H - I|`` of a square matrix, or per matrix (B,) of a
    stack (B, N, N)."""
    m = np.asarray(m, dtype=complex)
    gram = m @ m.conj().swapaxes(-1, -2)
    return np.abs(gram - np.eye(m.shape[-1])).max(axis=(-2, -1), initial=0.0)


def random_unitary(n: int, rng: Rng) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # Fix the phase ambiguity so the distribution is well conditioned.
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q


# --------------------------------------------------------------------------
# 2-D FFT
# --------------------------------------------------------------------------

def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 2 ** math.ceil(math.log2(n))


def fft2d(image: np.ndarray) -> np.ndarray:
    """Unnormalized 2-D DFT of a real image, zero-padded to a power-of-two
    square. Parseval: ``sum|F|^2 == side^2 * sum|x|^2``.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("fft2d expects a nonempty 2-D image")
    side = _next_pow2(max(image.shape))
    if image.shape != (side, side):
        padded = np.zeros((side, side))
        padded[: image.shape[0], : image.shape[1]] = image
        image = padded
    return np.fft.fft2(image)

