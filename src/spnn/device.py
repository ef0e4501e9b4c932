"""2x2 MZI compact model: loss-aware transfer matrix, theta-dependent
statistical crosstalk coefficient, and crosstalk-injected output.

The device is two directional couplers around an internal phase shifter
(theta) with an input phase shifter (phi) on the top arm. theta sets the
routing state: theta=0 is the Cross-state (I1->O2), theta=pi the Bar-state
(I1->O1). All loss parameters are carried in dB and converted to field
amplitudes exactly once, here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from spnn.numerics import Rng, db_to_field, power_to_db

__all__ = [
    "MziParams",
    "PhasePair",
    "mzi_cells",
    "mzi_transfer",
    "output_insertion_loss",
    "crosstalk_mean_db",
    "crosstalk_coefficient",
    "mzi_with_crosstalk",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MziParams:
    """Device-level loss/crosstalk parameters (dB) plus geometry.

    Defaults are the reference fabrication values: 3-dB couplers, 0.1 dB
    per coupler, 0.2 dB phase-shifter absorption, 2 dB/cm propagation over
    a 300 um device, and bar/cross crosstalk of -25/-18 dB with a relative
    sigma of 0.05 on the interpolated mean.
    """

    kappa1: float = 0.5
    kappa2: float = 0.5
    alpha_l_db: float = 0.1
    alpha_m_db: float = 0.2
    alpha_p_db_per_cm: float = 2.0
    l_mzi_um: float = 300.0
    xb_db: float = -25.0
    xc_db: float = -18.0
    xtalk_sigma_frac: float = 0.05

    def __post_init__(self):
        for name in ("kappa1", "kappa2"):
            k = getattr(self, name)
            if not 0.0 <= k <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {k}")
        for name in ("alpha_l_db", "alpha_m_db", "alpha_p_db_per_cm", "l_mzi_um"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be >= 0 dB, got {v}")
        if not (self.xb_db <= self.xc_db <= 0.0):
            raise ValueError(
                f"crosstalk ordering violated: need xb_db <= xc_db <= 0, "
                f"got xb_db={self.xb_db}, xc_db={self.xc_db}"
            )
        if self.xtalk_sigma_frac < 0:
            raise ValueError("xtalk_sigma_frac must be >= 0")

    @property
    def propagation_db(self) -> float:
        """Total waveguide propagation loss over the MZI length, in dB."""
        return self.alpha_p_db_per_cm * self.l_mzi_um * 1e-4

    def lossless(self) -> "MziParams":
        """Same geometry/crosstalk with every optical loss forced to 0 dB."""
        return replace(
            self, alpha_l_db=0.0, alpha_m_db=0.0, alpha_p_db_per_cm=0.0
        )


@dataclass(frozen=True)
class PhasePair:
    """Phase-shifter settings: theta in [0, pi], phi in [0, 2*pi)."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < TWO_PI + 1e-12:
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")


def _coupler(kappa: float, a_l: float) -> np.ndarray:
    t = math.sqrt(1.0 - kappa)
    k = math.sqrt(kappa)
    return a_l * np.array([[t, 1j * k], [1j * k, t]])


def mzi_cells(p: MziParams, theta, phi) -> np.ndarray:
    """Four-factor transfer matrices T_DC2 . T_theta . T_DC1 . T_phi for
    arrays of phases: shape ``theta.shape + (2, 2)``.

    Each dB loss enters as a field-amplitude factor: the coupler loss on
    both couplers, the metal absorption on the phased arm of each shifter
    section, and the propagation loss over the full device length.
    With zero-dB losses and kappa=0.5 every matrix is unitary.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    a_l = db_to_field(p.alpha_l_db)
    a_m = db_to_field(p.alpha_m_db)
    a_p = db_to_field(p.propagation_db)
    t_theta = np.zeros(theta.shape + (2, 2), dtype=complex)
    t_theta[..., 0, 0] = a_p * a_m * np.exp(1j * theta)
    t_theta[..., 1, 1] = a_p
    t_phi = np.zeros(phi.shape + (2, 2), dtype=complex)
    t_phi[..., 0, 0] = a_m * np.exp(1j * phi)
    t_phi[..., 1, 1] = 1.0
    return _coupler(p.kappa2, a_l) @ t_theta @ _coupler(p.kappa1, a_l) @ t_phi


def mzi_transfer(p: MziParams, ph: PhasePair) -> np.ndarray:
    """Loss-aware 2x2 transfer matrix of one MZI (see :func:`mzi_cells`)."""
    return mzi_cells(p, ph.theta, ph.phi)


def output_insertion_loss(p: MziParams, ph: PhasePair) -> tuple[float, float]:
    """Per-output IL with unit power on each input summed incoherently.

    ``-10*log10`` of each row power of T; for a lossless device this is
    exactly 0 dB on both outputs, so the value isolates the optical loss
    from the interferometric routing.
    """
    t = mzi_transfer(p, ph)
    row_power = np.sum(np.abs(t) ** 2, axis=1)
    il = power_to_db(row_power)
    return float(il[0]), float(il[1])


def crosstalk_mean_db(p: MziParams, theta: float) -> float:
    """Deterministic crosstalk coefficient: linear in theta from the
    Cross-state value at theta=0 to the Bar-state value at theta=pi."""
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError(f"theta must be in [0, pi], got {theta}")
    return (p.xb_db - p.xc_db) / math.pi * theta + p.xc_db


def crosstalk_coefficient(
    p: MziParams, theta: float, rng: Rng | None = None
) -> float:
    """Crosstalk coefficient in dB at an intermediate MZI state.

    Gaussian in the dB domain with mean ``crosstalk_mean_db`` and standard
    deviation ``xtalk_sigma_frac * |mean|``. Samples above 0 dB (a coupling
    coefficient above unity) are rejected and redrawn. Without an rng the
    mean is returned exactly.
    """
    mu = crosstalk_mean_db(p, theta)
    if rng is None or p.xtalk_sigma_frac == 0.0:
        return mu
    sigma = p.xtalk_sigma_frac * abs(mu)
    for _ in range(1000):
        x = float(rng.gaussian(mu, sigma))
        if x <= 0.0:
            return x
    raise RuntimeError("crosstalk sampling failed to produce a value <= 0 dB")


def mzi_with_crosstalk(
    p: MziParams,
    ph: PhasePair,
    inputs: np.ndarray,
    rng: Rng | None = None,
    x_db: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split the MZI output into routed signal and first-order leak.

    The leak matrix is T with its rows exchanged. Field factors are
    ``sqrt(1-X)`` on the signal and ``sqrt(X)`` on the leak with
    ``X = 10**(x_db/10)``, so the leak *power* is exactly X times the routed
    power and signal+leak power equals the lossy-T output power.
    """
    inputs = np.asarray(inputs, dtype=complex)
    t = mzi_transfer(p, ph)
    if x_db is None:
        x_db = crosstalk_coefficient(p, ph.theta, rng)
    x_lin = 10.0 ** (x_db / 10.0)
    signal_out = math.sqrt(1.0 - x_lin) * (t @ inputs)
    leak_out = math.sqrt(x_lin) * (t[::-1, :] @ inputs)
    return signal_out, leak_out
