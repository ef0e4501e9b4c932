"""Device-level tests: routing states, lossless unitarity, crosstalk
split conservation, and the statistical crosstalk coefficient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnn.device import (
    MziParams,
    PhasePair,
    crosstalk_coefficient,
    crosstalk_mean_db,
    mzi_cells,
    mzi_transfer,
    mzi_with_crosstalk,
    output_insertion_loss,
)
from spnn.numerics import Rng, unitarity_residual

LOSSLESS = MziParams().lossless()


def test_cross_state_routes_i1_to_o2():
    t = mzi_transfer(LOSSLESS, PhasePair(theta=0.0))
    out = t @ np.array([1.0, 0.0])
    assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)
    assert abs(out[0]) == pytest.approx(0.0, abs=1e-12)


def test_bar_state_routes_i1_to_o1():
    t = mzi_transfer(LOSSLESS, PhasePair(theta=math.pi))
    out = t @ np.array([1.0, 0.0])
    assert abs(out[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(out[1]) == pytest.approx(0.0, abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
@settings(max_examples=50, deadline=None)
def test_lossless_transfer_is_unitary(theta, phi):
    t = mzi_transfer(LOSSLESS, PhasePair(theta, phi))
    assert unitarity_residual(t) < 1e-10


def test_mzi_cells_on_arrays_equal_per_mzi_transfer():
    r = Rng(3)
    theta = r.uniform(0.0, math.pi, (4, 5))
    phi = r.uniform(0.0, 2.0 * math.pi, (4, 5))
    p = MziParams(kappa1=0.45, alpha_m_db=0.3)
    cells = mzi_cells(p, theta, phi)
    assert cells.shape == (4, 5, 2, 2)
    for idx in np.ndindex(theta.shape):
        t = mzi_transfer(p, PhasePair(float(theta[idx]), float(phi[idx])))
        assert cells[idx].tobytes() == t.tobytes()


def test_lossy_transfer_is_subunitary():
    p = MziParams()
    for theta in np.linspace(0.0, math.pi, 7):
        t = mzi_transfer(p, PhasePair(float(theta)))
        top = np.linalg.svd(t, compute_uv=False)[0]
        assert top < 1.0


@given(
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=-40.0, max_value=-1.0),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_crosstalk_split_conserves_power(theta, x_db, seed):
    """|signal|^2 + |leak|^2 equals the lossy-routed output power exactly."""
    p = MziParams()
    rng = Rng(seed)
    inputs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    signal, leak = mzi_with_crosstalk(
        p, PhasePair(theta), inputs, x_db=x_db
    )
    routed = mzi_transfer(p, PhasePair(theta)) @ inputs
    total = np.sum(np.abs(signal) ** 2) + np.sum(np.abs(leak) ** 2)
    assert total == pytest.approx(float(np.sum(np.abs(routed) ** 2)), abs=1e-12)


def test_leak_power_fraction_is_exactly_x():
    p = MziParams()
    inputs = np.array([0.6 + 0.2j, -0.3 + 0.7j])
    x_db = -20.0
    signal, leak = mzi_with_crosstalk(p, PhasePair(1.0), inputs, x_db=x_db)
    routed_power = float(
        np.sum(np.abs(mzi_transfer(p, PhasePair(1.0)) @ inputs) ** 2)
    )
    assert float(np.sum(np.abs(leak) ** 2)) == pytest.approx(
        10.0 ** (x_db / 10.0) * routed_power, rel=1e-12
    )


def test_crosstalk_mean_is_affine_in_theta():
    p = MziParams()
    assert crosstalk_mean_db(p, 0.0) == pytest.approx(p.xc_db)
    assert crosstalk_mean_db(p, math.pi) == pytest.approx(p.xb_db)
    mid = crosstalk_mean_db(p, math.pi / 2.0)
    assert mid == pytest.approx(0.5 * (p.xb_db + p.xc_db))


def test_crosstalk_coefficient_statistics():
    p = MziParams()
    theta = 1.1
    mu = crosstalk_mean_db(p, theta)
    rng = Rng(7)
    draws = np.array(
        [crosstalk_coefficient(p, theta, rng) for _ in range(100_000)]
    )
    assert np.all(draws <= 0.0)
    assert draws.mean() == pytest.approx(mu, abs=0.05 * abs(mu) * 0.02)
    assert draws.std() == pytest.approx(0.05 * abs(mu), rel=0.02)


def test_crosstalk_coefficient_deterministic_without_rng():
    p = MziParams()
    assert crosstalk_coefficient(p, 0.3) == crosstalk_mean_db(p, 0.3)


def test_insertion_loss_envelope_over_theta():
    p = MziParams()
    for theta in np.linspace(0.0, math.pi, 101):
        il1, il2 = output_insertion_loss(p, PhasePair(float(theta)))
        for il in (il1, il2):
            assert 0.25 <= il <= 0.85


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        MziParams(kappa1=1.5)
    with pytest.raises(ValueError):
        MziParams(alpha_l_db=-0.1)
    with pytest.raises(ValueError):
        MziParams(xb_db=-10.0, xc_db=-20.0)  # ordering violated
    with pytest.raises(ValueError):
        PhasePair(theta=4.0)
