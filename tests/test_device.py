"""Device-level tests: routing states, lossless unitarity, crosstalk
split conservation, and the statistical crosstalk coefficient."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_clements
from spnn.device import (
    LOSSLESS_MZI,
    MziParams,
    PhasePair,
    crosstalk_coefficient,
    crosstalk_mean_db,
    mzi_cells,
    mzi_transfer,
    mzi_with_crosstalk,
    output_insertion_loss,
)
from spnn.mesh import Mesh, compile_layer
from spnn.numerics import Rng, db_to_field, unitarity_residual

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


def _four_factor_cell(p: MziParams, theta: float, phi: float) -> np.ndarray:
    """Reference T_DC2 . T_theta . T_DC1 . T_phi as four 2x2 matrices."""
    a_l, a_m, a_p = (
        db_to_field(db) for db in (p.alpha_l_db, p.alpha_m_db, p.propagation_db)
    )

    def coupler(kappa):
        t, k = math.sqrt(1.0 - kappa), math.sqrt(kappa)
        return a_l * np.array([[t, 1j * k], [1j * k, t]])

    t_theta = np.diag([a_p * a_m * np.exp(1j * theta), a_p])
    t_phi = np.diag([a_m * np.exp(1j * phi), 1.0])
    return coupler(p.kappa2) @ t_theta @ coupler(p.kappa1) @ t_phi


_THETA = st.floats(min_value=0.0, max_value=math.pi)
_PHI = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=20.0),
    _THETA,
    _PHI,
)
@settings(max_examples=200, deadline=None)
def test_mzi_cells_equal_the_four_factor_product(
    kappa1, kappa2, alpha_l_db, alpha_m_db, alpha_p_db_per_cm, theta, phi
):
    p = MziParams(
        kappa1=kappa1,
        kappa2=kappa2,
        alpha_l_db=alpha_l_db,
        alpha_m_db=alpha_m_db,
        alpha_p_db_per_cm=alpha_p_db_per_cm,
    )
    cell = mzi_cells(p, theta, phi)
    assert np.max(np.abs(cell - _four_factor_cell(p, theta, phi))) <= 1e-14


@given(_THETA, _PHI)
@settings(max_examples=100, deadline=None)
def test_lossless_device_cell_is_the_clements_cell(theta, phi):
    cell = mzi_cells(LOSSLESS_MZI, theta, phi)
    assert np.max(np.abs(cell - oracle_clements.lossless_cell(theta, phi))) <= 1e-14
    assert unitarity_residual(cell) < 1e-14


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


# Draws above 0 dB are common here, so the scalar calls redraw.
REJECTING = MziParams(xb_db=-1.0, xc_db=-0.05, xtalk_sigma_frac=0.9)


@pytest.mark.parametrize(
    "p, seed",
    [
        (MziParams(), 3),
        (REJECTING, 3),
        (MziParams(xb_db=0.0, xc_db=0.0), 3),  # sigma 0: a draw consumes nothing
        (MziParams(), None),
    ],
)
def test_mesh_of_draws_equals_scalar_calls_and_keeps_the_stream(p, seed):
    theta = compile_layer(Rng(5).standard_normal((8, 8))).v_mesh.theta
    scalar_rng = None if seed is None else Rng(seed)
    vector_rng = None if seed is None else Rng(seed)
    expected = [crosstalk_coefficient(p, t, scalar_rng) for t in theta.tolist()]
    np.testing.assert_array_equal(crosstalk_coefficient(p, theta, vector_rng), expected)
    if seed is not None:
        assert vector_rng.state == scalar_rng.state


def test_rejecting_params_force_rejections():
    theta = compile_layer(Rng(5).standard_normal((8, 8))).v_mesh.theta
    mu = crosstalk_mean_db(REJECTING, theta)
    draws = Rng(3).gaussian(mu, REJECTING.xtalk_sigma_frac * np.abs(mu))
    assert (draws > 0.0).any()


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


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(MziParams)])
def test_nan_params_rejected(name):
    with pytest.raises(ValueError, match=name):
        MziParams(**{name: math.nan})


@pytest.mark.parametrize(
    "theta, phi, accepted",
    [
        (math.pi + 1e-13, 0.0, True),
        (0.0, 2.0 * math.pi, True),
        (math.pi + 1e-11, 0.0, False),
        (-1e-9, 0.0, False),
        (0.0, -1e-9, False),
        (math.nan, 0.0, False),
        (0.0, math.nan, False),
    ],
)
def test_phase_range_is_one_rule(theta, phi, accepted):
    """PhasePair, Mesh and crosstalk_mean_db (theta only, scalar or array)
    accept and reject the same phases with the same message."""
    checks = [lambda: PhasePair(theta, phi), lambda: Mesh([theta], [phi])]
    if phi == 0.0:
        checks += [
            lambda: crosstalk_mean_db(LOSSLESS, theta),
            lambda: crosstalk_mean_db(LOSSLESS, np.array([0.5, theta])),
        ]
    message = "theta must be in [0, pi]" if phi == 0.0 else "phi must be in [0, 2*pi)"
    for check in checks:
        if accepted:
            check()
        else:
            with pytest.raises(ValueError, match=re.escape(message)):
                check()
