"""Propagation tests: ideal-mode correctness, a device-level oracle for a
compiled 2x2 layer, leak bookkeeping, Monte-Carlo interference, and seed
reproducibility."""

import math

import numpy as np
import pytest

from spnn.device import (
    MziParams,
    PhasePair,
    crosstalk_mean_db,
    mzi_transfer,
    mzi_with_crosstalk,
)
from spnn import propagation
from spnn.mesh import _schedule, compile_layer
from spnn.numerics import Rng, db_to_power, dbm_to_mw, random_unitary
from spnn.propagation import (
    GAIN_DB,
    NAU_LOSS_DB,
    NetworkSpec,
    monte_carlo_interference,
    network_cascade,
    propagate_signal,
    propagate_with_crosstalk,
    resolve_crosstalk_fields,
    transfer_matrix,
)

P = MziParams()


def _random_field(n, seed):
    r = Rng(seed)
    return r.standard_normal(n) + 1j * r.standard_normal(n)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_ideal_mode_realizes_w_over_smax(n):
    w = Rng(n).standard_normal((n, n)) + 1j * Rng(n + 50).standard_normal((n, n))
    layout = compile_layer(w)
    x = _random_field(n, 3)
    out = propagate_signal(layout, P, x, mode="ideal")
    np.testing.assert_allclose(out, (w / layout.s_max) @ x, atol=1e-7)


def test_lossy_transfer_matches_matrix_propagation():
    w = random_unitary(4, Rng(2))
    layout = compile_layer(w)
    x = _random_field(4, 4)
    t = transfer_matrix([layout], P, mode="lossy")
    np.testing.assert_allclose(
        propagate_signal(layout, P, x, mode="lossy"), t @ x, atol=1e-12
    )


def test_compiled_2x2_matches_device_level_oracle():
    """Rebuild a compiled 2x2 layer's crosstalk propagation from the
    device-level splitter, stage by stage, with deterministic X draws."""
    w = random_unitary(2, Rng(8))
    layout = compile_layer(w)
    x = _random_field(2, 9)
    res = propagate_with_crosstalk(layout, P, x, rng=None)
    # The result keeps leak magnitudes; the complex leaks are those the
    # pass's backward step yields per column, last column first.
    rows = x.astype(complex).reshape(2, 1)
    (_, got_u), (_, got_v) = propagation._mapped_leaks(
        [layout], P, rows, None, "physical", 1.0, False, np.eye(2, dtype=complex)
    )
    got_v, got_u = got_v[0, :, 0], got_u[0, :, 0]

    v = PhasePair(layout.v_mesh.theta[0], layout.v_mesh.phi[0])
    u = PhasePair(layout.u_mesh.theta[0], layout.u_mesh.phi[0])
    sigma = layout.sigma_stage
    sig, leak_v = mzi_with_crosstalk(P, v, x, x_db=crosstalk_mean_db(P, v.theta))
    screen_sigma = np.exp(1j * layout.v_screen) * np.array(
        [mzi_transfer(P, PhasePair(t, f))[0, 0] for t, f in zip(sigma.theta, sigma.phi)]
    )
    sig, leak_v = sig * screen_sigma, leak_v * screen_sigma
    sig, leak_u = mzi_with_crosstalk(P, u, sig, x_db=crosstalk_mean_db(P, u.theta))
    leak_v = mzi_transfer(P, u) @ leak_v  # no re-leak downstream
    u_screen = np.exp(1j * layout.u_screen)
    sig, leak_v, leak_u = sig * u_screen, leak_v * u_screen, leak_u * u_screen

    np.testing.assert_allclose(res.signal, sig, atol=1e-12)
    assert res.leak_fields.shape[1] == 2
    np.testing.assert_allclose(got_v, leak_v, atol=1e-12)
    np.testing.assert_allclose(got_u, leak_u, atol=1e-12)
    assert res.leak_fields.tobytes() == np.abs(np.stack([got_v, got_u], 1)).tobytes()


def test_component_count_is_n_times_n_minus_1():
    n = 6
    layout = compile_layer(Rng(1).standard_normal((n, n)))
    res = propagate_with_crosstalk(layout, P, _random_field(n, 2), rng=Rng(3))
    assert res.leak_fields.shape[1] == n * (n - 1)
    assert res.leak_fields.size == n * (n - 1) * n


def test_first_order_power_bookkeeping():
    """Signal power plus incoherent leak power never exceeds launch power
    (no gain, physical leak accounting)."""
    n = 8
    layout = compile_layer(Rng(4).standard_normal((n, n)))
    x = np.exp(1j * Rng(5).uniform(0.0, 2.0 * math.pi, n))
    res = propagate_with_crosstalk(layout, P, x, rng=Rng(6))
    total = float(np.sum(np.abs(res.signal) ** 2)) + float(
        np.sum(np.abs(res.leak_fields) ** 2)
    )
    assert total <= float(np.sum(np.abs(x) ** 2)) + 1e-12


def test_zero_crosstalk_matches_signal_path():
    n = 4
    layout = compile_layer(Rng(7).standard_normal((n, n)))
    x = _random_field(n, 8)
    p0 = MziParams(xb_db=-300.0, xc_db=-300.0, xtalk_sigma_frac=0.0)
    res = propagate_with_crosstalk(layout, p0, x, rng=None)
    ref = propagate_signal(layout, p0, x, mode="lossy")
    np.testing.assert_allclose(res.signal, ref, atol=1e-10)
    assert float(np.sum(np.abs(res.leak_fields) ** 2)) < 1e-25


def test_gain_applies_to_signal_and_leaks_alike():
    """A one-layer cascade is the layer's crosstalk pass times its gain."""
    n = 4
    layout = compile_layer(Rng(9).standard_normal((n, n)))
    x = _random_field(n, 10)
    # X is drawn before any gain, so equal seeds give both calls equal X.
    base = propagate_with_crosstalk(layout, P, x, rng=Rng(11))
    gained = network_cascade(NetworkSpec([layout], P), x, rng=Rng(11))
    factor = db_to_power(NAU_LOSS_DB - GAIN_DB)
    np.testing.assert_allclose(
        np.abs(gained.signal) ** 2, factor * np.abs(base.signal) ** 2, rtol=1e-12
    )
    np.testing.assert_allclose(
        np.abs(gained.leak_fields) ** 2,
        factor * np.abs(base.leak_fields) ** 2,
        rtol=1e-12,
    )


def test_nominal_leak_birth_books_x_times_launch_power():
    """A lossless layer of a unitary matrix keeps every stage unitary, so
    each leak reaches the output with the power it was booked at: X times
    the 1 mW nominal launch power."""
    n = 4
    p = P.lossless()
    layout = compile_layer(random_unitary(n, Rng(12)))
    x = _random_field(n, 13)
    res = propagate_with_crosstalk(layout, p, x, rng=None, leak_birth="nominal")
    # rng=None draws the deterministic mean X, slot by slot in light order:
    # each mesh's MZIs column by column, the order a Mesh holds them in.
    assert np.all(np.diff(_schedule(n).column) >= 0)
    thetas = np.concatenate([layout.v_mesh.theta, layout.u_mesh.theta])
    out_mw = np.sum(np.abs(res.leak_fields) ** 2, axis=0)
    assert len(thetas) == len(out_mw)
    for born, theta in zip(out_mw, thetas):
        x_lin = 10.0 ** (crosstalk_mean_db(p, theta) / 10.0)
        # Either the MZI saw no light (nothing to leak) or the leak is
        # booked at exactly X times the nominal launch power.
        assert born == pytest.approx(0.0, abs=1e-18) or born == pytest.approx(
            x_lin, rel=1e-12
        )


def test_network_cascade_frozen_seed_is_bit_reproducible():
    n = 4
    layers = [compile_layer(Rng(20 + k).standard_normal((n, n))) for k in range(2)]
    spec = NetworkSpec(layers, P)
    a = network_cascade(spec, rng=Rng(33))
    b = network_cascade(spec, rng=Rng(33))
    assert a.signal.tobytes() == b.signal.tobytes()
    assert a.leak_fields.tobytes() == b.leak_fields.tobytes()


def test_network_il_monotone_in_scale():
    sizes = [2, 4, 8]
    avg = []
    for n in sizes:
        ratios = []
        for i in range(5):
            layout = compile_layer(Rng(100 * n + i).standard_normal((n, n)))
            lossy = transfer_matrix([layout], P, mode="lossy")
            ideal = transfer_matrix([layout], P, mode="ideal")
            # Per-port IL ratio for unit power on every input.
            row_ratio = np.sum(np.abs(lossy) ** 2, 1) / np.sum(np.abs(ideal) ** 2, 1)
            ratios.append(np.mean(row_ratio))
        avg.append(-10.0 * math.log10(np.mean(ratios)))
    assert avg[0] < avg[1] < avg[2]


def test_identity_network_with_lossless_params():
    n = 4
    layout = compile_layer(np.eye(n))
    res = network_cascade(NetworkSpec([layout], P.lossless()), rng=None)
    factor = db_to_power(NAU_LOSS_DB - GAIN_DB)  # net gain
    np.testing.assert_allclose(
        np.abs(res.transfer) ** 2, factor * np.eye(n), rtol=1e-9, atol=1e-15
    )


def test_monte_carlo_zero_components():
    stats = monte_carlo_interference(np.array([]), 0.7, trials=100, rng=Rng(1))
    assert stats["received_mean_mw"] == pytest.approx(0.49)
    assert stats["xtalk_max_mw"] == 0.0


def test_monte_carlo_uniform_phase_expectation():
    a_s, a_x = 0.8, 0.3
    stats = monte_carlo_interference(
        np.array([a_x]), a_s, trials=100_000, rng=Rng(2)
    )
    assert stats["received_mean_mw"] == pytest.approx(
        a_s**2 + a_x**2, rel=0.01
    )
    assert stats["received_min_mw"] == pytest.approx((a_s - a_x) ** 2, abs=2e-4)
    assert stats["xtalk_aligned_mw"] == pytest.approx(a_x**2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_monte_carlo_rejects_non_finite_or_negative_amplitudes(bad):
    with pytest.raises(ValueError, match="finite and >= 0"):
        monte_carlo_interference(np.array([0.2, bad]), 0.7, trials=10, rng=Rng(3))
    with pytest.raises(ValueError, match="finite and >= 0"):
        monte_carlo_interference(np.array([0.1, 0.2]), bad, trials=10, rng=Rng(3))


def test_field_inputs_of_the_wrong_shape_name_the_expected_shape():
    n = 4
    layout = compile_layer(Rng(14).standard_normal((n, n)))
    spec = NetworkSpec([layout], P)
    calls = (
        lambda x: propagate_signal(layout, P, x),
        lambda x: propagate_with_crosstalk(layout, P, x),
        lambda x: network_cascade(spec, x),
    )
    for call in calls:
        for x in (1.0, np.ones(n + 1)):
            with pytest.raises(ValueError, match=r"expected a field of shape \(4,\)"):
                call(x)


def test_resolve_crosstalk_fields_reproducible_and_power_scale():
    n = 4
    layout = compile_layer(Rng(40).standard_normal((n, n)))
    x = _random_field(n, 41)
    res = propagate_with_crosstalk(layout, P, x, rng=Rng(42))
    out1 = resolve_crosstalk_fields(res, Rng(7))
    out2 = resolve_crosstalk_fields(res, Rng(7))
    assert out1.tobytes() == out2.tobytes()
    # Expected combined power is signal power + incoherent leak power.
    trials = [
        np.sum(np.abs(resolve_crosstalk_fields(res, Rng(1000 + t))) ** 2)
        for t in range(400)
    ]
    expect = float(
        np.sum(np.abs(res.signal) ** 2) + np.sum(np.abs(res.leak_fields) ** 2)
    )
    assert np.mean(trials) == pytest.approx(expect, rel=0.05)


def test_launch_field_power():
    layout = compile_layer(np.eye(2))
    spec = NetworkSpec([layout], P, input_power_dbm=3.0)
    x = spec.launch_field()
    assert float(np.abs(x[0]) ** 2) == pytest.approx(dbm_to_mw(3.0))


def test_ideal_transfer_of_cascade():
    n = 3
    ws = [Rng(50 + k).standard_normal((n, n)) for k in range(2)]
    layers = [compile_layer(w) for w in ws]
    expected = (ws[1] / layers[1].s_max) @ (ws[0] / layers[0].s_max)
    np.testing.assert_allclose(
        transfer_matrix(layers, P, mode="ideal"), expected, atol=1e-7
    )
