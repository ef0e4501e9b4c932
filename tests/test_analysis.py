"""Analysis tests: gradient correctness against finite differences, the
reference trainer on a separable toy task, power-penalty arithmetic, and
port-statistic conventions."""

import math

import numpy as np
import pytest

from spnn.analysis import (
    EXPECTED_ALPHA_RANGES,
    ComplexMlp,
    _il_ratios,
    _loss_and_grads,
    accuracy_eval,
    loss_sweep,
    network_statistics,
    params_with_alphas,
    port_statistics,
    power_penalty,
    train_reference,
)
from spnn.data import FeatureDataset
from spnn.device import MziParams
from spnn.mesh import compile_layer
from spnn.numerics import Rng
from spnn.propagation import (
    NetworkSpec,
    insertion_loss_per_port,
    network_cascade,
    propagate_signal,
)


def _toy_two_class(n_per=40, seed=3):
    """Two linearly separable classes on ports 0 and 1 of a 4-port net."""
    r = Rng(seed)
    feats = np.zeros((2 * n_per, 4), dtype=complex)
    feats[:n_per, 0] = 1.0
    feats[n_per:, 1] = 1.0
    feats += 0.05 * (
        r.standard_normal((2 * n_per, 4)) + 1j * r.standard_normal((2 * n_per, 4))
    )
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    labels = np.array([0] * n_per + [1] * n_per)
    return FeatureDataset(feats, labels, 2)


def test_gradients_match_finite_differences():
    rng = Rng(9)
    weights = [
        (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 3.0
        for _ in range(2)
    ]
    model = ComplexMlp(weights, bias=0.05)
    x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    labels = np.array([0, 1, 2, 3, 0, 1])
    temp = 37.0
    loss, grads = _loss_and_grads(model, x, labels, temp=temp)
    eps = 1e-6
    for k in range(2):
        for idx in [(0, 0), (1, 2), (3, 3)]:
            for delta, pick in ((eps, np.real), (1j * eps, np.imag)):
                model.weights[k][idx] += delta
                up, _ = _loss_and_grads(model, x, labels, temp=temp)
                model.weights[k][idx] -= 2 * delta
                down, _ = _loss_and_grads(model, x, labels, temp=temp)
                model.weights[k][idx] += delta
                fd = (up - down) / (2 * eps)
                analytic = 2.0 * pick(grads[k][idx])
                assert fd == pytest.approx(analytic, abs=1e-6)


def test_activation_threshold():
    model = ComplexMlp([np.eye(2, dtype=complex)], bias=0.5)
    z = np.array([0.3 + 0.0j, 1.0 + 0.0j])
    out = model.activation(z)
    assert out[0] == 0.0  # below threshold: dark
    assert out[1] == pytest.approx(0.5 + 0.0j)  # magnitude reduced by b


def test_trainer_on_separable_toy_task():
    dataset = _toy_two_class()
    result = train_reference((4, 1), dataset, epochs=200, rng=Rng(1))
    assert result.train_accuracy_pct >= 99.0
    assert result.converged


def test_trainer_bounds_spectral_norm():
    dataset = _toy_two_class()
    result = train_reference((4, 1), dataset, epochs=50, rng=Rng(2))
    top = np.linalg.svd(result.model.weights[0], compute_uv=False)[0]
    assert top <= 1.0 + 1e-9


def test_trainer_rejects_bad_shapes():
    dataset = _toy_two_class()
    with pytest.raises(ValueError):
        train_reference((8, 1), dataset, epochs=1)  # feature length mismatch


def test_accuracy_eval_zero_loss_equals_ideal_for_any_model():
    dataset = _toy_two_class()
    rng = Rng(4)
    weights = [
        2.0 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        for _ in range(2)
    ]
    model = ComplexMlp(weights, bias=0.1)
    ideal = 100.0 * float(np.mean(model.predict(dataset.features) == dataset.labels))
    hw = accuracy_eval(
        model, dataset, params_with_alphas(0.0, 0.0, 0.0), crosstalk=False
    )
    assert hw.accuracy_pct == ideal


def test_loss_sweep_zero_point_is_nominal():
    dataset = _toy_two_class()
    model = train_reference((4, 1), dataset, epochs=100, rng=Rng(1)).model
    results = loss_sweep(model, dataset, "alpha_l_db", [0.0, 0.2])
    nominal = accuracy_eval(
        model, dataset, params_with_alphas(0.0, 0.0, 0.0), crosstalk=False
    ).accuracy_pct
    assert results[0].accuracy_pct == nominal
    assert results[1].accuracy_pct <= results[0].accuracy_pct


def test_params_with_alphas_round_trip():
    p = params_with_alphas(0.3, 0.15, 0.09)
    assert p.alpha_l_db == 0.3
    assert p.alpha_m_db == 0.15
    assert p.propagation_db == pytest.approx(0.09)


def test_expected_alpha_ranges_ordering():
    for lo, hi in EXPECTED_ALPHA_RANGES.values():
        assert 0.0 < lo < hi


def test_port_statistics_conventions():
    avg, worst = port_statistics([1.0, 2.0, 3.0], kind="loss_db")
    assert (avg, worst) == (2.0, 3.0)
    avg, worst = port_statistics([0.0, 10.0], kind="power_dbm")
    assert worst == 10.0
    assert avg == pytest.approx(10.0 * math.log10((1.0 + 10.0) / 2.0))
    avg, worst = port_statistics([3.0, 1.0], kind="margin_db")
    assert (avg, worst) == (2.0, 1.0)
    with pytest.raises(ValueError):
        port_statistics([1.0], kind="bogus")


def test_power_penalty_without_crosstalk_is_sensitivity_plus_il():
    n = 4
    p = MziParams(xb_db=-300.0, xc_db=-300.0, xtalk_sigma_frac=0.0)
    layers = [compile_layer(Rng(6).standard_normal((n, n)))]
    spec = NetworkSpec(layers, p)
    res = network_cascade(spec, rng=None)
    report = power_penalty(spec, res, mode="worst")
    np.testing.assert_allclose(
        report.per_port_penalty_dbm,
        spec.photodetector_sensitivity_dbm + report.il_db,
        atol=1e-9,
    )
    assert not report.infeasible.any()


def test_power_penalty_never_below_loss_line():
    n = 4
    p = MziParams()
    layers = [compile_layer(Rng(7).standard_normal((n, n)))]
    spec = NetworkSpec(layers, p)
    res = network_cascade(spec, rng=Rng(8), leak_birth="nominal")
    for mode in ("average", "worst"):
        report = power_penalty(spec, res, mode=mode)
        floor = spec.photodetector_sensitivity_dbm + report.il_db
        assert np.all(report.per_port_penalty_dbm >= floor - 1e-12)
    with pytest.raises(ValueError):
        power_penalty(spec, res, mode="median")


def test_network_statistics_shape_and_reproducibility():
    p = MziParams()
    a = network_statistics(4, 1, p, trials=3, seed=5)
    b = network_statistics(4, 1, p, trials=3, seed=5)
    assert a == b
    assert a.n == 4 and a.m == 1 and a.trials == 3


def test_dark_ideal_port_has_nan_insertion_loss():
    """diag(1, 0) leaves port 1 dark in the ideal network: its IL is NaN,
    not a ratio against an ideal power of ~1e-33, and port 0 is unchanged."""
    p = MziParams()
    layout = compile_layer(np.diag([1.0, 0.0]))
    spec = NetworkSpec([layout], p)
    x = spec.launch_field()
    for gain in (False, True):
        ratios = _il_ratios([layout], p, x, include_gain=gain)
        lossy = propagate_signal(layout, p, x, "lossy", include_gain=gain)
        ideal = propagate_signal(layout, p, x, "ideal")
        assert np.isnan(ratios[1])
        assert ratios[0] == np.abs(lossy[0]) ** 2 / np.abs(ideal[0]) ** 2
    il = insertion_loss_per_port([layout], p)
    assert np.isnan(il[1]) and np.isfinite(il[0])
    res = network_cascade(spec, x, rng=Rng(1), leak_birth="nominal")
    report = power_penalty(spec, res, x=x)
    assert np.isnan(report.il_db[1]) and np.isnan(report.per_port_penalty_dbm[1])
    assert np.isfinite(report.per_port_penalty_dbm[0])
