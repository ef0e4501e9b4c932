"""Analysis tests: gradient correctness against finite differences, the
reference trainer on a separable toy task, power-penalty arithmetic, and
dark-port handling."""

import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spnn import analysis, propagation
from spnn.analysis import (
    EXPECTED_ALPHA_RANGES,
    ComplexMlp,
    _il_ratios,
    _loss_and_grads,
    accuracy_eval,
    crosstalk_grid,
    joint_loss_sample,
    layer_statistics,
    loss_sweep,
    network_statistics,
    params_with_alphas,
    power_penalty,
    tolerance_search,
    train_reference,
)
from spnn.cli import main
from spnn.data import FeatureDataset
from spnn.device import MziParams
from spnn.mesh import compile_layer
from spnn.numerics import Rng
from spnn.propagation import (
    NetworkSpec,
    network_cascade,
    propagate_signal,
    propagate_with_crosstalk,
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
    results = loss_sweep(model, dataset, MziParams(), "alpha_l_db", [0.0, 0.2])
    nominal = accuracy_eval(
        model, dataset, params_with_alphas(0.0, 0.0, 0.0), crosstalk=False
    ).accuracy_pct
    assert results[0].accuracy_pct == nominal
    assert results[1].accuracy_pct <= results[0].accuracy_pct


def test_sweeps_compile_each_layer_once_and_match_accuracy_eval(monkeypatch):
    """Each study evaluates on the device it is given, with only the loss
    axes (and X_B / X_C on the grid) set by the study."""
    dataset = _toy_two_class()
    rng = Rng(6)
    w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    model = ComplexMlp([w, w.T])
    device = MziParams(kappa1=0.4, kappa2=0.6, xtalk_sigma_frac=0.3)

    def acc(*alphas):
        q = params_with_alphas(*alphas, base=device)
        return accuracy_eval(model, dataset, q).accuracy_pct

    grid = [0.0, 0.2, 0.4]
    per_point = [acc(v, 0.0, 0.0) for v in grid]
    # crosstalk_grid's cell (0, 0): losses at their expected minima.
    p = replace(
        params_with_alphas(0.1, 0.1, 0.03, base=device), xb_db=-25.0, xc_db=-18.0
    )
    cell = accuracy_eval(model, dataset, p, True, Rng(1).spawn(0, 0)).accuracy_pct
    compiled = []
    real = analysis.compile_layer
    monkeypatch.setattr(
        analysis, "compile_layer", lambda w: compiled.append(w) or real(w)
    )
    swept = loss_sweep(model, dataset, device, "alpha_l_db", grid)
    assert [r.accuracy_pct for r in swept] == per_point
    xgrid = crosstalk_grid(model, dataset, device, [-25.0], [-18.0], Rng(1))
    assert xgrid[0, 0] == cell
    rows = joint_loss_sample(model, dataset, device, 3, Rng(2))
    limits = tolerance_search(model, dataset, device, 5.0)
    assert len(compiled) == 4 * len(model.weights)
    monkeypatch.undo()
    assert [row[3] for row in rows] == [acc(*row[:3]) for row in rows]
    floor = acc(0.0, 0.0, 0.0) - 5.0
    for key, limit in limits.items():
        alphas = (limit if k == key else 0.0 for k in EXPECTED_ALPHA_RANGES)
        assert acc(*alphas) >= floor


def test_crosstalk_accuracy_holds_one_magnitude_bank_at_a_time(monkeypatch):
    """A 2-layer crosstalk evaluation peaks (numpy reports its allocations
    to tracemalloc) below 1.5x one layer's float64 leak bank: the bank holds
    magnitudes, and a layer's bank is freed before the next layer's pass.
    A complex bank alone would be 2x, two float banks at once 2x. Resolve's
    phase temporaries are bounded by ``_RESOLVE_BLOCK_BYTES``, not by the
    bank; one row per block keeps them small next to it."""
    n, samples = 24, 48
    r = Rng(12)
    model = ComplexMlp(
        [r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)) for _ in range(2)]
    )
    feats = r.standard_normal((samples, n)) + 1j * r.standard_normal((samples, n))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    dataset = FeatureDataset(feats, np.arange(samples) % 8, 8)
    res = propagate_with_crosstalk(
        compile_layer(model.weights[0]), MziParams(), feats.T, rng=Rng(1)
    )
    assert res.leak_fields.dtype == np.float64
    bank_bytes = res.leak_fields.nbytes
    assert bank_bytes == n * n * (n - 1) * samples * 8
    del res
    monkeypatch.setattr(propagation, "_RESOLVE_BLOCK_BYTES", 1)
    tracemalloc.start()
    try:
        accuracy_eval(model, dataset, MziParams(), crosstalk=True, rng=Rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * bank_bytes


def test_params_with_alphas_round_trip():
    p = params_with_alphas(0.3, 0.15, 0.09)
    assert p.alpha_l_db == 0.3
    assert p.alpha_m_db == 0.15
    assert p.propagation_db == pytest.approx(0.09)


def test_loss_studies_reject_a_device_of_zero_length():
    with pytest.raises(ValueError, match="l_mzi_um > 0"):
        params_with_alphas(0.1, 0.1, 0.0, base=MziParams(l_mzi_um=0.0))


def test_expected_alpha_ranges_ordering():
    for lo, hi in EXPECTED_ALPHA_RANGES.values():
        assert 0.0 < lo < hi


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


def _ensemble_results(out_dir):
    p = MziParams()
    args = ["layer-stats", "--set", "n=4", "--set", "trials=7", "--seed", "2"]
    assert main(args + ["--out", out_dir]) == 0
    with open(os.path.join(out_dir, "layer-stats.csv"), "rb") as fh:
        csv_bytes = fh.read()
    return (
        layer_statistics(4, p, trials=7, seed=5),
        network_statistics(4, 2, p, trials=5, seed=9),
        csv_bytes,
    )


def test_ensemble_statistics_do_not_depend_on_the_compile_group(monkeypatch, tmp_path):
    """Trials compile in groups, each trial's weights drawn from its own
    stream first; compiling draws nothing and each matrix compiles as it
    would alone, so the results and the layer-stats CSV are bit-identical
    for every group size."""
    want = _ensemble_results(str(tmp_path / "default"))
    for group in (1, 3):
        monkeypatch.setattr(analysis, "_COMPILE_GROUP", group)
        assert _ensemble_results(str(tmp_path / str(group))) == want


def test_dark_ideal_port_has_nan_insertion_loss():
    """diag(1, 0) leaves port 1 dark in the ideal network: its IL is NaN,
    not a ratio against an ideal power of ~1e-33, and port 0 is unchanged.
    The penalty's average and worst skip the dark port."""
    p = MziParams()
    layout = compile_layer(np.diag([1.0, 0.0]))
    spec = NetworkSpec([layout], p)
    x = spec.launch_field()
    ideal = propagate_signal(layout, p, x, "ideal")
    # Without gain (one layer's crosstalk pass) and with it (the cascade).
    for res in (
        propagate_with_crosstalk(layout, p, x, rng=Rng(1)),
        network_cascade(spec, x, rng=Rng(1), leak_birth="nominal"),
    ):
        ratios = _il_ratios(res, [layout], p, x)
        lossy = res.transfer @ x
        assert np.isnan(ratios[1])
        assert ratios[0] == np.abs(lossy[0]) ** 2 / np.abs(ideal[0]) ** 2
    for mode in ("average", "worst"):
        report = power_penalty(spec, res, mode=mode, x=x)
        assert np.isnan(report.il_db[1]) and np.isnan(report.per_port_penalty_dbm[1])
        assert np.isfinite(report.per_port_penalty_dbm[0])
        assert report.avg_dbm == report.worst_dbm == report.per_port_penalty_dbm[0]
    # Light on port 1 only reaches no ideal output: every port is dark.
    dark = np.array([0.0, 1.0], dtype=complex)
    res = network_cascade(spec, dark, rng=Rng(1), leak_birth="nominal")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = power_penalty(spec, res, x=dark)
    assert np.isnan(report.il_db).all()
    assert np.isnan(report.avg_dbm) and np.isnan(report.worst_dbm)
