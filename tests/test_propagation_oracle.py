"""Differential tests of the propagation engine.

The adjoint engine in :mod:`spnn.propagation` (forward signal pass, one
backward pass over the suffix transfer) is compared with the per-MZI
forward-push oracle in ``oracle_propagation.py`` on identically seeded
streams, and its final suffix with the oracle's lossy transfer matrix; the
blocked leak resolution is compared with the one-shot formula. The public
results keep only leak magnitudes, so the complex leak amplitudes are read
from the pass's own column generator, and the public leak bank is checked
to be their magnitude bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_propagation as oracle
from spnn import propagation
from spnn.device import MziParams
from spnn.mesh import compile_layer
from spnn.numerics import Rng
from spnn.propagation import (
    PropagationResult,
    NetworkSpec,
    network_cascade,
    propagate_signal,
    propagate_with_crosstalk,
    resolve_crosstalk_fields,
    transfer_matrix,
)

REL = 1e-12
PARAMS = (MziParams(), MziParams(kappa1=0.45, alpha_l_db=0.3, xb_db=-22.0))


def _layers(n, m, seed):
    r = Rng(seed)
    return [
        compile_layer(r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)))
        for _ in range(m)
    ]


def _field(n, samples, seed):
    r = Rng(seed + 1)
    shape = (n,) if samples is None else (n, samples)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


def _rng(seed):
    return None if seed is None else Rng(seed)


def _complex_pass(layers, p, x, rng, leak_birth, include_gain):
    """The crosstalk pass with its complex mapped leaks kept: the signal,
    every column's amplitudes from ``propagation._mapped_leaks`` stacked
    into an (N, K[, S]) bank, and the final suffix transfer."""
    signal = np.array(x, dtype=complex)
    n = signal.shape[0]
    rows = signal.reshape(n, -1)
    k_total = sum(len(lay.v_mesh) + len(lay.u_mesh) for lay in layers)
    bank = np.full((n, k_total, rows.shape[1]), np.nan, dtype=complex)
    suffix_t = np.eye(n, dtype=complex)
    for slots, mapped in propagation._mapped_leaks(
        layers, p, rows, rng, leak_birth, include_gain, suffix_t
    ):
        bank[:, slots] = mapped.transpose(1, 0, 2)
    leaks = bank.reshape((n, k_total) + signal.shape[1:])
    return PropagationResult(signal, leaks, suffix_t.T)


def _assert_is_magnitude_of(res, kept):
    """``res`` holds exactly the signal, the transfer and the magnitudes of
    the complex leaks the column generator yields on the same stream."""
    assert res.leak_fields.dtype == np.float64
    assert res.leak_fields.tobytes() == np.abs(kept.leak_fields).tobytes()
    assert res.signal.tobytes() == kept.signal.tobytes()
    assert res.transfer.tobytes() == kept.transfer.tobytes()


def _assert_agrees(res, ref):
    """Signal per sample and each source column's leaks (per sample) to
    REL of their largest magnitude; the transfer, which the oracle forms
    with ``oracle.transfer_matrix``, to REL of its largest magnitude."""
    assert res.leak_fields.shape == ref.leak_fields.shape
    sig_scale = np.max(np.abs(ref.signal), axis=0)
    assert np.all(np.abs(res.signal - ref.signal) <= REL * sig_scale)
    leak_scale = np.max(np.abs(ref.leak_fields), axis=0)
    assert np.all(np.abs(res.leak_fields - ref.leak_fields) <= REL * leak_scale)
    transfer_scale = np.max(np.abs(ref.transfer))
    assert np.all(np.abs(res.transfer - ref.transfer) <= REL * transfer_scale)


@settings(max_examples=60)
@given(
    n=st.integers(2, 8),
    m=st.integers(1, 3),
    samples=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 10_000),
    rng_seed=st.one_of(st.none(), st.integers(0, 10_000)),
    leak_birth=st.sampled_from(["physical", "nominal"]),
    params=st.sampled_from(PARAMS),
    launch=st.booleans(),
)
def test_network_cascade_matches_forward_push_oracle(
    n, m, samples, seed, rng_seed, leak_birth, params, launch
):
    spec = NetworkSpec(_layers(n, m, seed), params)
    x = None if launch else _field(n, samples, seed)
    res = network_cascade(spec, x, rng=_rng(rng_seed), leak_birth=leak_birth)
    ref = oracle.network_cascade(spec, x, rng=_rng(rng_seed), leak_birth=leak_birth)
    kept = _complex_pass(
        spec.layers,
        params,
        spec.launch_field() if x is None else x,
        _rng(rng_seed),
        leak_birth,
        include_gain=True,
    )
    _assert_agrees(kept, ref)
    _assert_is_magnitude_of(res, kept)


@settings(max_examples=60)
@given(
    n=st.integers(2, 8),
    samples=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 10_000),
    rng_seed=st.one_of(st.none(), st.integers(0, 10_000)),
    leak_birth=st.sampled_from(["physical", "nominal"]),
    params=st.sampled_from(PARAMS),
)
def test_propagate_with_crosstalk_matches_forward_push_oracle(
    n, samples, seed, rng_seed, leak_birth, params
):
    (layout,) = _layers(n, 1, seed)
    x = _field(n, samples, seed)
    res = propagate_with_crosstalk(
        layout, params, x, rng=_rng(rng_seed), leak_birth=leak_birth
    )
    ref = oracle.propagate_with_crosstalk(
        layout, params, x, rng=_rng(rng_seed), leak_birth=leak_birth
    )
    kept = _complex_pass(
        [layout], params, x, _rng(rng_seed), leak_birth, include_gain=False
    )
    _assert_agrees(kept, ref)
    _assert_is_magnitude_of(res, kept)


@pytest.mark.parametrize("mode", ["ideal", "lossy"])
def test_signal_passes_match_oracle_exactly(mode):
    layers = _layers(6, 2, 11)
    x = _field(6, 4, 11)
    np.testing.assert_array_equal(
        propagate_signal(layers[0], PARAMS[1], x, mode),
        oracle.propagate_signal(layers[0], PARAMS[1], x, mode),
    )
    np.testing.assert_array_equal(
        transfer_matrix(layers, PARAMS[1], mode),
        oracle.transfer_matrix(layers, PARAMS[1], mode),
    )


# --------------------------------------------------------------------------
# Batch-size independence
# --------------------------------------------------------------------------

@pytest.mark.parametrize("leak_birth", ["physical", "nominal"])
def test_batched_samples_equal_single_sample_runs(leak_birth):
    layers = _layers(8, 2, 31)
    spec = NetworkSpec(layers, PARAMS[1])
    x = _field(8, 4, 31)
    runs = (
        lambda xs, rng: propagate_with_crosstalk(
            layers[0], PARAMS[1], xs, rng=rng, leak_birth=leak_birth
        ),
        lambda xs, rng: network_cascade(spec, xs, rng=rng, leak_birth=leak_birth),
    )
    for run in runs:
        batch = run(x, Rng(9))
        for s in range(x.shape[1]):
            single = run(x[:, s], Rng(9))
            for got, ref in (
                (batch.signal[:, s], single.signal),
                (batch.leak_fields[..., s], single.leak_fields),
                (batch.transfer, single.transfer),
            ):
                assert np.all(np.abs(got - ref) <= REL * np.max(np.abs(ref)))


def test_unknown_mode_and_leak_birth_rejected():
    (layout,) = _layers(2, 1, 0)
    with pytest.raises(ValueError, match="mode"):
        propagate_signal(layout, PARAMS[0], np.ones(2), mode="exact")
    with pytest.raises(ValueError, match="leak_birth"):
        propagate_with_crosstalk(layout, PARAMS[0], np.ones(2), leak_birth="x")


# --------------------------------------------------------------------------
# Blocked leak resolution
# --------------------------------------------------------------------------

def test_row_blocked_phase_draws_consume_the_stream_like_one_shot():
    shape = (32, 992, 180)  # the bank of an N=32 layer over 180 samples
    one_shot = Rng(5).uniform(0.0, 2.0 * math.pi, size=shape)
    rng = Rng(5)
    blocks = [
        rng.uniform(0.0, 2.0 * math.pi, size=(min(3, 32 - lo),) + shape[1:])
        for lo in range(0, 32, 3)
    ]
    assert np.array_equal(np.concatenate(blocks), one_shot)


def _float32_phasor_resolve(res, rho):
    """The resolve formula in one shot: float32 cos and sin of the float64
    phases, weighted and summed over the components in float64."""
    rho32 = rho.astype(np.float32)
    out = res.signal.astype(complex)
    out.real += np.sum(res.leak_fields * np.cos(rho32), axis=1)
    out.imag += np.sum(res.leak_fields * np.sin(rho32), axis=1)
    return out


@pytest.mark.parametrize("samples", [None, 5])
def test_blocked_resolution_is_bit_identical_to_one_shot(samples, monkeypatch):
    (layout,) = _layers(7, 1, 21)
    x = _field(7, samples, 21)
    res = propagate_with_crosstalk(layout, PARAMS[0], x, rng=Rng(4))
    leaks = res.leak_fields
    rho = Rng(8).uniform(0.0, 2.0 * math.pi, size=leaks.shape)
    expected = _float32_phasor_resolve(res, rho)
    for rows in (1, 3, 7):
        monkeypatch.setattr(propagation, "_RESOLVE_BLOCK_BYTES", rows * leaks[0].nbytes)
        got = resolve_crosstalk_fields(res, Rng(8))
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("samples", [None, 5])
def test_resolution_matches_float64_phasors_to_float32_phase_granularity(samples):
    """The float32 phasors move each port's field from the float64 formula
    ``signal + sum(|a| exp(1j rho))`` by a few float32 ulps of each phase
    and phasor, so by well under 1e-6 of the summed magnitude sum(|a|)."""
    (layout,) = _layers(7, 1, 21)
    res = propagate_with_crosstalk(layout, PARAMS[0], _field(7, samples, 21), rng=Rng(4))
    leaks = res.leak_fields
    rho = Rng(8).uniform(0.0, 2.0 * math.pi, size=leaks.shape)
    float64 = res.signal + np.sum(leaks * np.exp(1j * rho), axis=1)
    got = resolve_crosstalk_fields(res, Rng(8))
    assert np.all(np.abs(got - float64) <= 1e-6 * np.sum(leaks, axis=1))


def test_default_block_resolve_peaks_below_three_blocks_above_the_bank():
    """One default-block resolve of an N=32 layer's bank over 180 samples
    (43.6 MB, two port rows per block) holds one float64 phase, its float32
    copy and one float32 cos or sin per magnitude of a block, and frees a
    block's phases before the next draw: about 2x the magnitude bytes a
    block may hold above the bank, at most 2.5x (numpy reports its
    allocations to tracemalloc)."""
    n, k, samples = 32, 32 * 31, 180
    leaks = np.abs(Rng(6).standard_normal((n, k, samples)))
    signal = np.ones((n, samples), dtype=complex)
    res = PropagationResult(signal, leaks, np.eye(n, dtype=complex))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        resolve_crosstalk_fields(res, Rng(7))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * propagation._RESOLVE_BLOCK_BYTES
