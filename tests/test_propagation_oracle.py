"""Differential tests of the propagation engine.

The adjoint engine in :mod:`spnn.propagation` (forward signal pass, one
backward pass over the suffix transfer) is compared with the per-MZI
forward-push oracle in ``oracle_propagation.py`` on identically seeded
streams, and its final suffix with the oracle's lossy transfer matrix; the
blocked leak resolution is compared with the one-shot formula.
"""

import math

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
    spec = NetworkSpec(_layers(n, m, seed), params, input_power_dbm=1.5)
    x = None if launch else _field(n, samples, seed)
    res = network_cascade(spec, x, rng=_rng(rng_seed), leak_birth=leak_birth)
    ref = oracle.network_cascade(spec, x, rng=_rng(rng_seed), leak_birth=leak_birth)
    _assert_agrees(res, ref)


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
    _assert_agrees(res, ref)


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


@pytest.mark.parametrize("samples", [None, 5])
def test_blocked_resolution_is_bit_identical_to_one_shot(samples, monkeypatch):
    (layout,) = _layers(7, 1, 21)
    x = _field(7, samples, 21)
    res = propagate_with_crosstalk(layout, PARAMS[0], x, rng=Rng(4))
    leaks = res.leak_fields
    rho = Rng(8).uniform(0.0, 2.0 * math.pi, size=leaks.shape)
    expected = res.signal + np.sum(np.abs(leaks) * np.exp(1j * rho), axis=1)
    for rows in (1, 3, 7):
        monkeypatch.setattr(propagation, "_RESOLVE_BLOCK_BYTES", rows * leaks[0].nbytes)
        got = resolve_crosstalk_fields(res, Rng(8))
        assert got.tobytes() == expected.tobytes()
