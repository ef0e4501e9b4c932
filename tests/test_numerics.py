"""Numerics oracles: naive-loop matmul, direct DFT, SVD reconstruction,
and seeded-RNG reproducibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spnn.numerics import (
    Rng,
    db_to_field,
    db_to_power,
    fft2d,
    mw_to_dbm,
    power_to_db,
    random_unitary,
    svd,
    unitarity_residual,
)


def _triple_loop_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0 + 0.0j
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def _direct_dft2(img):
    rows, cols = img.shape
    out = np.zeros((rows, cols), dtype=complex)
    for u in range(rows):
        for v in range(cols):
            acc = 0.0 + 0.0j
            for r in range(rows):
                for c in range(cols):
                    acc += img[r, c] * np.exp(
                        -2j * np.pi * (u * r / rows + v * c / cols)
                    )
            out[u, v] = acc
    return out


def _pad_pow2_square(img):
    side = 1
    while side < max(img.shape):
        side *= 2
    padded = np.zeros((side, side), dtype=complex)
    padded[: img.shape[0], : img.shape[1]] = img
    return padded


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 4, 5), (8, 8, 8)])
def test_matmul_against_triple_loop(shape):
    rng = Rng(1)
    a = rng.standard_normal(shape[:2]) + 1j * rng.standard_normal(shape[:2])
    b = rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:])
    np.testing.assert_allclose(a @ b, _triple_loop_matmul(a, b), atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 4), (8, 8)])
def test_fft2d_against_direct_dft(shape):
    rng = Rng(2)
    img = rng.standard_normal(shape)
    padded = _pad_pow2_square(img)
    np.testing.assert_allclose(fft2d(img), _direct_dft2(padded), atol=1e-9)


def test_fft_round_trip():
    rng = Rng(3)
    img = rng.standard_normal((5, 7))
    np.testing.assert_allclose(
        np.fft.ifft2(fft2d(img)), _pad_pow2_square(img), atol=1e-12
    )


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_svd_reconstruction(n):
    rng = Rng(10 + n)
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, s, vh = svd(w)
    np.testing.assert_allclose(u @ np.diag(s) @ vh, w, atol=1e-10)
    assert unitarity_residual(u) < 1e-10
    assert unitarity_residual(vh) < 1e-10
    assert np.all(s >= 0)
    assert np.all(np.diff(s) <= 1e-12)  # non-increasing


@pytest.mark.parametrize("n", [2, 3, 8])
def test_random_unitary_is_unitary(n):
    u = random_unitary(n, Rng(5))
    assert unitarity_residual(u) < 1e-10


def test_rng_seed_reproducibility():
    a = Rng(42).standard_normal((4, 4))
    b = Rng(42).standard_normal((4, 4))
    assert a.tobytes() == b.tobytes()
    # Spawned streams differ from each other and from the parent.
    parent = Rng(42)
    c = parent.spawn(0).standard_normal(16)
    d = parent.spawn(1).standard_normal(16)
    assert not np.allclose(c, d)


@given(st.floats(min_value=0.0, max_value=60.0))
@settings(max_examples=50, deadline=None)
def test_db_bridges_are_consistent(loss_db):
    power = db_to_power(loss_db)
    field = db_to_field(loss_db)
    assert power == pytest.approx(field**2, rel=1e-12)
    assert power_to_db(power) == pytest.approx(loss_db, abs=1e-9)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_dbm_round_trip(p_mw):
    assert 10.0 ** (mw_to_dbm(p_mw) / 10.0) == pytest.approx(p_mw, rel=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_rng_uniform_bounds(seed):
    draws = Rng(seed).uniform(0.0, 2.0 * np.pi, 64)
    assert np.all(draws >= 0.0) and np.all(draws < 2.0 * np.pi)
