"""Mesh compilation tests: Clements decomposition round trips, placement
counts and depth, attenuator mapping, and layout JSON serialization."""

import math

import numpy as np
import pytest

from spnn.mesh import (
    LayerLayout,
    clements_decompose,
    clements_reconstruct,
    compile_layer,
    diagonal_to_attenuators,
    layout_from_json,
    layout_to_json,
    lossless_cell,
    lossless_cells,
)
from spnn.numerics import Rng, random_unitary


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_decompose_reconstruct_round_trip(n):
    u = random_unitary(n, Rng(n))
    mesh, screen = clements_decompose(u)
    rebuilt = clements_reconstruct(mesh, n, screen)
    assert np.max(np.abs(rebuilt - u)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_placement_count_and_depth(n):
    u = random_unitary(n, Rng(100 + n))
    mesh, _ = clements_decompose(u)
    assert len(mesh) == n * (n - 1) // 2
    depth = max(pl.column for pl in mesh) + 1
    assert depth == (n if n > 2 else n - 1)


def test_phase_ranges():
    u = random_unitary(6, Rng(9))
    mesh, screen = clements_decompose(u)
    for pl in mesh:
        assert 0.0 <= pl.phases.theta <= math.pi + 1e-12
        assert 0.0 <= pl.phases.phi < 2.0 * math.pi + 1e-12
    assert screen.shape == (6,)


def test_no_two_mzis_share_a_waveguide_in_a_column():
    u = random_unitary(8, Rng(11))
    mesh, _ = clements_decompose(u)
    seen = set()
    for pl in mesh:
        for row in (pl.top_row, pl.top_row + 1):
            assert (pl.column, row) not in seen
            seen.add((pl.column, row))


def test_decompose_rejects_non_unitary():
    w = Rng(1).standard_normal((4, 4))
    with pytest.raises(ValueError):
        clements_decompose(w)


def test_lossless_cell_matches_reconstruction_convention():
    theta, phi = 0.9, 2.3
    cell = lossless_cell(theta, phi)
    # Unitary and with the expected |entries| from the half-angle form.
    assert np.max(np.abs(cell @ cell.conj().T - np.eye(2))) < 1e-12
    assert abs(cell[0, 0]) == pytest.approx(math.sin(theta / 2.0))
    assert abs(cell[0, 1]) == pytest.approx(math.cos(theta / 2.0))


def test_lossless_cells_on_arrays_equal_per_cell():
    r = Rng(4)
    theta = r.uniform(0.0, math.pi, 9)
    phi = r.uniform(0.0, 2.0 * math.pi, 9)
    cells = lossless_cells(theta, phi)
    assert cells.shape == (9, 2, 2)
    for k in range(9):
        assert cells[k].tobytes() == lossless_cell(theta[k], phi[k]).tobytes()


def test_diagonal_to_attenuators_normalizes_to_unity():
    s = np.array([3.0, 2.0, 0.5])
    stage, s_max = diagonal_to_attenuators(s)
    assert s_max == pytest.approx(3.0)
    realized = [math.sin(pl.phases.theta / 2.0) for pl in stage]
    np.testing.assert_allclose(sorted(realized, reverse=True), s / s_max, atol=1e-12)
    assert max(realized) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_compile_layer_counts_and_deficit(n):
    w = Rng(n).standard_normal((n, n)) + 1j * Rng(n + 1).standard_normal((n, n))
    layout = compile_layer(w)
    assert len(layout.v_mesh) == len(layout.u_mesh) == n * (n - 1) // 2
    assert len(layout.sigma_stage) == n
    top = np.linalg.svd(w, compute_uv=False)[0]
    assert layout.s_max == pytest.approx(top, rel=1e-12)
    assert layout.sigma_deficit_db() == pytest.approx(-20.0 * math.log10(top))


def test_compile_layer_rejects_non_square():
    with pytest.raises(ValueError):
        compile_layer(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compile_layer_rejects_non_finite_weights(bad):
    w = Rng(3).standard_normal((4, 4))
    w[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        compile_layer(w)


def test_layout_json_round_trip():
    w = Rng(5).standard_normal((4, 4)) + 1j * Rng(6).standard_normal((4, 4))
    layout = compile_layer(w, gain_db=12.0, nau_loss_db=0.5)
    rebuilt = layout_from_json(layout_to_json(layout))
    assert rebuilt.n == layout.n
    assert rebuilt.s_max == pytest.approx(layout.s_max, rel=1e-15)
    assert rebuilt.gain_db == layout.gain_db
    assert rebuilt.nau_loss_db == layout.nau_loss_db
    np.testing.assert_allclose(rebuilt.v_screen, layout.v_screen, atol=1e-15)
    np.testing.assert_allclose(rebuilt.u_screen, layout.u_screen, atol=1e-15)
    for a, b in zip(
        rebuilt.v_mesh + rebuilt.sigma_stage + rebuilt.u_mesh,
        layout.v_mesh + layout.sigma_stage + layout.u_mesh,
    ):
        assert (a.column, a.top_row, a.role) == (b.column, b.top_row, b.role)
        assert a.phases.theta == pytest.approx(b.phases.theta, abs=1e-15)
        assert a.phases.phi == pytest.approx(b.phases.phi, abs=1e-15)


def test_layer_layout_validates_mesh_sizes():
    w = Rng(5).standard_normal((4, 4))
    layout = compile_layer(w)
    with pytest.raises(ValueError):
        LayerLayout(
            n=4,
            v_mesh=layout.v_mesh[:-1],  # one MZI short
            v_screen=layout.v_screen,
            sigma_stage=layout.sigma_stage,
            s_max=layout.s_max,
            u_mesh=layout.u_mesh,
            u_screen=layout.u_screen,
        )
