"""Mesh compilation tests: Clements decomposition round trips, MZI counts
and depth, attenuator mapping, layout JSON serialization, and rejection of
malformed layouts."""

import json
import math

import numpy as np
import pytest

from spnn.mesh import (
    LayerLayout,
    Mesh,
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
    assert mesh.column.max() + 1 == (n if n > 2 else n - 1)


def test_phase_ranges():
    u = random_unitary(6, Rng(9))
    mesh, screen = clements_decompose(u)
    assert np.all((0.0 <= mesh.theta) & (mesh.theta <= math.pi + 1e-12))
    assert np.all((0.0 <= mesh.phi) & (mesh.phi < 2.0 * math.pi + 1e-12))
    assert screen.shape == (6,)


def test_no_two_mzis_share_a_waveguide_in_a_column():
    u = random_unitary(8, Rng(11))
    mesh, _ = clements_decompose(u)
    seen = set()
    for col, top in zip(mesh.column.tolist(), mesh.row.tolist()):
        for row in (top, top + 1):
            assert (col, row) not in seen
            seen.add((col, row))
    assert np.all(np.diff(mesh.column) >= 0)  # light order


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
    np.testing.assert_array_equal(stage.row, np.arange(3))
    realized = np.sin(stage.theta / 2.0)
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
    text = layout_to_json(compile_layer(w, gain_db=12.0, nau_loss_db=0.5))
    assert layout_to_json(layout_from_json(text)) == text


def _truncated(mesh):
    return Mesh(mesh.column[:-1], mesh.row[:-1], mesh.theta[:-1], mesh.phi[:-1])


def test_layer_layout_validates_mesh_sizes():
    w = Rng(5).standard_normal((4, 4))
    layout = compile_layer(w)
    with pytest.raises(ValueError):
        LayerLayout(
            n=4,
            v_mesh=_truncated(layout.v_mesh),  # one MZI short
            v_screen=layout.v_screen,
            sigma_stage=layout.sigma_stage,
            s_max=layout.s_max,
            u_mesh=layout.u_mesh,
            u_screen=layout.u_screen,
        )


def _layout_doc():
    return json.loads(layout_to_json(compile_layer(Rng(7).standard_normal((4, 4)))))


def _first_mzi(doc):
    return doc["v_mesh"]["columns"][0]["placements"][0]


def _out_of_range_row(doc):
    _first_mzi(doc)["rows"] = [7, 8]


def _row_past_last_waveguide(doc):
    _first_mzi(doc)["rows"] = [3, 4]  # waveguide 4 does not exist for n=4


def _same_rows_in_column(doc):
    first, second = doc["v_mesh"]["columns"][0]["placements"][:2]
    second["rows"] = first["rows"]


def _shifted_into_neighbour(doc):
    # Column 0 holds rows [0, 1] and [2, 3]; [1, 2] shares waveguide 1.
    doc["v_mesh"]["columns"][0]["placements"][1]["rows"] = [1, 2]


def _duplicate_sigma_row(doc):
    doc["sigma_stage"]["placements"][3]["rows"] = [2]


def _missing_sigma_row(doc):
    doc["sigma_stage"]["placements"][3]["rows"] = [4]  # no attenuator on row 3


def _theta_above_pi(doc):
    _first_mzi(doc)["theta"] = math.pi + 1e-6


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_out_of_range_row, "out of range"),
        (_row_past_last_waveguide, "out of range"),
        (_same_rows_in_column, "share a waveguide"),
        (_shifted_into_neighbour, "share a waveguide"),
        (_duplicate_sigma_row, "attenuator k on row k"),
        (_missing_sigma_row, "attenuator k on row k"),
        (_theta_above_pi, "theta"),
    ],
)
def test_layout_from_json_rejects_malformed_layouts(corrupt, match):
    doc = _layout_doc()
    layout_from_json(json.dumps(doc))  # the untouched document loads
    corrupt(doc)
    with pytest.raises(ValueError, match=match):
        layout_from_json(json.dumps(doc))


def test_mesh_rejects_columns_out_of_light_order():
    with pytest.raises(ValueError, match="non-decreasing"):
        Mesh([1, 0], [0, 0], [0.5, 0.5], [0.0, 0.0])
