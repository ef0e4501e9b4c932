"""Mesh compilation tests: Clements decomposition round trips, MZI counts
and depth, attenuator mapping, layout JSON serialization, and rejection of
malformed layouts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_clements as oracle
from spnn.mesh import (
    LayerLayout,
    Mesh,
    clements_decompose,
    clements_reconstruct,
    compile_layer,
    compile_layers,
    diagonal_to_attenuators,
    layout_from_json,
    layout_to_json,
    lossless_cells,
)
from spnn.numerics import Rng, random_unitary


def _random(n):
    return random_unitary(n, Rng(n))


_DEGENERATE = {
    "identity": lambda n: np.eye(n),
    "reversal": lambda n: np.eye(n)[::-1],
    "shift": lambda n: np.roll(np.eye(n), 1, axis=0),
    "phases": lambda n: np.diag(np.exp(1j * Rng(n).uniform(0.0, 2.0 * math.pi, n))),
}


# Permutations and diagonals reach the bar- and cross-like branches of the
# push through the diagonal and the zero-amplitude returns of the nullings.
@pytest.mark.parametrize(
    "n, make",
    [pytest.param(n, _random, id=str(n)) for n in (2, 3, 4, 8)]
    + [
        pytest.param(n, make, id=f"{kind}-{n}")
        for kind, make in _DEGENERATE.items()
        for n in (2, 3, 4, 7)
    ],
)
def test_decompose_reconstruct_round_trip(n, make):
    u = make(n)
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


@given(n=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
def test_decompose_matches_dense_oracle(n, seed):
    u = random_unitary(n, Rng(seed))
    mesh, screen = clements_decompose(u)
    want, want_screen = oracle.clements_decompose(u)
    np.testing.assert_array_equal(mesh.column, want.column)
    np.testing.assert_array_equal(mesh.row, want.row)
    np.testing.assert_allclose(mesh.theta, want.theta, rtol=0, atol=1e-9)
    # phi wraps at 2*pi, so phases are compared as phasors.
    for got, ref in ((mesh.phi, want.phi), (screen, want_screen)):
        np.testing.assert_allclose(
            np.exp(1j * got), np.exp(1j * ref), rtol=0, atol=1e-9
        )


@given(
    n=st.integers(2, 20),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
)
def test_stacked_decompose_matches_scalar_and_dense_oracles(n, seeds):
    us = np.array([random_unitary(n, Rng(seed)) for seed in seeds])
    meshes, screens = clements_decompose(us)
    assert len(meshes) == len(seeds) and screens.shape == (len(seeds), n)
    for u, mesh, screen in zip(us, meshes, screens):
        for oracle_decompose, tol in (
            (oracle.scalar_decompose, 1e-12),
            (oracle.clements_decompose, 1e-9),
        ):
            want, want_screen = oracle_decompose(u)
            np.testing.assert_array_equal(mesh.column, want.column)
            np.testing.assert_array_equal(mesh.row, want.row)
            np.testing.assert_allclose(mesh.theta, want.theta, rtol=0, atol=tol)
            # phi wraps at 2*pi, so phases are compared as phasors.
            for got, ref in ((mesh.phi, want.phi), (screen, want_screen)):
                np.testing.assert_allclose(
                    np.exp(1j * got), np.exp(1j * ref), rtol=0, atol=tol
                )


def _same_mesh(got: Mesh, want: Mesh) -> bool:
    return all(
        getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("column", "row", "theta", "phi")
    )


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_degenerate_members_take_their_branches_per_element(n):
    """Permutations and diagonals, stacked between random unitaries, reach
    the bar- and cross-like folds and the zero-amplitude nullings while
    their neighbours take the general branches. Every member decomposes
    exactly as it does alone."""
    kinds = [_random(n), *(make(n) for make in _DEGENERATE.values())]
    us = np.array(kinds + [random_unitary(n, Rng(50 + n))] + kinds[::-1])
    meshes, screens = clements_decompose(us)
    for u, mesh, screen in zip(us, meshes, screens):
        alone, alone_screen = clements_decompose(u)
        assert _same_mesh(mesh, alone)
        assert screen.tobytes() == alone_screen.tobytes()
        rebuilt = clements_reconstruct(mesh, n, screen)
        assert np.max(np.abs(rebuilt - u)) < 1e-9


def test_compile_layers_equals_each_matrix_compiled_alone():
    ws = Rng(3).standard_normal((5, 6, 6)) + 1j * Rng(4).standard_normal((5, 6, 6))
    ws[2] = np.eye(6)  # a degenerate member among general ones
    for w, layout in zip(ws, compile_layers(ws, gain_db=12.0, nau_loss_db=0.5)):
        alone = compile_layer(w, gain_db=12.0, nau_loss_db=0.5)
        assert layout_to_json(layout) == layout_to_json(alone)
        for name in ("v_mesh", "sigma_stage", "u_mesh"):
            assert _same_mesh(getattr(layout, name), getattr(alone, name))
        for name in ("v_screen", "u_screen"):
            assert getattr(layout, name).tobytes() == getattr(alone, name).tobytes()


def test_stack_errors_name_the_member():
    ws = Rng(8).standard_normal((8, 4, 4))
    ws[3, 1, 2] = np.nan
    with pytest.raises(ValueError, match=r"NaN or inf \(matrix 3 of 8\)"):
        compile_layers(ws)
    us = np.array([random_unitary(4, Rng(k)) for k in range(5)])
    us[2, 0, 0] += 1e-3
    with pytest.raises(ValueError, match=r"not unitary.*\(matrix 2 of 5\)"):
        clements_decompose(us)
    with pytest.raises(ValueError, match="stack of square matrices"):
        compile_layers(np.ones((4, 4)))


def test_compiled_meshes_share_one_read_only_schedule_per_n():
    a, b = compile_layers(Rng(9).standard_normal((2, 5, 5)))
    assert a.u_mesh.column is a.v_mesh.column is b.u_mesh.column
    assert a.u_mesh.row is b.v_mesh.row
    alone = compile_layer(Rng(10).standard_normal((5, 5)))
    assert alone.v_mesh.column is a.u_mesh.column
    with pytest.raises(ValueError, match="read-only"):
        a.u_mesh.column[0] = 3


def test_decompose_rejects_non_unitary():
    w = Rng(1).standard_normal((4, 4))
    with pytest.raises(ValueError):
        clements_decompose(w)


def test_lossless_cell_matches_reconstruction_convention():
    theta, phi = 0.9, 2.3
    cell = lossless_cells(theta, phi)
    assert cell.shape == (2, 2)
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
        assert cells[k].tobytes() == lossless_cells(theta[k], phi[k]).tobytes()


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


def _rows_not_adjacent(doc):
    _first_mzi(doc)["rows"] = [0, 3]


def _one_phase_screen(doc):
    doc["v_mesh"]["phase_screen"] = [0.3]  # one phase for four ports


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
        (_rows_not_adjacent, "consecutive"),
        (_one_phase_screen, "one phase per port"),
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
