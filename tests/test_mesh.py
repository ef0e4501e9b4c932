"""Mesh compilation tests: Clements decomposition round trips, MZI
placements, counts and depth, attenuator mapping, layout JSON
serialization, and rejection of malformed layouts."""

import dataclasses
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
    _check_placements,
    _schedule,
    clements_decompose,
    clements_reconstruct,
    compile_layer,
    compile_layers,
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


def _assert_oracle_placements(want, n):
    """The oracle's own column and row equal the schedule of n."""
    sched = _schedule(n)
    np.testing.assert_array_equal(want.column, sched.column)
    np.testing.assert_array_equal(want.row, sched.row)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_placement_count_and_depth(n):
    u = random_unitary(n, Rng(100 + n))
    mesh, _ = clements_decompose(u)
    _assert_oracle_placements(oracle.clements_decompose(u)[0], n)
    assert len(mesh) == len(_schedule(n).column) == n * (n - 1) // 2
    assert _schedule(n).column.max() + 1 == (n if n > 2 else n - 1)


@pytest.mark.parametrize("k, n", [(3, 4), (4, 5), (4, 3)])
def test_reconstruct_rejects_a_mesh_of_another_port_count(k, n):
    mesh, _ = clements_decompose(random_unitary(k, Rng(k)))
    with pytest.raises(ValueError, match=f"expected {n * (n - 1) // 2} MZIs"):
        clements_reconstruct(mesh, n)


def test_phase_ranges():
    u = random_unitary(6, Rng(9))
    mesh, screen = clements_decompose(u)
    assert np.all((0.0 <= mesh.theta) & (mesh.theta <= math.pi + 1e-12))
    assert np.all((0.0 <= mesh.phi) & (mesh.phi < 2.0 * math.pi + 1e-12))
    assert screen.shape == (6,)


def test_no_two_mzis_share_a_waveguide_in_a_column():
    sched = _schedule(8)
    seen = set()
    for col, top in zip(sched.column.tolist(), sched.row.tolist()):
        for row in (top, top + 1):
            assert (col, row) not in seen
            seen.add((col, row))
    assert np.all(np.diff(sched.column) >= 0)  # light order
    # Each column's slice of light order holds that column's waveguide pairs.
    for c, (col, pairs) in enumerate(sched.columns):
        assert (sched.column[col] == c).all()
        np.testing.assert_array_equal(pairs[:, 0], sched.row[col])
        np.testing.assert_array_equal(pairs[:, 1], sched.row[col] + 1)


@pytest.mark.parametrize(
    "k, r, match",
    [
        (0, 7, "out of range"),
        (0, 3, "out of range"),  # waveguide 4 does not exist for n=4
        (1, 0, "share a waveguide"),  # on the rows of column 0's first MZI
        (1, 1, "share a waveguide"),  # [1, 2] shares waveguide 1 with [0, 1]
    ],
    ids=[
        "out_of_range_row",
        "row_past_last_waveguide",
        "same_rows_in_column",
        "shifted_into_neighbour",
    ],
)
def test_schedule_self_check_rejects_bad_placements(k, r, match):
    sched = _schedule(4)
    row = sched.row.copy()
    # Column 0 holds rows [0, 1] and [2, 3].
    assert sched.column[:2].tolist() == [0, 0] and row[:2].tolist() == [0, 2]
    _check_placements(sched.column, row, 4)
    row[k] = r
    with pytest.raises(ValueError, match=match):
        _check_placements(sched.column, row, 4)


@given(n=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
def test_decompose_matches_dense_oracle(n, seed):
    u = random_unitary(n, Rng(seed))
    mesh, screen = clements_decompose(u)
    want, want_screen = oracle.clements_decompose(u)
    _assert_oracle_placements(want, n)
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
            _assert_oracle_placements(want, n)
            np.testing.assert_allclose(mesh.theta, want.theta, rtol=0, atol=tol)
            # phi wraps at 2*pi, so phases are compared as phasors.
            for got, ref in ((mesh.phi, want.phi), (screen, want_screen)):
                np.testing.assert_allclose(
                    np.exp(1j * got), np.exp(1j * ref), rtol=0, atol=tol
                )


def _same_mesh(got: Mesh, want: Mesh) -> bool:
    return all(
        getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("theta", "phi")
    )


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_degenerate_members_take_their_branches_per_element(n):
    """Permutations and diagonals, stacked between random unitaries, reach
    the bar- and cross-like folds and the zero-amplitude nullings while
    their neighbours take the general branches. Every member decomposes
    exactly as it does alone, and as the scalar oracle folds it (phi' = 0
    on a bar- or cross-like fold)."""
    kinds = [_random(n), *(make(n) for make in _DEGENERATE.values())]
    us = np.array(kinds + [random_unitary(n, Rng(50 + n))] + kinds[::-1])
    meshes, screens = clements_decompose(us)
    for u, mesh, screen in zip(us, meshes, screens):
        alone, alone_screen = clements_decompose(u)
        assert _same_mesh(mesh, alone)
        assert screen.tobytes() == alone_screen.tobytes()
        want, want_screen = oracle.scalar_decompose(u)
        np.testing.assert_allclose(mesh.theta, want.theta, rtol=0, atol=1e-12)
        for got, ref in ((mesh.phi, want.phi), (screen, want_screen)):
            np.testing.assert_allclose(
                np.exp(1j * got), np.exp(1j * ref), rtol=0, atol=1e-12
            )
        rebuilt = clements_reconstruct(mesh, n, screen)
        assert np.max(np.abs(rebuilt - u)) < 1e-9


def test_compile_layers_equals_each_matrix_compiled_alone():
    ws = Rng(3).standard_normal((5, 6, 6)) + 1j * Rng(4).standard_normal((5, 6, 6))
    ws[2] = np.eye(6)  # a degenerate member among general ones
    for w, layout in zip(ws, compile_layers(ws)):
        alone = compile_layer(w)
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
    # A mesh is its phases; every placement comes from the schedule of n,
    # built once per n, whose arrays nobody can write to.
    assert [f.name for f in dataclasses.fields(Mesh)] == ["theta", "phi"]
    assert _schedule(5) is _schedule(5)
    sched = _schedule(5)
    for a in (sched.column, sched.row, *(pairs for _, pairs in sched.columns)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 3


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


def test_sigma_stage_normalizes_to_unity():
    s = np.array([3.0, 2.0, 0.5])
    layout = compile_layer(np.diag(s))
    assert layout.s_max == pytest.approx(3.0)
    assert len(layout.sigma_stage) == 3
    realized = np.sin(layout.sigma_stage.theta / 2.0)
    np.testing.assert_allclose(sorted(realized, reverse=True), s / 3.0, atol=1e-12)
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
    """Every value of the layout reads back from its JSON unchanged, each
    MZI at the placement the schedule gives it."""
    n = 4
    w = Rng(5).standard_normal((n, n)) + 1j * Rng(6).standard_normal((n, n))
    layout = compile_layer(w)
    doc = json.loads(layout_to_json(layout))
    assert set(doc) == {"n", "v_mesh", "sigma_stage", "u_mesh"}
    sched = _schedule(n)
    for key, mesh in (("v_mesh", layout.v_mesh), ("u_mesh", layout.u_mesh)):
        columns = doc[key]["columns"]
        assert [len(c["placements"]) for c in columns] == [
            len(pairs) for _, pairs in sched.columns
        ]
        entries = [e for col in columns for e in col["placements"]]
        assert [e["rows"] for e in entries] == [[r, r + 1] for r in sched.row.tolist()]
        assert [e["theta"] for e in entries] == mesh.theta.tolist()
        assert [e["phi"] for e in entries] == mesh.phi.tolist()
    sigma = doc["sigma_stage"]["placements"]
    assert [e["rows"] for e in sigma] == [[k] for k in range(n)]
    assert [e["theta"] for e in sigma] == layout.sigma_stage.theta.tolist()
    assert [e["phi"] for e in sigma] == layout.sigma_stage.phi.tolist()
    assert doc["v_mesh"]["phase_screen"] == layout.v_screen.tolist()
    assert doc["u_mesh"]["phase_screen"] == layout.u_screen.tolist()
    assert (doc["n"], doc["sigma_stage"]["s_max"]) == (n, layout.s_max)


def _truncated(mesh):
    return Mesh(mesh.theta[:-1], mesh.phi[:-1])


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


def _layout_fields():
    layout = compile_layer(Rng(7).standard_normal((4, 4)))
    return {f.name: getattr(layout, f.name) for f in dataclasses.fields(layout)}


def _one_phase_screen(fields):
    fields["v_screen"] = np.array([0.3])  # one phase for four ports


def _theta_above_pi(fields):
    mesh = fields["v_mesh"]
    fields["v_mesh"] = Mesh(np.r_[math.pi + 1e-6, mesh.theta[1:]], mesh.phi)


def _sigma_one_short(fields):
    fields["sigma_stage"] = _truncated(fields["sigma_stage"])


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_one_phase_screen, "one phase per port"),
        (_theta_above_pi, "theta"),
        (_sigma_one_short, "one attenuator per port"),
    ],
    ids=["one_phase_screen", "theta_above_pi", "sigma_one_short"],
)
def test_layer_layout_rejects_malformed_layouts(corrupt, match):
    fields = _layout_fields()
    LayerLayout(**fields)  # the untouched fields build
    with pytest.raises(ValueError, match=match):
        corrupt(fields)
        LayerLayout(**fields)
