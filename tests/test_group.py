import ast
import cmath
import itertools
import json
import math
import re
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fingabor import group
from fingabor.experiments import _expansion_residuals
from fingabor.gabor import (QuasiLattice, analysis, discrete_modnorm, frame_operator, quasi_lattice,
                            synthesis)
from fingabor.group import (
    EmptyGroup,
    GroupError,
    GroupMismatch,
    GroupSpec,
    NonDivisor,
    annihilator_indices,
    character_row,
    character_table,
    circular_distance,
    common_group,
    conj_character_table,
    coset_representatives,
    diff_rows,
    diff_table,
    dual_spec,
    lattice_plan,
    make_group,
    phase_spec,
    phase_tiles,
    point_index,
    quotient_indices,
    residue_grid,
    shift_index,
    subgroup_character_table,
    subgroup_indices,
    trivial_subgroup_spec,
)
from fingabor.norms import modulation_norm
from fingabor.operators import (gabor_matrix, gabor_matrix_closed_form, kn_apply, kn_matrix,
                                localization_apply, localization_matrix)
from fingabor.signal import (PhaseFunction, Signal, convolve, convolve_phase, fourier, inner,
                             inverse_fourier, subgroup_indicator)
from fingabor.tfa import rihaczek, stft, window_constant
from oracles import (add, annihilator, character, constant, index_of, lattice_phase_points, neg,
                     neg_index, phase_blocks, phase_point, residues, sub, tile_indices,
                     translation_perm)


def brute_character(spec, xi_res, x_res):
    """Independent character evaluation through cmath."""
    t = 0.0
    for a, b, n in zip(xi_res, x_res, spec.factors):
        t += (a * b) / n
    return cmath.exp(2j * cmath.pi * t)


# ---------------------------------------------------------------------------
# construction and validation


def test_make_group_basic():
    spec = make_group([6, 2], [3, 2])
    assert spec.factors == (6, 2)
    assert spec.subgroup_divisors == (3, 2)
    assert spec.order == 12
    assert spec.subgroup_order == 2 * 1
    assert spec.annihilator_order == 6


def test_nondivisor_rejected():
    with pytest.raises(NonDivisor):
        make_group([6], [4])
    with pytest.raises(NonDivisor):
        make_group([4, 3], [2, 2])


def test_empty_group_rejected():
    with pytest.raises(EmptyGroup):
        GroupSpec((), ())


@pytest.mark.parametrize("factors,divisors", [
    ((6.7,), (1,)),
    ((6.0,), (1,)),
    ((True, 4), (1, 2)),
    ((4,), (np.True_,)),
    ((4,), (2.0,)),
    (("4",), (2,)),
    (4, (2,)),
], ids=["float-factor", "integral-float-factor", "bool-factor", "numpy-bool-divisor",
        "float-divisor", "str-factor", "lone-number-factor"])
def test_non_integer_factors_and_divisors_are_refused(factors, divisors):
    # int() would truncate 6.7 to Z_6 and read True as a factor of 1
    with pytest.raises(GroupError, match="must be integers"):
        GroupSpec(factors, divisors)


def test_numpy_integer_factors_are_python_ints():
    spec = GroupSpec((np.int64(6), np.int32(2)), (np.uint8(3), 2))
    assert spec == make_group([6, 2], [3, 2])
    assert all(type(n) is int for n in spec.factors + spec.subgroup_divisors)


@pytest.mark.parametrize("order,mass", [(10, m) for m in (math.inf, math.nan, 0.0, -1.0, True, "1",
                                                         1e-320, 1e308)] + [(10**400, 1.0)],
                         ids=["inf", "nan", "zero", "negative", "bool", "str",
                              "dual-mass-inf", "dual-mass-zero", "order-beyond-float"])
def test_mass_must_be_finite_positive_with_a_finite_positive_dual(order, mass):
    # mass inf gave dual mass 0.0, 1e-320 on Z_10 a dual mass of inf, and an
    # order beyond the float range an OverflowError
    with pytest.raises(GroupError, match="mass"):
        GroupSpec((order,), (1,), mass)


def test_mass_invariant():
    for mass in (1.0, 0.25, 1 / 12):
        spec = GroupSpec((6, 2), (3, 1), mass)
        assert spec.mass_dual == pytest.approx(1.0 / (mass * 12))
        assert spec.mass * spec.mass_dual * spec.order == pytest.approx(1.0)


def test_json_roundtrip():
    spec = make_group([8, 3], [4, 3])
    blob = spec.to_json()
    again = GroupSpec(**json.loads(json.dumps(blob)))
    assert again == spec


# ---------------------------------------------------------------------------
# combining data of one group


def _pieces(spec):
    """A signal, a symbol and the canonical lattice of ``spec``."""
    return SimpleNamespace(f=subgroup_indicator(spec), lat=quasi_lattice(spec),
                           sigma=PhaseFunction(spec, np.ones(spec.order ** 2)))


def test_common_group_is_the_first_items_group():
    a, b = _pieces(make_group([8], [2])), _pieces(make_group([8], [2]))
    assert common_group(a.lat, b.f) is a.lat.group
    assert common_group(b.f, a.sigma, a.lat, a.f) is b.f.group


# every function that combines signals, symbols or lattices; in each, one
# piece of group b meets pieces of group a
COMBINERS = {
    "convolve": lambda a, b: convolve(a.f, b.f),
    "convolve_phase": lambda a, b: convolve_phase(a.sigma, b.sigma),
    "inner": lambda a, b: inner(a.f, b.f),
    "stft": lambda a, b: stft(a.f, b.f),
    "rihaczek": lambda a, b: rihaczek(a.f, b.f),
    "kn_apply": lambda a, b: kn_apply(a.sigma, b.f),
    "gabor_matrix": lambda a, b: gabor_matrix(a.sigma, b.f, a.lat),
    "gabor_matrix_closed_form": lambda a, b: gabor_matrix_closed_form(b.sigma, a.lat),
    "localization_apply": lambda a, b: localization_apply(a.sigma, a.f, b.f, a.f),
    "localization_matrix": lambda a, b: localization_matrix(a.sigma, a.f, b.f),
    "analysis": lambda a, b: analysis(a.f, a.lat, b.f),
    "synthesis": lambda a, b: synthesis(b.f, a.lat, np.ones(len(a.lat.x))),
    "frame_operator": lambda a, b: frame_operator(b.f, a.lat),
    "expansion_residuals": lambda a, b: next(_expansion_residuals([b.f], a.f, a.f, a.lat)),
    "discrete_modnorm": lambda a, b: discrete_modnorm(a.f, b.f, (2, 2)),
}
# groups that differ in their order, in their subgroup, or only in their mass
OTHER_GROUPS = {
    "order": (make_group([4], [2]), make_group([6], [3])),
    "subgroup": (make_group([16], [4]), make_group([16], [2])),
    "mass": (GroupSpec((16,), (4,), 0.5), make_group([16], [4])),
}


@pytest.mark.parametrize("groups", OTHER_GROUPS.values(), ids=OTHER_GROUPS.keys())
@pytest.mark.parametrize("call", COMBINERS.values(), ids=COMBINERS.keys())
def test_data_of_another_group_is_refused_naming_both(call, groups):
    a, b = groups
    with pytest.raises(GroupMismatch) as raised:
        call(_pieces(a), _pieces(b))
    assert repr(a) in str(raised.value) and repr(b) in str(raised.value)


# ---------------------------------------------------------------------------
# points and arithmetic


def test_element_reduction_and_index():
    # a point is its canonical index; shifts reduce residues per factor
    spec = make_group([4, 3], [2, 1])
    assert index_of(spec, (5, 7)) == 1 * 3 + 1
    assert tuple(residue_grid(spec)[4]) == (1, 1)
    assert translation_perm(spec, (5, 7))[0] == 4


def test_element_arithmetic():
    # on Z_5: 3 + 4 = 2, 3 - 4 = 4, -3 = 2 through the difference table,
    # whose row 0 is index(-y)
    spec = make_group([5], [1])
    D = diff_table(spec)
    minus = D[0]
    assert np.array_equal(minus, neg_index(spec))
    assert D[3, minus[4]] == add(spec, 3, 4) == 2
    assert D[3, 4] == sub(spec, 3, 4) == 4
    assert minus[3] == neg(spec, 3) == 2


def test_index_roundtrip_exhaustive():
    spec = make_group([3, 4], [1, 2])
    grid = residue_grid(spec)
    for i in range(spec.order):
        assert residues(spec, i) == tuple(grid[i])
        assert index_of(spec, grid[i]) == i
        assert point_index(spec, np.int64(i)) == i


# ---------------------------------------------------------------------------
# characters


def test_character_z4_values():
    T = character_table(make_group([4], [2]))
    assert T[1, 1] == pytest.approx(1j)
    assert T[1, 2] == pytest.approx(-1.0)
    assert T[2, 1] == pytest.approx(-1.0)
    assert T[0, 3] == 1.0


def test_character_against_brute_force():
    spec = make_group([6, 4], [2, 2])
    T = character_table(spec)
    rng = np.random.default_rng(0)
    for _ in range(50):
        xi, x = (int(rng.integers(spec.order)) for _ in range(2))
        want = brute_character(spec, residues(spec, xi), residues(spec, x))
        assert T[xi, x] == pytest.approx(want, abs=1e-14)
        assert character_row(spec, xi)[x] == character(spec, xi, x)


def test_bicharacter_multiplicativity():
    spec = make_group([6, 2], [3, 1])
    T = character_table(spec)
    rng = np.random.default_rng(1)
    for _ in range(30):
        xi, x, y = (int(rng.integers(spec.order)) for _ in range(3))
        assert T[xi, add(spec, x, y)] == pytest.approx(T[xi, x] * T[xi, y], abs=1e-14)


def test_character_orthogonality():
    spec = make_group([12], [4])
    T = character_table(spec)
    sums = T.sum(axis=1)
    assert abs(sums[0] - spec.order) < 1e-12
    assert np.max(np.abs(sums[1:])) < 1e-12
    # rows are orthogonal
    gram = T @ T.conj().T
    assert np.allclose(gram, spec.order * np.eye(spec.order), atol=1e-10)


def test_character_row_matches_table():
    # one character formula: a row is the table's row byte for byte
    for spec, rows in [(make_group([6, 2], [6, 2]), range(12)),
                       (make_group([24, 32], [2, 4]), (0, 1, 33, 400, 767))]:
        T = character_table(spec)
        for i in rows:
            assert character_row(spec, i).tobytes() == T[i].tobytes()


# ---------------------------------------------------------------------------
# subgroup, annihilator, cosets


def brute_annihilator(spec):
    """All xi with <xi, k> = 1 on the subgroup, by direct evaluation."""
    ksub = subgroup_indices(spec)
    out = []
    for i in range(spec.order):
        ok = all(
            abs(brute_character(spec, residues(spec, i), residues(spec, int(k))) - 1.0)
            < 1e-12
            for k in ksub
        )
        if ok:
            out.append(i)
    return np.asarray(out)


@pytest.mark.parametrize("factors,divisors", [([12], [4]), ([6, 2], [3, 2]), ([8], [1]), ([4, 3], [2, 3])])
def test_annihilator_matches_brute_force(factors, divisors):
    spec = make_group(factors, divisors)
    np.testing.assert_array_equal(annihilator_indices(spec), brute_annihilator(spec))


@pytest.mark.parametrize("factors,divisors", [([12], [3]), ([6, 4], [2, 4]), ([9], [9])])
def test_order_product_invariant(factors, divisors):
    spec = make_group(factors, divisors)
    assert spec.subgroup_order * spec.annihilator_order == spec.order
    assert len(annihilator(spec)) == spec.annihilator_order


def test_subgroup_is_multiples_of_divisor():
    spec = make_group([8], [2])
    np.testing.assert_array_equal(subgroup_indices(spec), [0, 2, 4, 6])
    spec = make_group([6, 2], [3, 2])
    # (3Z6) x (2Z2) = {0, 3} x {0}
    np.testing.assert_array_equal(subgroup_indices(spec), [0, 6])


def test_coset_representatives_tile_the_group():
    spec = make_group([6, 2], [3, 2])
    reps, dual_reps = coset_representatives(spec)
    ksub = subgroup_indices(spec)
    seen = set()
    for r in reps:
        for k in ksub:
            seen.add(add(spec, r, k))
    assert seen == set(range(spec.order))
    assert len(reps) * len(ksub) == spec.order
    # dual side tiles with the annihilator
    seen = set()
    for r in dual_reps:
        for a in annihilator_indices(spec):
            seen.add(add(spec, r, a))
    assert seen == set(range(spec.order))


# ---------------------------------------------------------------------------
# index tables


@pytest.mark.parametrize("spec", [make_group([12], [3]), make_group([6, 2], [3, 2]),
                                  make_group([8], [8])])
def test_factor_tables_are_shared_across_specs(spec):
    # the grid, character and difference tables read only the factors, so the
    # dual, the trivial-subgroup spec and any point mass share one array each
    others = [dual_spec(spec), trivial_subgroup_spec(spec),
              GroupSpec(spec.factors, spec.subgroup_divisors, 0.25)]
    for table in (residue_grid, character_table, diff_table):
        assert all(table(other) is table(spec) for other in others), table.__name__


def test_diff_table_brute_force():
    spec = make_group([6, 2], [1, 1])
    table = diff_table(spec)
    for a in range(spec.order):
        for b in range(spec.order):
            assert table[a, b] == sub(spec, a, b)


@pytest.mark.parametrize("spec", [make_group([6, 2], [3, 2]), GroupSpec((12,), (3,), 0.25),
                                  make_group([4, 8], [2, 4]), make_group([8], [1])])
def test_phase_tiles_match_residue_grid(spec):
    # block (j1, j2) is the lattice point (D1[j1], D2[j2]) plus the tile
    # offsets, summed residue by residue on the phase space
    pspec = phase_spec(spec)
    grid = residue_grid(pspec)
    blocks, tile = phase_blocks(spec), tile_indices(spec)
    points = lattice_phase_points(quasi_lattice(spec))
    assert blocks.shape == (spec.annihilator_order, spec.subgroup_order,
                            spec.subgroup_order, spec.annihilator_order)
    np.testing.assert_array_equal(blocks[0, 0].reshape(-1), tile)
    np.testing.assert_array_equal(blocks[:, :, 0, 0].reshape(-1), points)
    offs = grid[tile]
    want = [[np.ravel_multi_index(tuple((grid[p] + o) % pspec.factors), pspec.factors)
             for o in offs] for p in points]
    np.testing.assert_array_equal(blocks.reshape(spec.order, spec.order), want)


def test_tiles_and_lattice_need_no_table(monkeypatch):
    # the tiles and the canonical lattice are quotient splits, so they are
    # built above the table limit too, and the tiles hold 2 * order indices
    def refuse(spec):
        raise AssertionError("difference table built")
    monkeypatch.setattr("fingabor.group.diff_table", refuse)
    big = make_group([65, 64], [5, 8])
    assert big.order == 4160 > 4096
    lat = quasi_lattice(big)
    assert len(lat.x) == big.order and len(set(zip(lat.x.tolist(), lat.xi.tolist()))) == big.order
    assert sum(a.size for a in phase_tiles(big)) == 2 * big.order
    spec = make_group([16], [4])
    blocks = phase_blocks(spec)
    np.testing.assert_array_equal(blocks[0, 0].reshape(-1), tile_indices(spec))
    np.testing.assert_array_equal(np.sort(blocks.reshape(-1)), np.arange(spec.order ** 2))


def test_index_work_stays_in_group():
    # residue/flat index conversions, the table limit and the per-factor
    # coordinates live in group; tfa and gabor use its tables, and
    # experiments builds its groups through group
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "fingabor").glob("*.py"))
    assert paths
    # a lattice is its index arrays; the closed form needs no distinct-index arrays
    assert [f.name for f in fields(QuasiLattice)] == ["group", "x", "xi"]
    assert not hasattr(QuasiLattice, "flat_indices")
    for path in paths:
        tree = ast.parse(path.read_text())
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                    for a in n.names}
        # the residue-grid shift is a test oracle; the library shifts through
        # shift_index, negates through row 0 of diff_table and reads the tiles,
        # the tile K x K_perp among them, as blocks of phase_tiles: no name
        # starting tile_, such as the tile_indices oracle or a second tile
        # builder, appears in src. The closed form transforms whole tiles, so
        # no coset_points remains
        for oracle in ("translation_perm", "neg_index", "coset_points"):
            assert oracle not in path.read_text(), (path.name, oracle)
        assert not re.search(r"\btile_", path.read_text()), path.name
        # no module builds or decodes flat phase indices: the tiles are blocks
        # of index pairs, and a lattice keeps no flat indices
        assert "divmod" not in path.read_text(), path.name
        if path.name == "group.py":
            # K's product form is read by the spec, the quotient split and K's own
            # character table; every other index map is built from those
            readers = {top.name for top in tree.body
                       if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                       for n in ast.walk(top)
                       if isinstance(n, ast.Attribute) and n.attr == "subgroup_divisors"}
            assert "quotient_indices" in readers
            assert readers <= {"GroupSpec", "quotient_indices", "subgroup_character_table",
                               "make_group", "dual_spec", "phase_spec",
                               "trivial_subgroup_spec", "product_spec"}, readers
            # the tiles of phase space are the quotient splits of G and of G^,
            # built with no table and no phase-space residue grid
            tiles = next(top for top in tree.body if getattr(top, "name", "") == "phase_tiles")
            read = {n.id for n in ast.walk(tiles) if isinstance(n, ast.Name)}
            assert not read & {"diff_table", "residue_grid"}, read
            assert {n.func.id for n in ast.walk(tiles) if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)} == {"quotient_indices", "dual_spec"}
            # one character formula
            assert sum(isinstance(n, ast.Attribute) and n.attr == "exp"
                       for n in ast.walk(tree)) == 1
        else:
            assert not names & {"ravel_multi_index", "unravel_index"}, path.name
            assert "_TABLE_LIMIT" not in path.read_text(), path.name
        if path.name in ("norms.py", "signal.py", "tfa.py", "gabor.py", "operators.py",
                         "spectral.py", "experiments.py"):
            assert not names & {"factors", "subgroup_divisors"}, path.name
        # a point is its canonical index: no module keeps residue tuples
        assert "residues" not in names, path.name
        # data of two groups meet only in group.common_group
        comparers = {getattr(top, "name", "<module>") for top in tree.body
                     for n in ast.walk(top) if isinstance(n, ast.Compare)
                     and any(isinstance(side, ast.Attribute) and side.attr == "group"
                             for side in (n.left, *n.comparators))}
        assert comparers == ({"common_group"} if path.name == "group.py" else set()), path.name
        defined = {n.name for n in ast.walk(tree)
                   if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert "_check_lattice" not in defined | imported, path.name
        # a private name stays in its module
        assert not {name for name in imported if name.startswith("_")}, path.name
        if path.name == "operators.py":
            # the closed form reads its tiles and coordinates from the quotient splits
            assert not imported & {"neg_index", "subgroup_indices", "annihilator_indices"}
            # the norm probes live in norms, so operators needs no norm
            assert not any(isinstance(n, ast.ImportFrom) and n.level == 1
                           and n.module == "norms" for n in ast.walk(tree))
        if path.name in ("spectral.py", "gabor.py"):
            # operators are plain arrays, so neither module needs the operators layer
            assert not any(isinstance(n, ast.ImportFrom)
                           and (n.module or "").split(".")[-1] == "operators"
                           for n in ast.walk(tree)), path.name
            assert "operators" not in imported, path.name
        if path.name in ("tfa.py", "gabor.py"):
            assert not imported & {"residue_grid", "shift_index", "character_row"}, path.name
            if path.name == "tfa.py":
                # phase-space shifts and characters come from the base group's tables
                assert not imported & {"translate", "modulate", "phase_spec"}, path.name
        if path.name == "gabor.py":
            assert not any(isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] == "tfa"
                           for n in ast.walk(tree))
        # only experiments forms a residual; the library returns values
        if path.name != "experiments.py":
            assert not {name for name in defined
                        if name.endswith(("_residual", "_residuals"))}, path.name
        else:
            # the covariance right-hand sides, moved here from tfa, still use
            # only the base group's tables
            covariance = {top.name: {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
                          for top in tree.body if isinstance(top, ast.FunctionDef)
                          and top.name in ("_covariant_rihaczek", "_stft_shift_identity_residual")}
            assert len(covariance) == 2
            for name, used in covariance.items():
                assert not used & {"translate", "modulate", "phase_spec"}, name


def test_diff_rows_cached_and_on_demand():
    spec = make_group([4, 3], [2, 3])
    assert np.array_equal(diff_rows(spec, 5, 9), diff_table(spec)[5:9])
    big = make_group([65, 64], [5, 8])            # order 4160, above the table limit
    rows = diff_rows(big, 4000, 4160)
    assert rows.shape == (160, big.order)
    for a, b in [(4000, 0), (4000, 4159), (4100, 77), (4159, 4159)]:
        assert rows[a - 4000, b] == sub(big, a, b)


BYTE_CACHED = (residue_grid, character_table, conj_character_table, diff_table, quotient_indices,
               subgroup_character_table, lattice_plan, subgroup_indicator, quasi_lattice)


def _cached_bytes():
    return sum(table.cache_info().nbytes for table in BYTE_CACHED)


def test_cached_bytes_stay_within_the_budget(monkeypatch):
    # a character table of order n holds 16 n^2 bytes: 1024 at 8, 2304 at 12,
    # 16384 at 32; under a 4 KiB budget the order-8 and order-12 tables fit
    # together with their residue grids, and the order-32 table never does
    monkeypatch.setattr(group, "_CACHE_BYTES", 4096)
    for table in BYTE_CACHED:
        table.cache_clear()
    small, other = make_group([8], [2]), make_group([12], [3])
    T_small, T_other = character_table(small), character_table(other)
    assert _cached_bytes() <= 4096
    assert character_table.peek(small) is T_small and character_table.peek(other) is T_other
    assert character_table(dual_spec(small)) is T_small          # a hit makes it the most recent
    diff_table(make_group([16], [4]))                             # 1024 bytes more
    assert _cached_bytes() <= 4096
    assert character_table.peek(other) is None                    # the least recently used left
    assert character_table.peek(small) is T_small
    misses = character_table.cache_info().misses
    big = make_group([32], [4])
    for _ in range(2):                                            # built and returned, not kept
        assert character_table(big).shape == (32, 32)
        assert character_table.peek(big) is None
        assert _cached_bytes() <= 4096
    assert character_table.cache_info().misses == misses + 2
    assert character_table.peek(small) is T_small                 # nothing left for it


def test_no_array_cache_is_bounded_by_entries_alone():
    # every cache of src that holds an array is group's byte-bounded one; the
    # entry-counted caches left hold derived specs
    for path in (Path(__file__).resolve().parents[1] / "src" / "fingabor").glob("*.py"):
        tree = ast.parse(path.read_text())
        counted = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
                   for d in top.decorator_list if "lru_cache" in ast.unparse(d)}
        assert counted <= {"dual_spec", "phase_spec", "trivial_subgroup_spec"}, path.name
    assert len(group._stores) == len(BYTE_CACHED)
    for table in BYTE_CACHED:
        assert table.cache_info()._fields == ("misses", "currsize", "nbytes"), table.__name__


def test_circular_distance():
    spec = make_group([5, 4], [5, 2])
    want = [min(r0, 5 - r0) + min(r1, 4 - r1) for r0 in range(5) for r1 in range(4)]
    assert circular_distance(spec).tolist() == want


def test_subgroup_character_table_in_k_coordinates():
    # K = 2 Z_12 x 2 Z_4 has coordinates c in Z_6 x Z_2 with K = {(2 c0, 2 c1)}
    spec = make_group([12, 4], [2, 2])
    k = make_group([6, 2], [1, 1])
    T = subgroup_character_table(spec)
    assert T.shape == (spec.subgroup_order, spec.subgroup_order)
    for eta in range(k.order):
        for c in range(k.order):
            assert T[eta, c] == pytest.approx(character(k, eta, c), abs=1e-14)


@pytest.mark.parametrize("spec,shifts", [
    (make_group([24, 32], [2, 4]), range(768)),
    (make_group([65, 64], [5, 8]), (0, 1, 63, 64, 2081, 4159)),    # above the table limit
], ids=["z24xz32", "z65xz64"])
def test_shift_index_matches_residue_oracle(spec, shifts):
    # shift_index(spec, x)[y] = index(y - x), bit for bit against residue arithmetic
    for x in shifts:
        got = shift_index(spec, x)
        assert np.array_equal(got, translation_perm(spec, [-r for r in residues(spec, x)]))
        for y in (0, x, spec.order - 1):
            assert got[y] == sub(spec, y, x)


def test_translation_perm_and_neg_index():
    spec = make_group([4, 3], [2, 3])
    grid = residue_grid(spec)
    shift = (3, 2)
    perm = translation_perm(spec, shift)
    for y in range(spec.order):
        assert perm[y] == add(spec, y, index_of(spec, shift))
    minus = diff_table(spec)[0]
    assert np.array_equal(minus, neg_index(spec))
    for y in range(spec.order):
        assert minus[y] == neg(spec, y)
    assert grid.shape == (spec.order, 2)


# ---------------------------------------------------------------------------
# derived specs


def test_dual_spec_involution():
    spec = GroupSpec((6, 2), (3, 1), 0.5)
    dual = dual_spec(spec)
    assert dual.factors == spec.factors
    assert dual.mass == pytest.approx(spec.mass_dual)
    assert dual_spec(dual) == spec


@pytest.mark.parametrize("mass", [1 / 3, 0.3])
def test_bidual_is_the_group(mass):
    # 1 / (1 / (mass * 10) * 10) is not mass in floating point; the dual
    # keeps the group's mass as its dual mass
    spec = GroupSpec((10,), (1,), mass)
    dual = dual_spec(spec)
    assert (dual.mass, dual.mass_dual) == (spec.mass_dual, spec.mass)
    assert dual_spec(dual) == spec
    f = constant(spec)
    assert inner(f, inverse_fourier(fourier(f))) == pytest.approx(10 * mass, rel=1e-15)


@pytest.mark.parametrize("mass", [1.0, 1 / 3])
def test_dual_of_phase_space_is_phase_space_of_dual(mass):
    # the dual of a product is the product of the duals, mass for mass, so
    # G^ x G built either way is one group, and phase space is self-dual
    for n in range(2, 60):
        spec = GroupSpec((n,), (1,), mass)
        ps = phase_spec(spec)
        assert dual_spec(ps) == phase_spec(dual_spec(spec)), n
        assert ps.mass == ps.mass_dual, n


def test_look_alike_of_the_dual_leaves_the_bidual():
    # a fresh spec with the dual's fields has its own dual mass, so it is not
    # the dual, and its cached dual and phase space are not the dual's
    spec = GroupSpec((10,), (1,), 1 / 3)
    look_alike = GroupSpec((10,), (10,), spec.mass_dual)
    dual_spec(look_alike), phase_spec(look_alike)
    assert look_alike != dual_spec(spec)
    assert dual_spec(dual_spec(spec)) == spec
    with pytest.raises(GroupMismatch) as info:
        common_group(constant(look_alike), fourier(constant(spec)))
    assert repr(look_alike) in str(info.value) and repr(dual_spec(spec)) in str(info.value)


def test_derived_specs_are_cached():
    # the pointwise identity check asks for the trivial-subgroup spec every trial
    spec = GroupSpec((6, 2), (3, 1), 0.5)
    for derive in (dual_spec, phase_spec, trivial_subgroup_spec):
        assert derive(spec) is derive(GroupSpec((6, 2), (3, 1), 0.5))
    trivial = trivial_subgroup_spec(spec)
    assert (trivial.factors, trivial.subgroup_divisors, trivial.mass) == ((6, 2), (6, 2), 0.5)


@pytest.mark.parametrize("mass", [1 / 3, 0.3])
def test_trivial_subgroup_spec_keeps_the_dual_mass(mass):
    # rebuilt from its three fields, the trivial-subgroup spec of the dual had
    # dual mass 0.33333333333333326, not the group's mass 1/3
    dual = dual_spec(GroupSpec((10,), (1,), mass))
    trivial = trivial_subgroup_spec(dual)
    assert (trivial.mass, trivial.mass_dual) == (dual.mass, dual.mass_dual) == (dual.mass, mass)


# The mass exponent of each public function: at point mass m, with
# mass_dual = 1 / (m * order), its output on the same values is m ** exponent
# times its output at mass 1.  A dropped or doubled mass factor changes the
# exponent at every mass, where runs at mass 1 see nothing.  The exponent of
# a norm is a function of (p, q).
MASS_EXPONENTS = {
    fourier: 1, convolve: 1, inner: 1, stft: 1, rihaczek: 1, localization_matrix: 1,
    gabor_matrix_closed_form: 1, frame_operator: 1, analysis: 1, window_constant: 1,
    kn_matrix: 0,
    convolve_phase: 0,          # mass * mass_dual = 1 / order per phase-space point
    modulation_norm: lambda p, q: 1 + 1 / p - 1 / q,
}
_NORM_EXPONENTS = ((0.5, 0.5), (1.0, 2.0), (2.0, 2.0), (math.inf, 1.0))
_MASS_CASES = [pytest.param(fn, None, id=fn.__name__)
               for fn in MASS_EXPONENTS if fn is not modulation_norm] + [
               pytest.param(modulation_norm, e, id=f"modulation_norm-{e[0]:g}-{e[1]:g}")
               for e in _NORM_EXPONENTS]


def _mass_output(fn, spec, e):
    """fn's output on spec, for the same drawn values at every point mass."""
    rng = np.random.default_rng(31)
    n = spec.order
    f, g = (Signal(spec, rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in "fg")
    F, H = (PhaseFunction(spec, rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n))
            for _ in "FH")
    lattice = quasi_lattice(spec)
    args = {fourier: (f,), convolve: (f, g), inner: (f, g), stft: (f, g), rihaczek: (f, g),
            localization_matrix: (F, f, g), gabor_matrix_closed_form: (F, lattice),
            frame_operator: (g, lattice), analysis: (g, lattice, f), window_constant: (spec,),
            kn_matrix: (F,), convolve_phase: (F, H), modulation_norm: (f, e)}[fn]
    out = fn(*args)
    return np.asarray(getattr(out, "values", out))


@pytest.mark.parametrize("factors,divisors", [((12,), (3,)), ((6, 2), (3, 2))],
                         ids=["z12-3", "z6xz2-3x2"])
@pytest.mark.parametrize("fn,e", _MASS_CASES)
def test_mass_exponents(fn, e, factors, divisors):
    want = MASS_EXPONENTS[fn] if e is None else MASS_EXPONENTS[fn](*e)
    size = {m: np.linalg.norm(_mass_output(fn, GroupSpec(factors, divisors, m), e))
            for m in (1.0, 0.25, 3.0)}
    for a, b in itertools.combinations(size, 2):
        got = math.log(size[b] / size[a]) / math.log(b / a)
        assert abs(got - want) <= 1e-12, (a, b, got)


def test_phase_spec_shape_and_mass():
    spec = GroupSpec((6,), (3,), 0.25)
    ps = phase_spec(spec)
    assert ps.factors == (6, 6)
    assert ps.order == 36
    assert ps.mass == pytest.approx(spec.mass * spec.mass_dual)
    # phase space is self-dual in measure
    assert dual_spec(ps).mass == pytest.approx(ps.mass)
    # its subgroup is K x K_perp
    k = subgroup_indices(ps)
    assert len(k) == spec.subgroup_order * spec.annihilator_order


def test_phase_index_roundtrip():
    # the phase-space group orders its points as PhaseFunction stores them
    spec = make_group([4, 2], [2, 1])
    for flat in range(spec.order ** 2):
        assert phase_point(spec, *divmod(flat, spec.order)) == flat
