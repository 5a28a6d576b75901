import ast
import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fingabor.group import (
    EmptyGroup,
    GroupMismatch,
    GroupSpec,
    NonDivisor,
    annihilator_indices,
    character,
    character_row,
    character_table,
    circular_distance,
    coset_representatives,
    diff_rows,
    diff_table,
    dual_spec,
    make_group,
    neg_index,
    phase_spec,
    residue_grid,
    subgroup_character_table,
    subgroup_indices,
    tile_cover,
    tile_indices,
    translation_perm,
)
from oracles import annihilator, phase_element


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
# elements and arithmetic


def test_element_reduction_and_index():
    spec = make_group([4, 3], [2, 1])
    x = spec.element((5, 7))
    assert x.residues == (1, 1)
    assert x.index == 1 * 3 + 1
    assert spec.element_at(x.index) == x


def test_element_arithmetic():
    spec = make_group([5], [1])
    a = spec.element((3,))
    b = spec.element((4,))
    assert (a + b).residues == (2,)
    assert (a - b).residues == (4,)
    assert (-a).residues == (2,)


def test_cross_group_arithmetic_rejected():
    s1 = make_group([4], [2])
    s2 = make_group([6], [3])
    with pytest.raises(GroupMismatch):
        s1.element((1,)) + s2.element((1,))
    with pytest.raises(GroupMismatch):
        s1.element((1,)) + s1.dual((1,))


def test_index_roundtrip_exhaustive():
    spec = make_group([3, 4], [1, 2])
    for i in range(spec.order):
        assert spec.element_at(i).index == i
        assert spec.dual_at(i).index == i


# ---------------------------------------------------------------------------
# characters


def test_character_z4_values():
    spec = make_group([4], [2])
    xi = spec.dual((1,))
    assert character(xi, spec.element((1,))) == pytest.approx(1j)
    assert character(xi, spec.element((2,))) == pytest.approx(-1.0)
    assert character(spec.dual((2,)), spec.element((1,))) == pytest.approx(-1.0)
    assert character(spec.dual((0,)), spec.element((3,))) == pytest.approx(1.0)


def test_character_against_brute_force():
    spec = make_group([6, 4], [2, 2])
    rng = np.random.default_rng(0)
    for _ in range(50):
        xi = spec.dual_at(int(rng.integers(spec.order)))
        x = spec.element_at(int(rng.integers(spec.order)))
        assert character(xi, x) == pytest.approx(
            brute_character(spec, xi.residues, x.residues), abs=1e-14
        )


def test_bicharacter_multiplicativity():
    spec = make_group([6, 2], [3, 1])
    rng = np.random.default_rng(1)
    for _ in range(30):
        xi = spec.dual_at(int(rng.integers(spec.order)))
        x = spec.element_at(int(rng.integers(spec.order)))
        y = spec.element_at(int(rng.integers(spec.order)))
        assert character(xi, x + y) == pytest.approx(
            character(xi, x) * character(xi, y), abs=1e-14
        )


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
    spec = make_group([6, 2], [6, 2])
    T = character_table(spec)
    for i in (0, 3, 7, 11):
        np.testing.assert_allclose(character_row(spec, i), T[i], atol=1e-15)


# ---------------------------------------------------------------------------
# subgroup, annihilator, cosets


def brute_annihilator(spec):
    """All xi with <xi, k> = 1 on the subgroup, by direct evaluation."""
    ksub = subgroup_indices(spec)
    out = []
    for i in range(spec.order):
        xi = spec.dual_at(i)
        ok = all(
            abs(brute_character(spec, xi.residues, spec.element_at(int(k)).residues) - 1.0)
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
    ksub = [spec.element_at(int(i)) for i in subgroup_indices(spec)]
    seen = set()
    for r in reps:
        for k in ksub:
            seen.add((r + k).index)
    assert seen == set(range(spec.order))
    assert len(reps) * len(ksub) == spec.order
    # dual side tiles with the annihilator
    ann = [spec.dual_at(int(i)) for i in annihilator_indices(spec)]
    seen = set()
    for r in dual_reps:
        for a in ann:
            seen.add((r + a).index)
    assert seen == set(range(spec.order))


# ---------------------------------------------------------------------------
# index tables


def test_diff_table_brute_force():
    spec = make_group([6, 2], [1, 1])
    table = diff_table(spec)
    for a in range(spec.order):
        for b in range(spec.order):
            ea = spec.element_at(a)
            eb = spec.element_at(b)
            assert table[a, b] == (ea - eb).index


@pytest.mark.parametrize("spec", [make_group([6, 2], [3, 2]), GroupSpec((12,), (3,), 0.25),
                                  make_group([4, 8], [2, 4]), make_group([8], [1])])
def test_tile_cover_matches_residue_grid(spec):
    # arbitrary phase points, not only lattice points, against residue sums
    pspec = phase_spec(spec)
    grid = residue_grid(pspec)
    flat = np.random.default_rng(11).integers(pspec.order, size=20)
    offs = grid[tile_indices(spec)]
    want = [[np.ravel_multi_index(tuple((grid[p] + o) % pspec.factors), pspec.factors)
             for o in offs] for p in flat]
    np.testing.assert_array_equal(tile_cover(spec, flat), want)
    assert tile_cover(spec, flat[:0]).shape == (0, spec.order)


def test_index_work_stays_in_group():
    # residue/flat index conversions, the table limit and the per-factor
    # coordinates live in group; tfa and gabor use its tables
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "fingabor").glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text())
        names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        if path.name != "group.py":
            assert not names & {"ravel_multi_index", "unravel_index"}, path.name
            assert "_TABLE_LIMIT" not in path.read_text(), path.name
        if path.name in ("norms.py", "signal.py", "tfa.py", "gabor.py", "operators.py",
                         "spectral.py"):
            assert not names & {"factors", "subgroup_divisors"}, path.name
        if path.name in ("tfa.py", "gabor.py"):
            imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                        for a in n.names}
            assert not imported & {"residue_grid", "translation_perm", "character_row"}, path.name
            if path.name == "tfa.py":
                # phase-space shifts and characters come from the base group's tables
                assert not imported & {"translate", "modulate", "phase_spec"}, path.name


def test_diff_rows_cached_and_on_demand():
    spec = make_group([4, 3], [2, 3])
    assert np.array_equal(diff_rows(spec, 5, 9), diff_table(spec)[5:9])
    big = make_group([65, 64], [5, 8])            # order 4160, above the table limit
    rows = diff_rows(big, 4000, 4160)
    assert rows.shape == (160, big.order)
    for a, b in [(4000, 0), (4000, 4159), (4100, 77), (4159, 4159)]:
        assert rows[a - 4000, b] == (big.element_at(a) - big.element_at(b)).index


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
            assert T[eta, c] == pytest.approx(character(k.dual_at(eta), k.element_at(c)), abs=1e-14)


def test_translation_perm_and_neg_index():
    spec = make_group([4, 3], [2, 3])
    grid = residue_grid(spec)
    shift = (3, 2)
    perm = translation_perm(spec, shift)
    sh = spec.element(shift)
    for y in range(spec.order):
        assert perm[y] == (spec.element_at(y) + sh).index
    neg = neg_index(spec)
    for y in range(spec.order):
        assert neg[y] == (-spec.element_at(y)).index
    assert grid.shape == (spec.order, 2)


# ---------------------------------------------------------------------------
# derived specs


def test_dual_spec_involution():
    spec = GroupSpec((6, 2), (3, 1), 0.5)
    dual = dual_spec(spec)
    assert dual.factors == spec.factors
    assert dual.mass == pytest.approx(spec.mass_dual)
    assert dual_spec(dual) == spec


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


def phase_point(spec, flat):
    """(x, xi) at a flat phase-space index: x outer, xi inner."""
    return spec.element_at(flat // spec.order), spec.dual_at(flat % spec.order)


def test_phase_index_roundtrip():
    # the phase-space group orders its points as PhaseFunction stores them
    spec = make_group([4, 2], [2, 1])
    for flat in range(spec.order ** 2):
        x, xi = phase_point(spec, flat)
        assert phase_element(spec, x, xi).index == flat
