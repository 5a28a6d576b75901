import math
import sys

import numpy as np
import pytest

import oracles
from fingabor import norms
from fingabor.experiments import (
    _EXPONENT_GRID,
    _YOUNG_AXIS,
    _pointwise_maximal,
    _rnorm_subadditivity_residual,
    _worse,
    _young_block,
    random_phase_function,
    run_convrel,
    run_identities,
    run_norms,
    run_young,
    stream_rng,
)
from fingabor.group import (
    GroupMismatch,
    GroupSpec,
    annihilator_indices,
    dual_spec,
    make_group,
    phase_spec,
    phase_tiles,
    quotient_indices,
    residue_grid,
    subgroup_indices,
)
from fingabor.norms import (
    Exponents,
    NonPositiveExponent,
    Weight,
    inclusion_bound,
    inclusion_ratio,
    mixed_norm_stack,
    modulation_norm,
    modulation_norms,
    polynomial_weight,
)
from fingabor.signal import PhaseFunction, Signal, norm_l2, subgroup_indicator
from fingabor.spectral import decay_profiles, haar_baseline
from fingabor.tfa import stft
from oracles import (dense_amalgam, gather_maximum, mixed_quasi_norm, phase_blocks,
                     plain_norm_pointwise_trial, tile_indices, young_verify)

GRID = [0.5, 1.0, 2.0, math.inf]


def pair_ratio_max(spec, left, right):
    """Brute-force max over (x, y) of right(x + y) / (left(x) right(y))."""
    grid = residue_grid(spec)
    mods = np.asarray(spec.factors)
    return max(
        right[np.ravel_multi_index(tuple((grid[i] + grid[j]) % mods), spec.factors)]
        / (left[i] * right[j])
        for i in range(spec.order) for j in range(spec.order)
    )


def check_submultiplicative(spec, v, slack=1e-12):
    """v(x + y) <= v(x) v(y) for every pair, up to the slack."""
    return pair_ratio_max(spec, v.values, v.values) <= 1.0 + slack


def check_moderate(spec, m, v, slack=1e-12):
    """(ok, C) with C = max m(x + y) / (v(x) m(y)) and ok meaning C <= 1."""
    C = pair_ratio_max(spec, v.values, m.values)
    return C <= 1.0 + slack, C


def rand_phase(spec, rng):
    n2 = spec.order ** 2
    return PhaseFunction(spec, rng.standard_normal(n2) + 1j * rng.standard_normal(n2))


def rand_signal(spec, rng):
    return Signal(spec, rng.standard_normal(spec.order) + 1j * rng.standard_normal(spec.order))


def brute_mixed(F, p, q, m=None):
    """Reference mixed norm with explicit loops, x inner then xi outer."""
    spec = F.group
    n = spec.order
    vals = np.abs(F.values)
    if m is not None:
        vals = vals * m.values
    W = vals.reshape(n, n)
    inner = []
    for ixi in range(n):
        col = W[:, ixi]
        if math.isinf(p):
            inner.append(col.max())
        else:
            inner.append((spec.mass * sum(c ** p for c in col)) ** (1 / p))
    if math.isinf(q):
        return max(inner)
    return (spec.mass_dual * sum(v ** q for v in inner)) ** (1 / q)


# ---------------------------------------------------------------------------
# exponents and weights


def test_exponents_validation_and_r():
    assert Exponents(0.5, 2.0).r == 0.5
    assert Exponents(2.0, 3.0).r == 1.0
    assert Exponents(math.inf, 1.0).r == 1.0
    with pytest.raises(NonPositiveExponent):
        Exponents(0.0, 1.0)
    with pytest.raises(NonPositiveExponent):
        Exponents(1.0, -2.0)


def test_exponents_of_forms():
    assert Exponents.of((1, 2)) == Exponents(1.0, 2.0)
    assert Exponents.of(1, 2) == Exponents(1.0, 2.0)
    e = Exponents(0.5, math.inf)
    assert Exponents.of(e) is e


def test_weight_positivity_and_tensor():
    with pytest.raises(ValueError):
        Weight(np.array([1.0, 0.0]))
    w = Weight.tensor([1.0, 2.0], [3.0, 5.0])
    np.testing.assert_array_equal(w.values, [3.0, 5.0, 6.0, 10.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_weight_refuses_non_finite_values(bad):
    # an infinite weight would make every weighted norm infinite
    with pytest.raises(ValueError, match="finite"):
        Weight(np.full(64, bad))
    with pytest.raises(ValueError, match="finite"):
        Weight([1.0, bad])


def test_polynomial_weight_values():
    spec = make_group([6], [3])
    # circular distance on Z_6: 0 1 2 3 2 1
    np.testing.assert_array_equal(
        polynomial_weight(spec, 1.0).values, [1.0, 2.0, 3.0, 4.0, 3.0, 2.0]
    )


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_polynomial_weight_submultiplicative_and_moderate(s):
    spec = make_group([8], [2])
    v = polynomial_weight(spec, s)
    assert check_submultiplicative(spec, v)
    ok, C = check_moderate(spec, v, v)
    assert ok and C == 1.0
    # the reciprocal is moderate for the same v
    ok, C = check_moderate(spec, Weight(1.0 / v.values), v)
    assert ok and C == 1.0


def test_dipped_weight_is_not_submultiplicative():
    spec = make_group([6], [3])
    w = Weight([1.0, 0.1, 1.0, 1.0, 1.0, 1.0])   # w(2) > w(1) w(1)
    assert not check_submultiplicative(spec, w)


# ---------------------------------------------------------------------------
# subgroup tile and quotient indices


def test_canonical_window_is_subgroup_tile():
    spec = make_group([6], [3])
    kk = subgroup_indices(spec)
    aa = annihilator_indices(spec)
    expected = sorted(int(k) * 6 + int(a) for k in kk for a in aa)
    rows, cols = phase_tiles(spec)
    assert np.array_equal(rows[0, 0, :, 0], kk) and np.array_equal(cols[0, 0, 0, :], aa)
    tile = phase_blocks(spec)[0, 0].reshape(-1)
    assert np.array_equal(tile, tile_indices(spec))
    assert sorted(tile.tolist()) == expected
    assert len(tile) == spec.order  # |K| |K_perp| = |G|


@pytest.mark.parametrize("spec", [
    make_group([6, 2], [3, 2]),
    make_group([4, 8], [2, 4]),
    make_group([8], [8]),
    make_group([8], [1]),
], ids=["z6xz2", "z4xz8", "trivial-K", "K-is-G"])
def test_quotient_indices_split_each_factor(spec):
    rows, coset, eta = quotient_indices(spec)
    grid = residue_grid(spec)
    d = np.array(spec.subgroup_divisors)
    sizes = np.array(spec.factors) // d
    assert sorted(rows.reshape(-1).tolist()) == list(range(spec.order))
    for j in range(rows.shape[0]):
        for c in range(rows.shape[1]):
            jr = np.unravel_index(j, tuple(d))
            cr = np.unravel_index(c, tuple(sizes))
            assert tuple(grid[rows[j, c]]) == tuple((np.array(jr) + d * np.array(cr)))
            assert coset[rows[j, c]] == j
    # x and x + k share a coset; eta reads xi modulo N/d
    for k in subgroup_indices(spec):
        shifted = np.ravel_multi_index(((grid + grid[k]) % spec.factors).T, spec.factors)
        assert np.array_equal(coset[shifted], coset)
    assert np.array_equal(eta, np.ravel_multi_index((grid % sizes).T, tuple(sizes)))


# ---------------------------------------------------------------------------
# mixed quasi-norm


def test_mixed_norm_constant_function():
    spec = make_group([4], [2])
    F = PhaseFunction(spec, np.ones(16))
    assert mixed_quasi_norm(F, (2, 2)) == pytest.approx(2.0, abs=1e-14)
    assert mixed_quasi_norm(F, (math.inf, math.inf)) == 1.0


def test_mixed_norm_point_mass():
    spec = make_group([4], [2])
    vals = np.zeros(16)
    vals[0] = 1.0
    F = PhaseFunction(spec, vals)
    assert mixed_quasi_norm(F, (0.5, 2)) == pytest.approx(0.5, abs=1e-14)
    assert mixed_quasi_norm(F, (math.inf, math.inf)) == 1.0
    # mass enters through both factors
    assert mixed_quasi_norm(F, (1, 1)) == pytest.approx(spec.mass * spec.mass_dual)


@pytest.mark.parametrize("p", GRID)
@pytest.mark.parametrize("q", GRID)
def test_mixed_norm_matches_brute_force(p, q):
    spec = GroupSpec((6,), (2,), 0.5)
    rng = np.random.default_rng(10)
    F = rand_phase(spec, rng)
    m = Weight(0.5 + rng.random(36))
    assert mixed_quasi_norm(F, (p, q)) == pytest.approx(brute_mixed(F, p, q), rel=1e-12)
    assert mixed_quasi_norm(F, (p, q), m) == pytest.approx(brute_mixed(F, p, q, m), rel=1e-12)


def test_mixed_norm_homogeneous_and_solid():
    spec = make_group([6], [3])
    rng = np.random.default_rng(11)
    F = rand_phase(spec, rng)
    for e in [(0.5, 2), (1, math.inf), (2, 0.5)]:
        assert mixed_quasi_norm(PhaseFunction(spec, 3j * F.values), e) == pytest.approx(
            3 * mixed_quasi_norm(F, e), rel=1e-12
        )
    smaller = PhaseFunction(spec, F.values * rng.random(36))
    for e in [(0.5, 1), (2, 2), (math.inf, 0.5)]:
        assert mixed_quasi_norm(smaller, e) <= mixed_quasi_norm(F, e) + 1e-12


def test_mixed_norm_weight_shape_checked():
    spec = make_group([4], [2])
    F = PhaseFunction(spec, np.ones(16))
    from fingabor.group import GroupMismatch

    with pytest.raises(GroupMismatch):
        mixed_quasi_norm(F, (2, 2), Weight(np.ones(4)))


def test_modulation_norm_weight_shape_checked():
    # a weight on the group, not on phase space, is refused by the weighted
    # route as it is by mixed_quasi_norm
    spec = make_group([4], [2])
    f = Signal(spec, np.ones(spec.order))
    with pytest.raises(GroupMismatch):
        modulation_norm(f, (2, 2), Weight(np.ones(spec.order)))


@pytest.mark.parametrize("shape", [(1, 32), (1, 8), (16,), (1, 1, 16)])
def test_stack_width_checked(shape):
    # a stack is 2-D with one column per point: no prefix of a wider row is
    # taken for the signal, and a bare row is not a stack of one
    spec = make_group([16], [4])
    F = np.ones(shape)
    for call in (lambda: modulation_norms(spec, F, [Exponents(2.0, 2.0)]),
                 lambda: decay_profiles(spec, F, (0.5,))):
        with pytest.raises(GroupMismatch, match="rows of 16 values"):
            call()


# ---------------------------------------------------------------------------
# maximal function oracle and modulation norm


@pytest.mark.parametrize("spec", [
    make_group([6], [3]),
    make_group([6, 2], [3, 2]),
    make_group([2, 4], [1, 2]),
    GroupSpec((4, 3), (2, 3), 0.5),
    make_group([8], [8]),          # trivial K
    make_group([8], [1]),          # K = G
], ids=["z6", "z6xz2", "z2xz4", "z4xz3-mass", "trivial-K", "K-is-G"])
def test_maximal_function_matches_brute_force(spec):
    pspec = phase_spec(spec)
    grid = residue_grid(pspec)
    mods = np.array(pspec.factors)
    rng = np.random.default_rng(12)
    F = rand_phase(spec, rng)
    mags = np.abs(F.values)
    for offsets in [(0,), tuple(tile_indices(spec)), tuple(range(pspec.order)),
                    (0, 1, 7, 35)]:
        M = gather_maximum(F, offsets)
        brute = np.zeros(pspec.order)
        for i in range(pspec.order):
            for o in offsets:
                res = tuple(int(v) for v in (grid[i] + grid[o]) % mods)
                j = int(np.ravel_multi_index(res, pspec.factors))
                brute[i] = max(brute[i], mags[j])
        np.testing.assert_array_equal(M.values, brute)


def test_unit_window_maximal_is_identity():
    spec = make_group([8], [4])
    rng = np.random.default_rng(13)
    F = rand_phase(spec, rng)
    np.testing.assert_array_equal(gather_maximum(F, (0,)).values, np.abs(F.values))


def test_wiener_dominates_plain_norm_and_grows_with_window():
    spec = make_group([6], [2])
    rng = np.random.default_rng(14)
    F = rand_phase(spec, rng)
    small = (0, 3)
    big = (0, 3, 10, 20)
    for e in [(0.5, 2), (2, 1), (math.inf, 0.5)]:
        plain = mixed_quasi_norm(F, e)
        assert mixed_quasi_norm(gather_maximum(F, (0,)), e) == pytest.approx(plain, rel=1e-14)
        assert mixed_quasi_norm(gather_maximum(F, small), e) >= plain - 1e-12
        assert (mixed_quasi_norm(gather_maximum(F, big), e)
                >= mixed_quasi_norm(gather_maximum(F, small), e) - 1e-12)


@pytest.mark.parametrize("spec", [
    make_group([64], [8]),
    make_group([6, 2], [3, 2]),
    GroupSpec((12,), (3,), 0.25),
    make_group([4, 8], [2, 4]),
    make_group([8], [8]),
    make_group([8], [1]),
], ids=["z64", "z6xz2", "z12-mass", "z4xz8", "z8-trivial-k", "z8-k-is-g"])
def test_modulation_norm_matches_dense_oracle(spec):
    rng = np.random.default_rng(23)
    poly1 = Weight.tensor(polynomial_weight(spec, 1.0), polynomial_weight(dual_spec(spec), 1.0))
    for _ in range(3):
        f = rand_signal(spec, rng)
        M = dense_amalgam(f)
        for p in GRID:
            for q in GRID:
                for m in (None, poly1):
                    want = mixed_quasi_norm(M, (p, q), m)
                    got = modulation_norm(f, (p, q), m)
                    assert got == pytest.approx(want, rel=1e-13, abs=0), (p, q, m)


@pytest.mark.parametrize("spec", [
    make_group([64], [8]),
    make_group([6, 2], [3, 2]),
    GroupSpec((12,), (3,), 0.25),
    make_group([8], [8]),
    make_group([8], [1]),
], ids=["z64", "z6xz2", "z12-mass", "z8-trivial-k", "z8-k-is-g"])
def test_weighted_modulation_norms_equal_one_row_calls(spec):
    # one weighted kernel call over a stack and the exponent grid gives each
    # entry the one-row, one-exponent norm, and the norm of Q broadcast to a
    # dense phase function, bit for bit; a NaN row stays NaN
    rng = np.random.default_rng(25)
    poly1 = Weight.tensor(polynomial_weight(spec, 1.0), polynomial_weight(dual_spec(spec), 1.0))
    F = np.stack([rand_signal(spec, rng).values for _ in range(4)])
    F[2, 1] = np.nan
    full = modulation_norms(spec, F, _EXPONENT_GRID, poly1)
    assert np.isnan(full[2]).all() and np.isfinite(np.delete(full, 2, axis=0)).all()
    for b, row in enumerate(F):
        f = Signal(spec, row)
        for i, e in enumerate(_EXPONENT_GRID):
            one = modulation_norms(spec, F[b:b + 1], [e], poly1)[0, 0]
            np.testing.assert_array_equal(full[b, i], one)
            np.testing.assert_array_equal(modulation_norm(f, e, poly1), one)
            np.testing.assert_array_equal(oracles.broadcast_modulation_norm(f, e, poly1), one)


def test_quotient_norms_are_an_independent_route(monkeypatch):
    # neither the dense transform nor the difference table is reached
    import fingabor.experiments  # noqa: F401  (every module is loaded)

    def refuse(*args, **kwargs):
        raise AssertionError("dense route taken")

    for name, module in list(sys.modules.items()):
        if name == "fingabor" or name.startswith("fingabor."):
            for attr in ("stft", "diff_table"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    for spec in (make_group([64], [8]), make_group([6, 2], [3, 2])):
        f = rand_signal(spec, np.random.default_rng(24))
        m = Weight.tensor(polynomial_weight(spec, 1.0), polynomial_weight(dual_spec(spec), 1.0))
        assert math.isfinite(modulation_norm(f, (0.5, 2)))
        assert math.isfinite(modulation_norm(f, (0.5, 2), m))
        assert np.isfinite(decay_profiles(spec, f.values[None, :], (0.5, 1.0))[1]).all()
        assert np.isfinite(haar_baseline(spec, 5, seed=0)).all()


def test_modulation_norm_energy_case():
    # Moyal with the window 1_K: ||V_{1_K} f||_2 = ||f|| ||1_K||, which the
    # quotient reaches only through the multiplicities |K| and |K_perp|
    for spec in (make_group([8], [2]), GroupSpec((12,), (3,), 0.25), make_group([6, 2], [3, 2])):
        rng = np.random.default_rng(15)
        f = rand_signal(spec, rng)
        want = norm_l2(f) * norm_l2(subgroup_indicator(spec))
        assert modulation_norm(f, (2, 2)) == pytest.approx(want, rel=1e-12)


def test_modulation_norm_trivial_subgroup_collapses():
    # K = {0}: the canonical tile only moves xi and |V| does not depend on it
    spec = make_group([8], [8])
    rng = np.random.default_rng(16)
    phi = subgroup_indicator(spec)
    for _ in range(10):
        f = rand_signal(spec, rng)
        V = stft(f, phi)
        for p in GRID:
            for q in GRID:
                w = modulation_norm(f, (p, q))
                plain = mixed_quasi_norm(V, (p, q))
                assert abs(w - plain) <= 1e-13 * (1.0 + plain)


def test_canonical_window_transform_is_tile_constant():
    # with the subgroup indicator as window, |V| is constant on each
    # K x K_perp tile: shifting x by K reuses identical sums, shifting xi
    # by the annihilator only rotates the phase
    for factors, divisors in [([4], [2]), ([6], [3]), ([6, 2], [3, 2])]:
        spec = make_group(factors, divisors)
        rng = np.random.default_rng(17)
        f = rand_signal(spec, rng)
        V = stft(f, subgroup_indicator(spec)).mat
        grid = residue_grid(spec)
        mods = np.array(spec.factors)
        for k in subgroup_indices(spec):
            perm = np.ravel_multi_index(((grid + grid[int(k)]) % mods).T, spec.factors)
            np.testing.assert_array_equal(V[perm, :], V)
        dgrid = residue_grid(spec)
        for a in annihilator_indices(spec):
            perm = np.ravel_multi_index(((dgrid + dgrid[int(a)]) % mods).T, spec.factors)
            np.testing.assert_allclose(np.abs(V[:, perm]), np.abs(V), atol=1e-13)


# ---------------------------------------------------------------------------
# inequalities


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_rnorm_subadditivity(p, q):
    spec = make_group([6], [3])
    rng = np.random.default_rng(18)
    e = Exponents(p, q)
    for _ in range(25):
        F = rand_phase(spec, rng)
        H = rand_phase(spec, rng)
        res = _rnorm_subadditivity_residual(F, H, [e])[0, 0]
        scale = mixed_quasi_norm(F, e) ** e.r + mixed_quasi_norm(H, e) ** e.r
        assert res <= 1e-10 * (1.0 + scale)


def inclusion_check(f, e1, e2):
    """(ok, ratio, bound) of the inclusion ||f||_{e2} <= bound ||f||_{e1},
    with a relative slack of 1e-10 on the bound."""
    bound = inclusion_bound(f.group, e1, e2)
    ratio = inclusion_ratio(modulation_norm(f, e1), modulation_norm(f, e2))
    return ratio <= bound * (1.0 + 1e-10), ratio, bound


def test_inclusion_holds_and_constant_value():
    spec = make_group([4], [2])
    rng = np.random.default_rng(19)
    f = rand_signal(spec, rng)
    ok, ratio, bound = inclusion_check(f, (1, 1), (2, 2))
    assert ok
    # mass 1 kills the p factor; mass_dual = 1/4 gives (1/4)^(1/2 - 1) = 2
    assert bound == pytest.approx(2.0, abs=1e-14)
    assert ratio <= bound * (1 + 1e-10)


def test_inclusion_random_sweep():
    spec = make_group([6], [2])
    rng = np.random.default_rng(20)
    pairs = [((0.5, 0.5), (1, 2)), ((1, 1), (math.inf, math.inf)),
             ((0.5, 2), (2, 2)), ((1, 0.5), (2, 1))]
    for _ in range(20):
        f = rand_signal(spec, rng)
        for e1, e2 in pairs:
            ok, ratio, bound = inclusion_check(f, e1, e2)
            assert ok, f"{e1} -> {e2}: ratio {ratio} above {bound}"


def test_inclusion_of_zero_signal_has_ratio_zero():
    spec = make_group([4], [2])
    assert inclusion_check(Signal(spec, np.zeros(4)), (1, 1), (2, 2)) == (True, 0.0, 2.0)
    assert inclusion_ratio(0.0, 0.0) == 0.0
    assert inclusion_ratio(2.0, 3.0) == 1.5


def test_inclusion_rejects_decreasing_exponents():
    spec = make_group([4], [2])
    with pytest.raises(ValueError):
        inclusion_bound(spec, (2, 2), (1, 2))


def test_young_inequality_random():
    spec = make_group([6], [3])
    rng = np.random.default_rng(21)
    triples = [(1, 1, 1), (1, 2, 2), (2, 2, math.inf), (1, math.inf, math.inf),
               (2, 1, 2), (4 / 3, 4, math.inf)]
    for _ in range(20):
        F = rand_phase(spec, rng)
        H = rand_phase(spec, rng)
        for px, qx, rx in triples:
            for py, qy, ry in triples:
                lhs, rhs = young_verify(F, H, (rx, ry), (px, py), (qx, qy))
                assert lhs <= rhs * (1 + 1e-10)


def test_young_weighted():
    spec = make_group([4], [2])
    rng = np.random.default_rng(22)
    m = Weight.tensor(polynomial_weight(spec, 1.0), polynomial_weight(dual_spec(spec), 1.0))
    F = rand_phase(spec, rng)
    H = rand_phase(spec, rng)
    lhs, rhs = young_verify(F, H, (2, 2), (1, 1), (2, 2), m=m, v=m)
    assert lhs <= rhs * (1 + 1e-10)


def test_young_rejects_bad_exponents():
    spec = make_group([4], [2])
    F = PhaseFunction(spec, np.ones(16))
    with pytest.raises(ValueError):
        young_verify(F, F, (4, 4), (4, 4), (4, 4))
    with pytest.raises(ValueError):
        young_verify(F, F, (1, 1), (0.5, 1), (1, 1))


@pytest.mark.parametrize("spec", [
    make_group([64], [8]),
    make_group([16], [4]),
    make_group([6, 2], [3, 2]),
    GroupSpec((12,), (3,), 0.25),
    make_group([4, 8], [2, 4]),
], ids=["z64", "z16", "z6xz2", "z12-mass", "z4xz8"])
def test_mixed_norm_stack_rows_equal_mixed_quasi_norm(spec):
    # one call over the whole grid shares the inner p-sums, yet each entry
    # equals the one-exponent result bit for bit: it does not depend on the
    # other exponents or on the stack around it, all-zero and NaN rows included
    rng = np.random.default_rng(23)
    Fs = [rand_phase(spec, rng) for _ in range(7)]
    Fs[2] = PhaseFunction(spec, np.zeros(spec.order ** 2))
    Fs[5] = PhaseFunction(spec, np.where(np.arange(spec.order ** 2) == 3, np.nan, Fs[5].values))
    W = np.abs(np.stack([F.mat for F in Fs]))
    axis = (0.5, 1.0, 4.0 / 3.0, 2.0, 4.0, math.inf)
    grid = [Exponents(p, q) for p in axis for q in axis]
    masses = (spec.mass, spec.mass_dual)
    full = mixed_norm_stack(W, grid, *masses)
    assert full.shape == (len(Fs), len(grid))
    assert np.isnan(full[5]).all() and not full[2].any()
    for i, e in enumerate(grid):
        np.testing.assert_array_equal(full[:, i], [mixed_quasi_norm(F, e) for F in Fs])
        np.testing.assert_array_equal(full[:, i], oracles.one_exponent_mixed_norm(W, e, *masses))
    for lo, hi in ((1, 4), (3, 4), (5, 7)):
        np.testing.assert_array_equal(mixed_norm_stack(W[lo:hi], grid, *masses), full[lo:hi])


def test_mixed_norm_stack_rows_are_independent_for_any_layout():
    # the weighted path's gather of the quotient magnitudes back onto
    # (x, xi) is a strided stack; unweighted, each of its rows must still
    # equal its one-row call, bit for bit
    spec = make_group([64], [8])
    rng = np.random.default_rng(31)
    F = np.stack([rand_signal(spec, rng).values for _ in range(4)])
    _, coset, eta = quotient_indices(spec)
    W = norms._coset_magnitudes(spec, F)[:, coset][:, :, eta]
    assert not W.flags.c_contiguous
    masses = (spec.mass, spec.mass_dual)
    full = mixed_norm_stack(W, _EXPONENT_GRID, *masses)
    for b in range(len(F)):
        one = mixed_norm_stack(W[b:b + 1], _EXPONENT_GRID, *masses)
        np.testing.assert_array_equal(full[b:b + 1], one)


def _memoized(monkeypatch, name):
    """Replace oracles.<name> by a memo keyed on the identity of its first
    argument and on the others; the memo keeps the first argument alive, so
    its id is not reused while the memo lives."""
    func = getattr(oracles, name)
    cache = {}

    def memo(first, *rest):
        key = (id(first),) + rest
        if key not in cache:
            cache[key] = (first, func(first, *rest))
        return cache[key][1]

    monkeypatch.setattr(oracles, name, memo)


def test_young_block_is_bounded_in_bytes():
    assert _young_block(make_group([6, 2], [3, 2])) == 56
    assert _young_block(make_group([64], [8])) == 2


@pytest.mark.parametrize("spec", [
    make_group([6], [3]),
    make_group([6, 2], [3, 2]),
    make_group([64], [8]),
], ids=["z6", "z6xz2", "z64"])
def test_run_young_equals_per_trial_oracle(spec, monkeypatch):
    # the convolution and each norm are taken once per trial; the fold is
    # still one young_verify per trial and combo
    _memoized(monkeypatch, "convolve_phase")
    _memoized(monkeypatch, "mixed_quasi_norm")
    exps = [(Exponents(p3, q3), Exponents(p1, q1), Exponents(p2, q2))
            for p1, p2, p3 in _YOUNG_AXIS for q1, q2, q3 in _YOUNG_AXIS]
    block = _young_block(spec)
    # one trial, then two blocks of which the last holds a single trial
    for trials in (1, block + 1):
        rng = stream_rng(7, 0)
        worst = [0.0] * len(exps)
        violations = 0
        for _ in range(trials):
            F = random_phase_function(spec, rng)
            H = random_phase_function(spec, rng)
            for i, (e_out, e_left, e_right) in enumerate(exps):
                lhs, rhs = young_verify(F, H, e_out, e_left, e_right)
                if rhs > 0:
                    r = lhs / rhs
                    worst[i] = r if r > worst[i] or math.isnan(r) else worst[i]
                violations += not lhs <= rhs * (1 + 1e-10)
        summary, tables = run_young(spec, seed=7, trials=trials)
        assert [row[-1] for row in tables["young_ratios"][1:]] == [repr(w) for w in worst]
        check = summary["results"]["young-inequality"]
        assert check["passed"] == (violations == 0)
        assert check["residual"] == max(worst) - 1
        assert summary["max_ratio"] == max(worst)


# the identity-trial groups: the order-64 reference, a product with a
# non-cyclic tile, a point mass other than 1, unequal factors, K = G
IDENTITY_TRIAL_GROUPS = [make_group([64], [8]), make_group([6, 2], [3, 2]),
                         GroupSpec((12,), (3,), 0.25), make_group([4, 8], [2, 4]),
                         make_group([8], [1])]
IDENTITY_TRIAL_IDS = ["z64", "z6xz2", "z12-mass", "z4xz8", "z8-K-is-G"]


@pytest.mark.parametrize("spec", IDENTITY_TRIAL_GROUPS, ids=IDENTITY_TRIAL_IDS)
def test_pointwise_trials_equal_plain_norm_oracle(spec):
    # one |V| per trial through mixed_norm_stack gives each exponent's plain
    # norm bit for bit as one mixed_quasi_norm call per exponent did
    rng, oracle_rng = stream_rng(0, 14), stream_rng(0, 14)
    trials = [plain_norm_pointwise_trial(spec, oracle_rng) for _ in range(3)]
    for want in trials:
        assert np.array_equal(_pointwise_maximal(spec, rng), want)
    worst = 0.0
    for r in trials:
        worst = _worse(worst, r)
    # the registry's stream 14 through the one fold in run_identities
    summary, _ = run_identities(spec, seed=0, trials=3, names=["pointwise-covering-maximum"])
    assert np.array_equal(summary["results"]["pointwise-covering-maximum"]["residual"], worst)


def test_grid_sweeps_make_one_kernel_call_per_stack(monkeypatch):
    # the pointwise check takes its covered and its plain row with one kernel
    # call each, and run_young one call per side per block
    calls = []
    kernel = norms.mixed_norm_stack

    def counted(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    for module in ("fingabor.norms", "fingabor.experiments"):
        monkeypatch.setattr(f"{module}.mixed_norm_stack", counted)
    rng = stream_rng(0, 14)
    for _ in range(3):
        _pointwise_maximal(make_group([16], [4]), rng)
    assert len(calls) == 2 * 3
    calls.clear()
    spec = make_group([6, 2], [3, 2])
    run_young(spec, seed=0, trials=_young_block(spec) + 1)
    assert len(calls) == 3 * 2
    # run_norms: one call each per trial for the covered row, the plain row,
    # the subadditivity stack and the inclusion exponents, and one for each
    # (weight, window) pair of the sweep table
    spec = make_group([16], [4])
    counts = []
    for trials in (1, 2):
        calls.clear()
        run_norms(spec, seed=0, trials=trials)
        counts.append(len(calls))
    assert counts == [4 * 1 + 4, 4 * 2 + 4]
    # run_convrel: one convolution per trial, and one kernel call each for
    # f * g, f and g with all the cases' exponents
    convolutions = []
    convolve = norms.convolve

    def counted_convolve(f, g):
        convolutions.append(None)
        return convolve(f, g)

    monkeypatch.setattr(norms, "convolve", counted_convolve)
    for spec in (make_group([64], [8]), make_group([6, 2], [3, 2])):
        calls.clear()
        convolutions.clear()
        run_convrel(spec, seed=0, trials=5)
        assert (len(convolutions), len(calls)) == (5, 3 * 5)
