import math
import re

import numpy as np
import pytest

from fingabor.gabor import (
    NotAFrame,
    analysis,
    discrete_modnorm,
    dual_window,
    frame_operator,
    gabor_system,
    lattice_from_points,
    quasi_lattice,
    synthesis,
)
from fingabor.group import (
    GroupMismatch,
    GroupSpec,
    coset_representatives,
    make_group,
    phase_spec,
    phase_tiles,
    residue_grid,
)
from fingabor import experiments
from fingabor.experiments import (_expansion_residuals, _representative_independence_residual,
                                  run_frames, run_identities)
from fingabor.operators import gabor_matrix, gabor_matrix_closed_form
from fingabor.norms import Weight
from fingabor.signal import PhaseFunction, Signal, norm_l2, subgroup_indicator
from fingabor.tfa import stft, window_constant
from oracles import (lattice_phase_points, one_signal_expansion_residual, phase_blocks,
                     quotient_coefficients, subgroup_points, tile_indices)


def rand_signal(spec, rng):
    return Signal(spec, rng.standard_normal(spec.order) + 1j * rng.standard_normal(spec.order))


def all_phase_points(spec):
    """(x, xi) index arrays of every phase-space point, x outer."""
    return np.divmod(np.arange(spec.order ** 2), spec.order)


# multi-factor, a point mass other than 1, mixed steps per factor, K = G
LATTICE_GROUPS = [make_group([6, 2], [3, 2]), GroupSpec((12,), (3,), 0.25),
                  make_group([4, 8], [2, 4]), make_group([8], [1])]
LATTICE_IDS = ["6x2", "z12-mass-quarter", "4x8", "z8-K-is-G"]


# ---------------------------------------------------------------------------
# lattice structure


# the first four cases keep the ids they had as (factors, divisors) pairs
@pytest.mark.parametrize(
    "spec",
    [make_group([4], [2]), make_group([6], [3]), LATTICE_GROUPS[0], make_group([8], [8])]
    + LATTICE_GROUPS[1:],
    ids=[f"factors{i}-divisors{i}" for i in range(4)] + LATTICE_IDS[1:])
def test_quasi_lattice_partitions_phase_space(spec):
    lat = quasi_lattice(spec)
    d1, d2 = coset_representatives(spec)
    assert len(lat.x) == len(lat.xi) == len(d1) * len(d2) == spec.order
    # independent cover count: every phase point hit exactly once
    pspec = phase_spec(spec)
    grid = residue_grid(pspec)
    mods = np.array(pspec.factors)
    seen = np.zeros(pspec.order, dtype=int)
    np.testing.assert_array_equal(phase_blocks(spec)[0, 0].reshape(-1), tile_indices(spec))
    for pt in lattice_phase_points(lat):
        for off in tile_indices(spec):
            res = tuple(int(v) for v in (grid[pt] + grid[off]) % mods)
            seen[int(np.ravel_multi_index(res, pspec.factors))] += 1
    assert np.all(seen == 1)


def test_lattice_points_are_the_tile_corners():
    # D1 outer, D2 inner, as the corner [:, :, 0, 0] of the tile blocks
    spec = make_group([6], [2])
    lat = quasi_lattice(spec)
    d1, d2 = coset_representatives(spec)
    points = [(x, xi) for x in d1 for xi in d2]
    assert list(zip(lat.x, lat.xi)) == points
    rows, cols = (a[:, :, 0, 0].reshape(-1) for a in np.broadcast_arrays(*phase_tiles(spec)))
    assert list(zip(rows, cols)) == points


# ---------------------------------------------------------------------------
# analysis and synthesis


def test_analysis_samples_the_transform():
    spec = make_group([6], [3])
    rng = np.random.default_rng(0)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    lat = quasi_lattice(spec)
    V = stft(f, g).mat
    coeffs = analysis(g, lat, f)
    for c, x, xi in zip(coeffs, lat.x, lat.xi):
        assert c == pytest.approx(V[x, xi], abs=1e-13)


def test_synthesis_adjoint_to_analysis():
    # <analysis(f), c> over the lattice equals <f, synthesis(c)> on the group
    spec = make_group([8], [4])
    rng = np.random.default_rng(1)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    lat = quasi_lattice(spec)
    c = rng.standard_normal(len(lat.x)) + 1j * rng.standard_normal(len(lat.x))
    lhs = np.vdot(c, analysis(g, lat, f))          # sum conj(c) <f, pi g>
    rhs = np.vdot(synthesis(g, lat, c).values, f.values) * spec.mass
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_frame_operator_matches_sum_of_projections():
    spec = make_group([4], [2])
    rng = np.random.default_rng(2)
    g = rand_signal(spec, rng)
    lat = quasi_lattice(spec)
    f = rand_signal(spec, rng)
    direct = np.zeros(4, dtype=complex)
    for c, x, xi in zip(analysis(g, lat, f), lat.x, lat.xi):
        from fingabor.signal import tf_shift

        direct += c * tf_shift(g, x, xi).values
    applied = frame_operator(g, lat) @ f.values
    np.testing.assert_allclose(applied, direct, atol=1e-12)


def test_frame_operator_rejects_mixed_groups():
    a = make_group([4], [2])
    b = make_group([6], [3])
    with pytest.raises(GroupMismatch):
        frame_operator(subgroup_indicator(b), quasi_lattice(a))


# ---------------------------------------------------------------------------
# tight systems from the subgroup indicator


@pytest.mark.parametrize("factors,divisors,mass", [([4], [2], 1.0), ([6], [3], 1.0), ([6], [3], 0.5)])
def test_indicator_window_is_tight(factors, divisors, mass):
    spec = GroupSpec(tuple(factors), tuple(divisors), mass)
    phi = subgroup_indicator(spec)
    lat = quasi_lattice(spec)
    A, B = gabor_system(phi, lat).bounds
    assert B / A - 1.0 <= 1e-10
    assert A == pytest.approx(window_constant(spec), rel=1e-12)


def test_random_points_give_loose_frame():
    spec = make_group([4], [2])
    rng = np.random.default_rng(5)
    x, xi = all_phase_points(spec)
    idx = sorted(rng.choice(16, size=9, replace=False))
    lat = lattice_from_points(spec, x[idx], xi[idx])
    g = rand_signal(spec, rng)
    A, B = gabor_system(g, lat).bounds
    assert A > 0 and B / A - 1.0 > 1e-10


def test_delta_window_on_full_lattice():
    spec = make_group([6], [6])
    delta = Signal(spec, np.eye(6)[0])
    lat = lattice_from_points(spec, *all_phase_points(spec))
    A, B = gabor_system(delta, lat).bounds
    assert A == pytest.approx(6.0, rel=1e-12)
    assert B == pytest.approx(6.0, rel=1e-12)


# ---------------------------------------------------------------------------
# dual windows and expansions


def test_dual_of_indicator_is_rescaled_indicator():
    spec = make_group([6], [3])
    phi = subgroup_indicator(spec)
    lat = quasi_lattice(spec)
    system = gabor_system(phi, lat)
    h = dual_window(system)
    A, _ = system.bounds
    np.testing.assert_allclose(h.values, phi.values / A, atol=1e-12)
    # the record's operator is the one its bounds came from
    assert not system.operator.flags.writeable


def count_frame_work(monkeypatch):
    """Patch gabor to count frame operator builds and eigensolves."""
    import fingabor.gabor as gabor

    calls = {"S": 0, "eigen": 0}
    build, eigen = gabor.frame_operator, gabor.hermitian_eigen

    def counted_build(g, lattice):
        calls["S"] += 1
        return build(g, lattice)

    def counted_eigen(S):
        calls["eigen"] += 1
        return eigen(S)

    monkeypatch.setattr(gabor, "frame_operator", counted_build)
    monkeypatch.setattr(gabor, "hermitian_eigen", counted_eigen)
    return calls


def test_dual_window_builds_one_frame_operator(monkeypatch):
    # the system carries S_{g,g} and its bounds: the dual only solves with
    # it, builds no operator and solves no eigenproblem
    spec = make_group([6], [3])
    system = gabor_system(subgroup_indicator(spec), quasi_lattice(spec))
    calls = count_frame_work(monkeypatch)
    dual_window(system)
    assert calls == {"S": 0, "eigen": 0}


@pytest.mark.parametrize("spec", [make_group([6], [3]), make_group([64], [8])],
                         ids=["z6", "z64"])
def test_run_frames_builds_one_frame_operator_per_system(monkeypatch, spec):
    # one S_{g,g} build and one eigensolve for each system the run checks
    calls = count_frame_work(monkeypatch)
    summary, _ = run_frames(spec, 0, 1)
    systems = 3
    assert (calls["S"], calls["eigen"]) == (systems, systems)
    assert "dual_window_error" not in summary


@pytest.mark.parametrize("factors,divisors", [([4], [2]), ([6], [3])])
def test_expansion_reconstructs(factors, divisors):
    spec = make_group(factors, divisors)
    phi = subgroup_indicator(spec)
    lat = quasi_lattice(spec)
    h = dual_window(gabor_system(phi, lat))
    rng = np.random.default_rng(6)
    signals = [rand_signal(spec, rng) for _ in range(20)]
    for f, (r1, r2) in zip(signals, _expansion_residuals(signals, phi, h, lat)):
        assert max(r1, r2) <= 1e-10 * max(1.0, norm_l2(f))


@pytest.mark.parametrize("spec", [
    make_group([64], [8]),
    make_group([6, 2], [3, 2]),
    GroupSpec((12,), (3,), 0.25),
    make_group([8], [1]),
    make_group([8], [8]),
], ids=["z64", "z6xz2", "z12-mass", "z8-k-is-g", "z8-trivial-k"])
def test_expansion_residuals_equal_one_signal_oracle(spec):
    # the stacks of g and h are built once, and each signal still takes its
    # own matrix-vector products: every residual is the per-signal one, bit for bit
    lat = quasi_lattice(spec)
    rng = np.random.default_rng(7)
    g = Signal(spec, subgroup_indicator(spec).values * (1.0 + rng.random(spec.order)))
    h = dual_window(gabor_system(g, lat))
    signals = [rand_signal(spec, rng) for _ in range(5)]
    want = [one_signal_expansion_residual(f, g, h, lat) for f in signals]
    assert list(_expansion_residuals(iter(signals), g, h, lat)) == want


@pytest.mark.parametrize("spec", [make_group([6], [3]), make_group([64], [8])],
                         ids=["z6", "z64"])
def test_run_frames_builds_each_window_stack_once(monkeypatch, spec):
    # the expansion trials share the stacks of g and h: the number of
    # shifted-window stacks a run gathers does not grow with the trials
    import fingabor.gabor as gabor

    calls = []
    stack = gabor.tf_shift_rows

    def counted(*args):
        calls.append(None)
        return stack(*args)

    monkeypatch.setattr(gabor, "tf_shift_rows", counted)
    counts = []
    for trials in (1, 100):
        calls.clear()
        run_frames(spec, 0, trials)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 10


def _bumped_indicator(spec):
    phi = subgroup_indicator(spec)
    return Signal(spec, phi.values + 0.3 * np.array([0.1, -0.2, 0.05, 0.15]))


def test_perturbed_window_has_no_lattice_dual():
    # the frame operator of a generic window does not commute with the
    # quasi-lattice shifts, so S^{-1} g stops generating the dual system:
    # dual_window returns it, and its reconstruction error shows it
    spec = make_group([4], [2])
    lat = quasi_lattice(spec)
    rng = np.random.default_rng(3)
    signals = [rand_signal(spec, rng) for _ in range(5)]
    for g in (_bumped_indicator(spec), rand_signal(spec, rng)):
        h = dual_window(gabor_system(g, lat))
        errors = [max(pair) for pair in _expansion_residuals(signals, g, h, lat)]
        assert min(errors) > 1e-2


def test_run_frames_fails_a_window_without_a_lattice_dual(monkeypatch):
    # the frames experiment is the one judge: the expansion check fails with
    # the measured reconstruction error, not a NaN
    spec = make_group([4], [2])
    monkeypatch.setattr(experiments, "subgroup_indicator", _bumped_indicator)
    summary, _ = run_frames(spec, 0, 5)
    entry = summary["results"]["frame-expansion"]
    assert 1e-2 < entry["residual"] < 1.0 and entry["passed"] is False
    assert "dual_window_error" not in summary


@pytest.mark.parametrize("spec", [make_group([6], [3]), make_group([4], [1])],
                         ids=["z6", "z4-K-is-G"])
def test_missing_time_coset_is_not_a_frame(spec):
    # with K = G there is one time coset, and dropping it leaves no points
    lat = quasi_lattice(spec)
    kept = lat.x != lat.x[0]
    assert not kept.all()
    deficient = lattice_from_points(spec, lat.x[kept], lat.xi[kept])
    phi = subgroup_indicator(spec)
    system = gabor_system(phi, deficient)
    A, B = system.bounds
    assert A <= 1e-10 * B
    with pytest.raises(NotAFrame):
        dual_window(system)


@pytest.mark.parametrize("spec", [make_group([6], [3]), make_group([4], [1])],
                         ids=["z6", "z4-K-is-G"])
def test_run_frames_reports_the_deficient_bounds(spec):
    summary, _ = run_frames(spec, 0, 2)
    lat = quasi_lattice(spec)
    kept = lat.x != lat.x[0]
    deficient = lattice_from_points(spec, lat.x[kept], lat.xi[kept])
    bounds = gabor_system(subgroup_indicator(spec), deficient).bounds
    assert summary["deficient_bounds"] == list(bounds)
    if spec.subgroup_order == spec.order:
        # with K = G nothing is kept, and the zero operator has A = B = 0
        assert summary["deficient_bounds"] == [0.0, 0.0]
    assert summary["results"]["deficient-lattice-collapse"]["passed"]


# Z_16/4, Z_64/8, the lattice groups (K = G among them) and a trivial K
PAINLESS_GROUPS = [make_group([16], [4]), make_group([64], [8])] + LATTICE_GROUPS + [
    make_group([8], [8])]
PAINLESS_IDS = ["z16", "z64"] + LATTICE_IDS + ["z8-K-trivial"]


@pytest.mark.parametrize("spec", PAINLESS_GROUPS, ids=PAINLESS_IDS)
def test_window_on_K_has_the_painless_closed_forms(spec):
    # the frequency transversal restricts to every character of K exactly
    # once, so S_{g,g} is diagonal with entries c |g|^2, c = mass |K|, each
    # value of g on K once per time coset
    rng = np.random.default_rng(14)
    on_K = np.isin(np.arange(spec.order), subgroup_points(spec))
    values = np.zeros(spec.order, dtype=complex)
    values[on_K] = rng.standard_normal(on_K.sum()) + 1j * rng.standard_normal(on_K.sum())
    system = gabor_system(Signal(spec, values), quasi_lattice(spec))
    c = spec.mass * spec.subgroup_order
    sq = np.abs(values[on_K]) ** 2
    S = system.operator
    cosets = spec.order // spec.subgroup_order
    np.testing.assert_allclose(np.sort(np.diag(S).real), np.sort(np.tile(c * sq, cosets)),
                               rtol=1e-12, atol=0)
    assert np.max(np.abs(S - np.diag(np.diag(S)))) <= 1e-12 * c * sq.max()
    A, B = system.bounds
    assert max(abs(A - c * sq.min()), abs(B - c * sq.max())) <= 1e-12 * c * sq.max()
    closed = np.zeros(spec.order, dtype=complex)
    closed[on_K] = values[on_K] / (c * sq)
    h = dual_window(system)
    assert np.max(np.abs(h.values - closed)) <= 1e-12 * np.max(np.abs(closed))
    # the frames experiment checks its own seeded window the same way
    summary, _ = run_frames(spec, 0, 1)
    assert "painless_dual_error" not in summary
    for name in ("painless-frame-bounds", "painless-dual"):
        assert summary["results"][name]["passed"], summary["results"][name]


def test_run_frames_reports_a_non_frame(monkeypatch):
    def not_a_frame(*args):
        raise NotAFrame("lower frame bound 0.0 vanishes against 1.0")

    monkeypatch.setattr(experiments, "dual_window", not_a_frame)
    summary, _ = run_frames(make_group([6], [3]), 0, 2)
    assert summary["dual_window_error"] == (
        "NotAFrame: lower frame bound 0.0 vanishes against 1.0")
    assert "dual_window_norm" not in summary
    entry = summary["results"]["frame-expansion"]
    assert math.isnan(entry["residual"]) and entry["passed"] is False
    # the painless system's dual fails the same way, and its check with it
    assert summary["painless_dual_error"].startswith("NotAFrame: ")
    entry = summary["results"]["painless-dual"]
    assert math.isnan(entry["residual"]) and entry["passed"] is False


def test_run_frames_propagates_a_programming_error(monkeypatch):
    # only a frame that has no dual is reported; any other error is a bug
    def broken(*args):
        raise TypeError("dual_window() got an unexpected argument")

    monkeypatch.setattr(experiments, "dual_window", broken)
    with pytest.raises(TypeError, match="unexpected argument"):
        run_frames(make_group([6], [3]), 0, 2)


# ---------------------------------------------------------------------------
# lattice sequence norms


def test_discrete_modnorm_euclidean_case():
    spec = make_group([8], [2])
    rng = np.random.default_rng(7)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    lat = quasi_lattice(spec)
    c = analysis(g, lat, f)
    assert discrete_modnorm(f, g, (2, 2)) == pytest.approx(
        float(np.linalg.norm(c)), rel=1e-12
    )
    assert discrete_modnorm(f, g, (math.inf, math.inf)) == pytest.approx(
        float(np.max(np.abs(c))), rel=1e-12
    )


def test_discrete_modnorm_weighted_and_grouped():
    spec = make_group([6], [3])
    rng = np.random.default_rng(8)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    lat = quasi_lattice(spec)
    d1, d2 = coset_representatives(spec)
    c = np.abs(analysis(g, lat, f)).reshape(len(d1), len(d2))
    m = 1.0 + rng.random(len(lat.x))
    got = discrete_modnorm(f, g, (1, 2), Weight(m))
    inner = (c * m.reshape(len(d1), len(d2))).sum(axis=0)
    assert got == pytest.approx(float(np.sqrt((inner ** 2).sum())), rel=1e-12)


def test_discrete_modnorm_weight_needs_one_value_per_point(monkeypatch):
    # a single weight is not broadcast over the lattice, and the length is
    # checked before any analysis runs
    import fingabor.gabor as gabor

    spec = make_group([4], [2])
    f, g = Signal(spec, [1, 2, 3, 4]), subgroup_indicator(spec)
    assert discrete_modnorm(f, g, (2, 2), Weight(np.full(4, 2.0))) == pytest.approx(
        2 * discrete_modnorm(f, g, (2, 2)), rel=1e-12)
    monkeypatch.setattr(gabor, "analysis", None)
    for m in (Weight([2.0]), Weight(np.full(5, 2.0))):
        with pytest.raises(GroupMismatch, match="weights for 4 lattice points"):
            discrete_modnorm(f, g, (2, 2), m)


def test_synthesis_needs_one_coefficient_per_point():
    spec = make_group([4], [2])
    phi, lat = subgroup_indicator(spec), quasi_lattice(spec)
    for coeffs in (np.ones(1), np.ones(3), np.ones((4, 4))):
        with pytest.raises(GroupMismatch, match="coefficients for 4 lattice points"):
            synthesis(phi, lat, coeffs)


# every function that pairs a lattice with signals or a symbol: each gets
# the canonical lattice of Z_16/4 and one signal or symbol of Z_16/2, a
# group of the same order with another subgroup (discrete_modnorm takes the
# lattice of its signal's group, so there the window is on Z_16/4)
LATTICE_PAIRINGS = {
    "analysis-window": lambda f, phi, sigma, lat: analysis(f, lat, phi),
    "analysis-signal": lambda f, phi, sigma, lat: analysis(phi, lat, f),
    "synthesis": lambda f, phi, sigma, lat: synthesis(f, lat, np.ones(len(lat.x))),
    "frame-operator": lambda f, phi, sigma, lat: frame_operator(f, lat),
    "expansion-windows": lambda f, phi, sigma, lat: next(_expansion_residuals([phi], f, f, lat)),
    "expansion-signal": lambda f, phi, sigma, lat: next(_expansion_residuals([f], phi, phi, lat)),
    "discrete-modnorm": lambda f, phi, sigma, lat: discrete_modnorm(phi, f, (2, 2)),
    "gabor-matrix": lambda f, phi, sigma, lat: gabor_matrix(sigma, f, lat),
    "gabor-closed-form": lambda f, phi, sigma, lat: gabor_matrix_closed_form(sigma, lat),
}


@pytest.mark.parametrize("call", LATTICE_PAIRINGS.values(), ids=LATTICE_PAIRINGS.keys())
def test_lattice_of_another_group_is_refused(call):
    spec, other = make_group([16], [4]), make_group([16], [2])
    f = subgroup_indicator(other)
    sigma = PhaseFunction(other, np.ones(other.order ** 2))
    with pytest.raises(GroupMismatch, match=re.escape(repr(other))) as raised:
        call(f, subgroup_indicator(spec), sigma, quasi_lattice(spec))
    assert repr(spec) in str(raised.value)


# ---------------------------------------------------------------------------
# coset-level coefficients


@pytest.mark.parametrize("spec", [make_group([6], [2])] + LATTICE_GROUPS,
                         ids=["z6"] + LATTICE_IDS)
def test_quotient_coefficients_brute_force(spec):
    rng = np.random.default_rng(9)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    lat = quasi_lattice(spec)
    q = quotient_coefficients(f, g)
    assert q.shape == (len(lat.x),)
    pspec = phase_spec(spec)
    grid = residue_grid(pspec)
    mods = np.array(pspec.factors)
    V = np.abs(stft(f, g).values)
    for i, pt in enumerate(lattice_phase_points(lat)):
        best = 0.0
        for off in tile_indices(spec):
            res = tuple(int(v) for v in (grid[pt] + grid[off]) % mods)
            best = max(best, V[int(np.ravel_multi_index(res, pspec.factors))])
        assert q[i] == best


@pytest.mark.parametrize(
    "spec", [make_group([8], [d]) for d in (1, 2, 4, 8)] + LATTICE_GROUPS[:3],
    ids=["1", "2", "4", "8"] + LATTICE_IDS[:3])
def test_representative_choice_is_immaterial(spec):
    # the coset-representative-independence trial, twice
    rng = np.random.default_rng(10)
    for _ in range(2):
        assert _representative_independence_residual(spec, rng) == 0.0


@pytest.mark.parametrize("spec", [make_group([16], [4]), make_group([6, 2], [3, 2]),
                                  GroupSpec((12,), (3,), 0.25)],
                         ids=["z16", "6x2", "z12-mass-quarter"])
def test_wrong_coset_map_fails_the_representative_sweep(monkeypatch, spec):
    # each point of a tile names its tile through the coset maps, so a map
    # rolled by one makes the check fail
    clean = experiments.quotient_indices
    monkeypatch.setattr("fingabor.experiments.quotient_indices", lambda s: (
        clean(s)[0], np.roll(clean(s)[1], 1), clean(s)[2]))
    assert _representative_independence_residual(spec, np.random.default_rng(10)) > 0.0
    summary, _ = run_identities(spec, seed=0, trials=2,
                                names=["coset-representative-independence"])
    assert summary["results"]["coset-representative-independence"]["passed"] is False
    [failure] = summary["failures"]
    assert re.fullmatch(r"coset-representative-independence: residual \S+ exceeds tolerance "
                        r"0\.000e\+00", failure)


def test_nan_transform_fails_the_representative_sweep(monkeypatch):
    # max(0.0, nan) is 0.0: the sweep must keep a NaN coefficient
    monkeypatch.setattr("fingabor.experiments.stft", lambda f, g: PhaseFunction(
        f.group, np.full(f.group.order ** 2, math.nan)))
    spec = make_group([16], [4])
    summary, _ = run_identities(spec, seed=0, trials=2,
                                names=["coset-representative-independence"])
    result = summary["results"]["coset-representative-independence"]
    assert result["passed"] is False and math.isnan(result["residual"])
    assert summary["failures"] == ["coset-representative-independence: residual nan exceeds tolerance 0.000e+00"]
