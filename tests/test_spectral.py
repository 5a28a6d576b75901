import math
import warnings

import numpy as np
import pytest

from fingabor import experiments, gabor, spectral
from fingabor.experiments import (_control_matrix, bump_symbol, run_decay, run_identities,
                                  stream_rng)
from fingabor.gabor import quasi_lattice
from fingabor.group import GroupMismatch, GroupSpec, make_group
from fingabor.operators import localization_matrix
from fingabor.signal import norm_l2, subgroup_indicator
from fingabor.spectral import (
    DegenerateSpectrum,
    NotHermitian,
    _haar_rows,
    check_seed,
    decay_comparison,
    decay_profiles,
    eigenvector,
    haar_baseline,
    hermitian_eigen,
)
from oracles import dense_amalgam, eager_eigenpairs, haar_random_unit, mixed_quasi_norm


def random_hermitian(spec, seed):
    rng = np.random.default_rng(seed)
    n = spec.order
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (Z + Z.conj().T) / 2


# ---------------------------------------------------------------------------
# eigensolver


def test_eigen_matches_reference_solver():
    spec = make_group([8], [2])
    M = random_hermitian(spec, 0)
    values, columns = hermitian_eigen(M)
    assert values.dtype == np.float64 and columns.shape == (spec.order, spec.order)
    ref = sorted(np.linalg.eigvalsh(M))
    np.testing.assert_allclose(sorted(values), ref, atol=1e-10 * np.linalg.norm(M))


def test_eigen_pairs_satisfy_the_equation():
    spec = GroupSpec((6,), (3,), 0.5)
    M = random_hermitian(spec, 1)
    scale = np.linalg.norm(M)
    values, columns = hermitian_eigen(M)
    for i, value in enumerate(values):
        vec = eigenvector(spec, columns[:, i])
        res = M @ vec.values - value * vec.values
        assert np.linalg.norm(res) < 1e-9 * scale
        # unit in the mass-weighted inner product
        assert norm_l2(vec) == pytest.approx(1.0, rel=1e-12)


def test_eigen_diagonal_matrix_is_exact():
    spec = make_group([4], [2])
    M = np.diag([3.0, -1.0, 0.5, 2.0])
    values, columns = hermitian_eigen(M)
    assert values.tolist() == [3.0, 2.0, -1.0, 0.5]
    # eigenvectors are coordinate vectors with positive real phase
    for i, idx in enumerate([0, 3, 1, 2]):
        vec = eigenvector(spec, columns[:, i]).values
        assert vec[idx] == pytest.approx(1.0)
        assert np.abs(vec).sum() == pytest.approx(1.0)


def test_eigen_ordering_breaks_magnitude_ties_downward():
    spec = make_group([3], [3])
    M = np.diag([-2.0, 1.0, 2.0])
    assert hermitian_eigen(M)[0].tolist() == [2.0, -2.0, 1.0]


def test_eigen_phase_convention():
    spec = make_group([6], [3])
    M = random_hermitian(spec, 2)
    _, columns = hermitian_eigen(M)
    for column in columns.T:
        vec = eigenvector(spec, column).values
        mags = np.abs(vec)
        lead = vec[int(np.argmax(mags > 1e-12 * mags.max()))]
        assert abs(lead.imag) < 1e-12
        assert lead.real > 0


def test_eigen_is_deterministic():
    spec = make_group([6], [2])
    M = random_hermitian(spec, 3)
    a, b = hermitian_eigen(M), hermitian_eigen(M)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    for ca, cb in zip(a[1].T, b[1].T):
        assert np.array_equal(eigenvector(spec, ca).values, eigenvector(spec, cb).values)


def test_eigen_degenerate_top_eigenspace():
    spec = make_group([6], [3])
    rng = np.random.default_rng(6)
    U, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    M = U @ np.diag([2.0, 2.0, 1.0, 0.5, -0.25, 0.125]) @ U.conj().T
    values, columns = hermitian_eigen(M)
    np.testing.assert_allclose(values[:3], [2.0, 2.0, 1.0], atol=1e-12)
    vecs = [eigenvector(spec, column) for column in columns.T]
    for value, v in zip(values, vecs):
        vec = v.values
        assert np.linalg.norm(M @ vec - value * vec) < 1e-12
        assert norm_l2(v) == pytest.approx(1.0, rel=1e-12)
        mags = np.abs(vec)
        lead = vec[int(np.argmax(mags > 1e-12 * mags.max()))]
        assert abs(lead.imag) < 1e-12
        assert lead.real > 0
    # the two vectors of the tied eigenvalue span its eigenspace
    assert abs(np.vdot(vecs[0].values, vecs[1].values)) < 1e-12
    rep = decay_comparison(spec, M, haar_baseline(spec, 20, 0), top_k=3)
    assert rep["ties"] == [True, True, False]


def decay_localization_matrix():
    # decay's operator on Z_64/8: its top eigenspace is tied
    spec = make_group([64], [8])
    phi = subgroup_indicator(spec)
    return spec, localization_matrix(bump_symbol(spec), phi, phi)


def hermitian_case(spec, seed):
    return lambda: (spec, random_hermitian(spec, seed))


@pytest.mark.parametrize("make", [
    hermitian_case(make_group([8], [2]), 7),
    hermitian_case(GroupSpec((6,), (3,), 0.5), 8),
    hermitian_case(make_group([6, 2], [3, 2]), 9),
    hermitian_case(make_group([64], [8]), 10),
    lambda: (make_group([4], [2]), np.diag([3.0, -1.0, 0.5, 2.0])),
    decay_localization_matrix,
], ids=["z8", "z6-mass", "z6xz2", "z64", "diagonal", "decay-z64"])
def test_lazy_eigenvectors_equal_eager_oracle(make):
    spec, M = make()
    values, columns = hermitian_eigen(M)
    eager = eager_eigenpairs(spec, M)
    assert len(values) == len(eager) == columns.shape[1]
    np.testing.assert_array_equal(values, [value for value, _ in eager])
    for i, (_, vec) in enumerate(eager):
        assert np.array_equal(eigenvector(spec, columns[:, i]).values, vec.values)


def counted_eigenvector(monkeypatch):
    """Patch spectral.eigenvector to count its calls."""
    calls = []

    def wrapper(spec, column, _real=spectral.eigenvector):
        calls.append(column)
        return _real(spec, column)

    monkeypatch.setattr(spectral, "eigenvector", wrapper)
    return calls


def test_decay_comparison_normalizes_only_the_vectors_it_reads(monkeypatch):
    calls = counted_eigenvector(monkeypatch)
    spec, M = decay_localization_matrix()
    decay_comparison(spec, M, haar_baseline(spec, 20, 0), top_k=3)
    assert len(calls) == 3


def test_frame_bounds_normalizes_no_vector(monkeypatch):
    calls = counted_eigenvector(monkeypatch)
    spec = make_group([6, 2], [3, 2])
    gabor.gabor_system(subgroup_indicator(spec), quasi_lattice(spec))
    assert calls == []


def test_eigen_rejects_non_hermitian():
    spec = make_group([4], [2])
    with pytest.raises(NotHermitian):
        hermitian_eigen(np.arange(16.0).reshape(4, 4))


def test_eigen_rejects_non_square():
    for entries in (np.ones((3, 4)), np.ones(4), np.ones((2, 2, 2))):
        with pytest.raises(NotHermitian, match="square"):
            hermitian_eigen(entries)


@pytest.mark.parametrize("spec", [make_group([8], [2]), GroupSpec((6,), (3,), 0.5),
                                  make_group([6, 2], [3, 2])], ids=["z8", "z6-mass", "z6xz2"])
def test_real_matrix_is_solved_as_its_complex_copy(spec):
    # LAPACK's real and complex solvers round differently; a real matrix goes
    # through the complex one, so the results do not depend on the input dtype
    Z = np.random.default_rng(20).standard_normal((spec.order, spec.order))
    real = (Z + Z.T) / 2
    values, columns = hermitian_eigen(real)
    cvalues, ccolumns = hermitian_eigen(real.astype(np.complex128))
    assert columns.dtype == np.complex128
    assert np.array_equal(values, cvalues) and np.array_equal(columns, ccolumns)
    baseline = haar_baseline(spec, 20, 0)
    assert (decay_comparison(spec, real, baseline)
            == decay_comparison(spec, real.astype(np.complex128), baseline))


def test_decay_comparison_needs_a_matrix_of_the_group():
    spec = make_group([4], [2])
    with pytest.raises(GroupMismatch, match="4 x 4"):
        decay_comparison(spec, np.eye(6), haar_baseline(spec, 5, 0))


@pytest.mark.parametrize("entries", [
    np.diag([1.0, np.nan, 2.0, 0.5]),
    np.diag([1.0, np.inf, 2.0, 0.5]),
    np.where(np.arange(16).reshape(4, 4) == 1, np.inf, np.eye(4)),
], ids=["nan-diagonal", "inf-diagonal", "inf-one-sided"])
def test_eigen_rejects_non_finite(entries):
    # LAPACK would return unsorted or all-NaN values for these; the check
    # refuses them first, without a floating-point warning
    spec = make_group([4], [2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitian):
            hermitian_eigen(entries)


# ---------------------------------------------------------------------------
# random unit vectors


def test_haar_vectors_reproducible_and_unit():
    spec = GroupSpec((8,), (2,), 0.5)
    a = haar_random_unit(spec, seed=7, trial=13)
    b = haar_random_unit(spec, seed=7, trial=13)
    assert np.array_equal(a.values, b.values)
    assert norm_l2(a) == pytest.approx(1.0, rel=1e-12)
    c = haar_random_unit(spec, seed=7, trial=14)
    assert not np.array_equal(a.values, c.values)
    d = haar_random_unit(spec, seed=8, trial=13)
    assert not np.array_equal(a.values, d.values)


def fresh_generator_unit(spec, seed, trial):
    """The Haar draw from a Philox generator built afresh for (seed, trial)."""
    key = np.array([seed, trial], dtype=np.uint64)
    z = np.random.Generator(np.random.Philox(key=key)).standard_normal(2 * spec.order)
    vec = z[: spec.order] + 1j * z[spec.order :]
    return vec / (np.linalg.norm(vec) * math.sqrt(spec.mass))


@pytest.mark.parametrize("seed", [0, 1, 2**40, 2**64 - 1])
def test_haar_draws_equal_fresh_generators(seed):
    spec = GroupSpec((64,), (8,), 0.25)
    trials = 500
    oracle = np.stack([fresh_generator_unit(spec, seed, t) for t in range(trials)])
    assert np.array_equal(_haar_rows(spec, seed, range(trials)), oracle)
    for t in (0, 1, 257, trials - 1):
        assert np.array_equal(haar_random_unit(spec, seed, t).values, oracle[t])


@pytest.mark.parametrize("spec", [
    make_group([6, 2], [3, 2]),
    GroupSpec((12,), (3,), 0.25),
    make_group([4, 8], [2, 4]),
], ids=["z6xz2", "z12-mass", "z4xz8"])
@pytest.mark.parametrize("trials", [[5, 3, 1000], [7]], ids=["scattered", "single"])
def test_haar_block_equals_fresh_generators(spec, trials):
    oracle = np.stack([fresh_generator_unit(spec, 2, t) for t in trials])
    assert np.array_equal(_haar_rows(spec, 2, trials), oracle)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seeds_outside_64_bits_are_refused(seed):
    # a masked seed would rerun another seed's streams
    with pytest.raises(ValueError):
        check_seed(seed)
    with pytest.raises(ValueError):
        stream_rng(seed, 0)
    with pytest.raises(ValueError):
        _haar_rows(make_group([8], [2]), seed, range(3))


@pytest.mark.parametrize("seed", [1.5, True, np.True_, 7.0, "7"],
                         ids=["float", "bool", "numpy-bool", "integral-float", "str"])
def test_seeds_that_are_not_integers_are_refused(seed):
    # int(1.5) and True would both draw seed 1's streams under another label
    with pytest.raises(ValueError, match="seed must be an integer"):
        check_seed(seed)
    with pytest.raises(ValueError):
        stream_rng(seed, 0)
    with pytest.raises(ValueError):
        run_identities(make_group([4], [2]), seed, 1)


def test_numpy_integer_seeds_draw_the_python_int_streams():
    assert type(check_seed(np.uint64(7))) is int and check_seed(np.uint64(7)) == 7
    assert np.array_equal(stream_rng(np.uint64(7), 3).standard_normal(8),
                          stream_rng(7, 3).standard_normal(8))
    spec = make_group([8], [2])
    assert np.array_equal(_haar_rows(spec, np.int64(7), range(3)), _haar_rows(spec, 7, range(3)))
    summary, _ = run_identities(make_group([4], [2]), np.uint64(7), 1, names=["stft-shift"])
    assert type(summary["seed"]) is int
    assert summary == run_identities(make_group([4], [2]), 7, 1, names=["stft-shift"])[0]


@pytest.mark.parametrize("seed", [2**63 + 5, 2**64 - 1])
def test_stream_keys_hold_every_64_bit_seed(seed):
    # a key list of Python ints this large goes through float64 in Philox
    # and lands on a multiple of 2^11, or on 0 for 2^64 - 1
    key = np.array([seed, 3], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).standard_normal(8)
    assert np.array_equal(stream_rng(seed, 3).standard_normal(8), want)
    assert not np.array_equal(stream_rng(seed, 3).standard_normal(8),
                              stream_rng(seed - 1, 3).standard_normal(8))


def test_haar_block_takes_no_per_row_norm(monkeypatch):
    spec = make_group([64], [8])
    oracle = np.stack([fresh_generator_unit(spec, 0, t) for t in range(500)])

    def per_row_norm(*args, **kwargs):
        raise AssertionError("per-row np.linalg.norm in the Haar block")

    monkeypatch.setattr(np.linalg, "norm", per_row_norm)
    assert np.array_equal(_haar_rows(spec, 0, range(500)), oracle)


# ---------------------------------------------------------------------------
# decay profiles


def test_flat_vector_ratio_closed_form():
    # trivial subgroup: |V| only sees |f|, so a flat unit vector gives
    # mixed norm n^(1/gamma) / sqrt(n) relative to gamma = 2
    spec = make_group([8], [8])
    gammas = (0.5, 1.0, 2.0)
    _, ratios = decay_profiles(spec, np.full((1, 8), 1 / np.sqrt(8)), gammas)
    for g, ratio in zip(gammas, ratios[0]):
        assert ratio == pytest.approx(8.0 ** (1 / g - 0.5), rel=1e-12)


def test_delta_is_more_concentrated_than_flat():
    spec = make_group([8], [8])
    d, f = decay_profiles(spec, np.stack([np.eye(8)[0], np.full(8, 1 / np.sqrt(8))]),
                          (0.5, 1.0, 2.0))[1]
    # small gamma penalizes spreading
    assert d[0] == pytest.approx(1.0, rel=1e-12)
    assert d[0] < f[0]


# ---------------------------------------------------------------------------
# eigenfunction concentration ranking


def test_decay_comparison_reports_consistent_fields():
    spec = make_group([8], [2])
    M = random_hermitian(spec, 4)
    rep = decay_comparison(spec, M, haar_baseline(spec, 50, 0), top_k=2)
    assert len(rep["eigenvalues"]) == 2
    assert len(rep["percentiles"]) == 2
    assert len(rep["ties"]) == 2
    assert rep["trials"] == 50 and "seed" not in rep and rep["ref_gamma"] == 0.5
    for pct in rep["percentiles"]:
        assert 0.0 <= pct <= 100.0
    for prof in rep["profiles"]:
        gammas = [row["gamma"] for row in prof]
        assert 0.5 in gammas and 2.0 in gammas
        for row in prof:
            assert row["norm"] > 0 and row["ratio"] > 0


def test_decay_comparison_ranks_within_the_baseline_it_is_given():
    # percentiles divide by the baseline's own length, whatever drew it
    spec = make_group([8], [2])
    M = random_hermitian(spec, 4)
    baseline = haar_baseline(spec, 40, 0)
    rep = decay_comparison(spec, M, baseline, top_k=3)
    assert rep["trials"] == 40
    assert len(rep["percentiles"]) == 3
    for prof, pct in zip(rep["profiles"], rep["percentiles"]):
        v = next(row["ratio"] for row in prof if row["gamma"] == rep["ref_gamma"])
        rank = np.count_nonzero(baseline < v) + 0.5 * np.count_nonzero(baseline == v)
        assert pct == 100.0 * rank / 40
        assert 0.0 <= pct <= 100.0


@pytest.mark.parametrize("diag, top_k, ties", [
    ([2.0, -2.0, 1.0, 0.5], 3, [True, True, False]),
    ([3.0, -1.0, 0.5, 2.0], 3, [False, False, False]),
    # the partner of a tie may lie below the top k
    ([3.0, 1.0, -1.0, 0.5], 2, [False, True]),
    # tied within 1e-10 of the leading modulus, and just outside it
    ([2.0, 1.0, 1.0 + 1e-11, 0.25], 4, [False, True, True, False]),
    ([2.0, 1.0, 1.0 + 1e-9, 0.25], 4, [False, False, False, False]),
], ids=["pair", "none", "below-top-k", "within-tol", "outside-tol"])
def test_decay_comparison_flags_tied_moduli(diag, top_k, ties):
    spec = make_group([4], [2])
    assert decay_comparison(spec, np.diag(diag), haar_baseline(spec, 5, 0),
                            top_k=top_k)["ties"] == ties


def test_decay_comparison_is_deterministic():
    spec = make_group([6], [3])
    M = random_hermitian(spec, 5)
    a = decay_comparison(spec, M, haar_baseline(spec, 40, 11), top_k=1)
    b = decay_comparison(spec, M, haar_baseline(spec, 40, 11), top_k=1)
    assert a == b


# trivial K and K = G included: with K = G one signal is a one-row product
over_decay_groups = pytest.mark.parametrize("spec", [
    make_group([64], [8]),
    make_group([6, 2], [3, 2]),
    GroupSpec((12,), (3,), 0.25),
    make_group([4, 8], [2, 4]),
    make_group([8], [8]),
    make_group([8], [1]),
], ids=["z64", "z6xz2", "z12-mass", "z4xz8", "z8-trivial-k", "z8-k-is-g"])


@over_decay_groups
def test_haar_baseline_blocks_equal_serial_profiles(spec):
    gammas = (0.5, 1.0, 2.0)
    trials = 37
    serial = np.concatenate([
        decay_profiles(spec, haar_random_unit(spec, 3, t).values[None, :], gammas)[1]
        for t in range(trials)
    ])
    assert np.array_equal(decay_profiles(spec, _haar_rows(spec, 3, range(trials)), gammas)[1],
                          serial)
    baseline = haar_baseline(spec, trials, seed=3)
    assert np.array_equal(baseline, serial[:, 0])
    # decay_comparison ranks against exactly this baseline
    rep = decay_comparison(spec, random_hermitian(spec, 6), baseline, top_k=1)
    v = rep["profiles"][0][0]["ratio"]
    rank = np.count_nonzero(serial[:, 0] < v) + 0.5 * np.count_nonzero(serial[:, 0] == v)
    assert rep["percentiles"] == [100.0 * rank / trials]


@over_decay_groups
def test_decay_comparison_profiles_its_vectors_in_one_call(spec, monkeypatch):
    # the top-k eigenvectors go to the kernel as one stack, and each row of
    # the report equals that vector profiled on its own
    M = random_hermitian(spec, 6)
    gammas = (0.5, 1.0, 2.0)
    trials = 20
    baseline = haar_baseline(spec, trials, seed=2)
    calls = []

    def counting(spec, F, exps, _real=spectral.modulation_norms):
        calls.append(F.shape)
        return _real(spec, F, exps)

    monkeypatch.setattr(spectral, "modulation_norms", counting)
    rep = decay_comparison(spec, M, baseline, gammas, top_k=3)
    assert calls == [(3, spec.order)]
    monkeypatch.undo()
    columns = hermitian_eigen(M)[1]
    for column, prof, pct in zip(columns.T, rep["profiles"], rep["percentiles"]):
        (norms,), (ratios,) = decay_profiles(spec, eigenvector(spec, column).values[None, :], gammas)
        assert [row["norm"] for row in prof] == norms.tolist()
        assert [row["ratio"] for row in prof] == ratios.tolist()
        v = ratios[0]
        rank = np.count_nonzero(baseline < v) + 0.5 * np.count_nonzero(baseline == v)
        assert pct == 100.0 * rank / trials


def dense_profile(f, gammas):
    """Decay norms by the dense route: full STFT, tile maximum, mixed norm."""
    M = dense_amalgam(f)
    return np.array([mixed_quasi_norm(M, (g, g)) for g in gammas])


@over_decay_groups
def test_quotient_profiles_match_dense_oracle(spec):
    gammas = (0.5, 1.0, 2.0, math.inf)
    trials = 12
    baseline = decay_profiles(spec, _haar_rows(spec, 4, range(trials)), gammas)[1]
    for t in range(trials):
        f = haar_random_unit(spec, 4, t)
        norms = dense_profile(f, gammas + (2.0,))
        (prof_norms,), (prof_ratios,) = decay_profiles(spec, f.values[None, :], gammas)
        np.testing.assert_allclose(prof_norms, norms[:-1], rtol=1e-13, atol=0)
        np.testing.assert_allclose(prof_ratios, norms[:-1] / norms[-1], rtol=1e-13, atol=0)
        np.testing.assert_allclose(baseline[t], norms[:-1] / norms[-1], rtol=1e-13, atol=0)


def test_decay_comparison_rejects_null_operator():
    spec = make_group([4], [2])
    with pytest.raises(DegenerateSpectrum):
        decay_comparison(spec, np.zeros((4, 4)), haar_baseline(spec, 5, 0))


def test_decay_comparison_rejects_an_empty_baseline():
    # zero trials draw an empty baseline: refused before any percentile is divided
    # (run_decay refuses zero trials before it draws one)
    spec = make_group([8], [2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-empty baseline"):
            decay_comparison(spec, np.eye(8), haar_baseline(spec, 0, 0), (1.0,), 1)


def test_decay_comparison_refuses_no_eigenfunctions():
    spec = make_group([4], [2])
    with pytest.raises(ValueError, match="top_k"):
        decay_comparison(spec, np.eye(4), haar_baseline(spec, 5, 0), top_k=0)


@pytest.mark.parametrize("top_k", [True, 2.5, 0], ids=["bool", "fraction", "zero"])
def test_decay_comparison_refuses_a_top_k_of_no_eigenvector_count(top_k):
    # spectral owns the rule: True ranked one eigenvector, and 2.5 ended in
    # numpy's TypeError
    spec = make_group([8], [2])
    diag = np.diag(np.arange(1.0, 9.0))
    with pytest.raises(ValueError, match="top_k must be an integer of at least one"):
        decay_comparison(spec, diag, haar_baseline(spec, 20, 0), top_k=top_k)


def test_run_decay_draws_each_seed_baseline_once(monkeypatch):
    # seed 0 is also control seed 0: its baseline is drawn once and shared,
    # and every report equals the one with a baseline of its own
    seen = []

    def counting(spec, trials, seed, _real=spectral.haar_baseline):
        seen.append(seed)
        return _real(spec, trials, seed)

    monkeypatch.setattr(spectral, "haar_baseline", counting)
    monkeypatch.setattr(experiments, "haar_baseline", counting, raising=False)
    spec = make_group([16], [4])
    summary, _ = run_decay(spec, 0, 40, control_seeds=(0, 1, 0))
    assert sorted(seen) == [0, 1]
    monkeypatch.undo()
    phi = subgroup_indicator(spec)
    A = localization_matrix(bump_symbol(spec), phi, phi)
    assert summary["localization"] == {**decay_comparison(spec, A, haar_baseline(spec, 40, 0)),
                                       "seed": 0}
    for control, cs in zip(summary["controls"], (0, 1, 0)):
        rep = decay_comparison(spec, _control_matrix(16, cs), haar_baseline(spec, 40, cs),
                               top_k=1)
        assert control["percentile"] == rep["percentiles"][0]
        assert control["top_ratio"] == rep["profiles"][0][0]["ratio"]
