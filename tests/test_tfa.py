import cmath

import numpy as np
import pytest

from fingabor.experiments import (
    _covariant_rihaczek,
    _magic_formula_residual,
    _moyal_residual,
    _rihaczek_covariance_residual,
    _shifted_pair_args,
    _stft_shift_identity_residual,
    stream_rng,
)
from fingabor.group import (
    GroupSpec,
    annihilator_indices,
    make_group,
    phase_spec,
    subgroup_indices,
)
from fingabor.signal import Signal, fourier, inner, subgroup_indicator
from fingabor.tfa import rihaczek, stft, window_constant
from oracles import gaussian_circ, phase_space_rihaczek_covariance, residues, sub


def rand_signal(spec, rng):
    return Signal(spec, rng.standard_normal(spec.order) + 1j * rng.standard_normal(spec.order))


def brute_stft(f, g):
    """V_g f by explicit loops and cmath, no shared code with the library."""
    spec = f.group
    n = spec.order
    out = np.zeros((n, n), dtype=complex)
    for ix in range(n):
        for ixi in range(n):
            acc = 0j
            for iy in range(n):
                t = sum(a * b / m for a, b, m in zip(residues(spec, ixi), residues(spec, iy),
                                                     spec.factors))
                acc += (
                    f.values[iy]
                    * np.conj(g.values[sub(spec, iy, ix)])
                    * cmath.exp(-2j * cmath.pi * t)
                )
            out[ix, ixi] = acc * spec.mass
    return out


# ---------------------------------------------------------------------------
# STFT


@pytest.mark.parametrize("factors,divisors,mass", [([6], [3], 1.0), ([4], [2], 0.25), ([3, 2], [3, 1], 1.0)])
def test_stft_matches_brute_force(factors, divisors, mass):
    spec = GroupSpec(tuple(factors), tuple(divisors), mass)
    rng = np.random.default_rng(0)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    np.testing.assert_allclose(stft(f, g).mat, brute_stft(f, g), atol=1e-13)


def test_stft_lives_on_phase_spec():
    spec = GroupSpec((6,), (3,), 0.5)
    f = subgroup_indicator(spec)
    V = stft(f, f)
    assert V.group == spec
    assert phase_spec(spec).mass == pytest.approx(spec.mass * spec.mass_dual)


def test_stft_of_shift_is_inner_product():
    # <pi(x, xi) g, pi(x, xi) g> recovers the window energy at the origin
    spec = make_group([6], [3])
    g = subgroup_indicator(spec)
    V = stft(g, g)
    assert V.mat[0, 0] == pytest.approx(inner(g, g))


# ---------------------------------------------------------------------------
# window transform support


@pytest.mark.parametrize("factors,divisors", [([4], [2]), ([6], [3]), ([6, 2], [3, 2]), ([8], [8])])
def test_window_transform_support_exact(factors, divisors):
    spec = make_group(factors, divisors)
    phi = subgroup_indicator(spec)
    V = stft(phi, phi).mat
    kk = subgroup_indices(spec)
    aa = annihilator_indices(spec)
    c = window_constant(spec)
    assert c == spec.subgroup_order * spec.mass
    # on the tile the value is the constant, bit for bit
    on = V[np.ix_(kk, aa)]
    assert np.array_equal(on, np.full(on.shape, c))
    # rows off the subgroup vanish identically
    off_rows = np.setdiff1d(np.arange(spec.order), kk)
    if off_rows.size:
        assert np.array_equal(V[off_rows, :], np.zeros((off_rows.size, spec.order)))
    # remaining off-tile entries are summation dust
    mask = np.zeros(V.shape, dtype=bool)
    mask[np.ix_(kk, aa)] = True
    assert np.max(np.abs(V[~mask])) < 1e-12 if (~mask).any() else True


def test_window_constant_scales_with_mass():
    spec = GroupSpec((6,), (3,), 1 / 6)
    assert window_constant(spec) == pytest.approx(2 / 6)


def test_gaussian_circ_is_scaled_indicator():
    # chi_K * chi_K = |K| mass chi_K, and its value at 0 is the window
    # constant bit for bit, which the convolution relation probe reads instead
    for spec in (make_group([6], [3]), GroupSpec((12,), (3,), 0.25), make_group([6, 2], [3, 2]),
                 GroupSpec((9,), (3,), 0.3), make_group([8], [8])):
        circ = gaussian_circ(spec)
        phi = subgroup_indicator(spec)
        np.testing.assert_allclose(
            circ.values, spec.subgroup_order * spec.mass * phi.values, atol=1e-14
        )
        assert abs(circ.values[0]) == abs(window_constant(spec))


# ---------------------------------------------------------------------------
# energy and shift identities


# Each registry trial below draws its signals and points from the test's own
# generator, in the order the test drew them.


def test_moyal_identity():
    # the trial scales f and g to unit norm, where the bound
    # 1e-12 * max(1, (||f|| ||g||)^2) is 1e-12
    spec = make_group([6, 2], [3, 1])
    rng = np.random.default_rng(2)
    for _ in range(10):
        assert _moyal_residual(spec, rng) < 1e-12


def test_stft_shift_identity():
    spec = make_group([8], [2])
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert _stft_shift_identity_residual(spec, rng) < 1e-12


def test_rihaczek_values_oracle():
    spec = make_group([6], [2])
    rng = np.random.default_rng(4)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    R = rihaczek(f, g).mat
    ghat = fourier(g)
    for ix in range(6):
        for ixi in range(6):
            t = sum(a * b / m for a, b, m in zip(residues(spec, ixi), residues(spec, ix),
                                                 spec.factors))
            expected = f.values[ix] * np.conj(ghat.values[ixi]) * cmath.exp(-2j * cmath.pi * t)
            assert R[ix, ixi] == pytest.approx(expected, abs=1e-13)


def test_rihaczek_covariance():
    spec = make_group([6, 2], [3, 2])
    rng = np.random.default_rng(5)
    for _ in range(10):
        assert _rihaczek_covariance_residual(spec, rng) < 1e-12


def test_rihaczek_diagonal_marginals():
    # summing R(f, f) over xi with dual mass recovers |f|^2
    spec = make_group([8], [4])
    rng = np.random.default_rng(6)
    f = rand_signal(spec, rng)
    R = rihaczek(f, f).mat
    time_marginal = R.sum(axis=1) * spec.mass_dual
    np.testing.assert_allclose(time_marginal, np.abs(f.values) ** 2, atol=1e-12)


# ---------------------------------------------------------------------------
# factorization of the transformed spectrogram


@pytest.mark.parametrize("factors,divisors", [([4], [2]), ([6], [3]), ([2, 2], [1, 2])])
def test_magic_formula(factors, divisors):
    spec = make_group(factors, divisors)
    rng = np.random.default_rng(7)
    for _ in range(5):
        assert _magic_formula_residual(spec, rng) < 1e-10


# Relative bound on the distance between the table and phase-space right-hand
# sides of the covariance rule, set before any measurement: both multiply the
# same values by unit characters, computed as one or as two exponentials.
COVARIANCE_RHS_REL = 1e-14


@pytest.mark.parametrize("spec", [make_group([64], [8]), make_group([16], [4]),
                                  make_group([6, 2], [3, 2]), GroupSpec((12,), (3,), 0.25),
                                  make_group([4, 8], [2, 4]), make_group([8], [1])],
                         ids=["z64", "z16", "z6xz2", "z12-mass", "z4xz8", "z8-K-is-G"])
def test_covariance_tables_match_phase_space_oracle(spec):
    # the trial's generator draws the arguments the test draws
    rng, trial_rng = stream_rng(0, 2), stream_rng(0, 2)
    for _ in range(5):
        args = _shifted_pair_args(spec, rng)
        lhs, old = phase_space_rihaczek_covariance(*args)
        new = _covariant_rihaczek(*args).reshape(-1)
        assert _rihaczek_covariance_residual(spec, trial_rng) <= 1e-12
        assert np.max(np.abs(lhs - old)) <= 1e-12
        assert np.max(np.abs(new - old)) <= COVARIANCE_RHS_REL * np.max(np.abs(old))
