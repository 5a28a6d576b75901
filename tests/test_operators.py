import cmath
import re
import tracemalloc

import numpy as np
import pytest

from fingabor import operators
from fingabor.experiments import (_CONVREL_CASES, _gabor_matrix_residual, _kn_kernel_pairing_residual,
                                  _kn_weak_residual, _loc_kn_matrix_residual, random_phase_function,
                                  stream_rng)
from fingabor.gabor import lattice_from_points, quasi_lattice
from fingabor.group import (GroupMismatch, GroupSpec, character_table, diff_table, lattice_plan,
                            make_group)
from fingabor.group import (annihilator_indices, coset_representatives, dual_spec, phase_tiles,
                            subgroup_indices)
from fingabor.norms import (Weight, convolution_relation_probe, polynomial_weight,
                           rihaczek_continuity_probe)
from fingabor.operators import (
    gabor_matrix,
    gabor_matrix_closed_form,
    kn_apply,
    kn_kernel,
    kn_matrix,
    loc_to_kn_symbol,
    localization_apply,
    localization_matrix,
)
from fingabor.signal import (
    PhaseFunction,
    Signal,
    convolve,
    fourier,
    inner,
    inverse_fourier,
    subgroup_indicator,
    tf_shift,
)
from fingabor.tfa import rihaczek, stft
from oracles import (
    annihilator,
    delta,
    dense_modulation_norm,
    full_window_rihaczek_probe,
    one_case_convolution_probe,
    gather_gabor_matrix_closed_form,
    point_list_gabor_matrix_residual,
    residues,
    subgroup_points,
)

# Groups for the structured operator kernels: a cyclic group, a product
# with a non-cyclic tile, a point mass other than 1, unequal factors and
# the order-64 reference group.
KERNEL_GROUPS = [
    pytest.param(make_group([6], [3]), id="z6"),
    pytest.param(make_group([6, 2], [3, 2]), id="z6xz2"),
    pytest.param(GroupSpec((12,), (3,), 0.25), id="z12-mass"),
    pytest.param(make_group([4, 8], [2, 4]), id="z4xz8"),
    pytest.param(make_group([64], [8]), id="z64"),
]


def rand_signal(spec, rng):
    return Signal(spec, rng.standard_normal(spec.order) + 1j * rng.standard_normal(spec.order))


def rand_symbol(spec, rng):
    n2 = spec.order ** 2
    return PhaseFunction(spec, rng.standard_normal(n2) + 1j * rng.standard_normal(n2))


def matrix_from_apply(spec, apply):
    """Assemble a matrix column by column from an apply callable."""
    n = spec.order
    cols = np.empty((n, n), dtype=np.complex128)
    for c in range(n):
        cols[:, c] = apply(delta(spec, c)).values
    return cols


def shift_stack(spec, psi):
    """(order^2, order) stack of pi(x, xi) psi in canonical phase order."""
    n = spec.order
    shifted = psi.values[diff_table(spec).T]                    # [x, y] = psi(y - x)
    stack = shifted[:, None, :] * character_table(spec)[None, :, :]
    return stack.reshape(n * n, n)


def oracle_localization_apply(a, psi1, psi2, f):
    """A f as the phase-space sum of a V_psi1 f times the shifted windows."""
    spec = f.group
    coeff = a.values * stft(f, psi1).values * (spec.mass * spec.mass_dual)
    return coeff @ shift_stack(spec, psi2)


def oracle_localization_matrix(a, psi1, psi2):
    """Sum over phase space of a(z) pi(z) psi2 (x) conj(pi(z) psi1)."""
    spec = a.group
    w = a.values * (spec.mass * spec.mass_dual)
    P1 = shift_stack(spec, psi1)
    P2 = shift_stack(spec, psi2)
    return (P2 * w[:, None]).T @ np.conj(P1) * spec.mass


# ---------------------------------------------------------------------------
# quantization


def test_unit_symbol_is_identity():
    spec = make_group([6], [3])
    sigma = PhaseFunction(spec, np.ones(36))
    rng = np.random.default_rng(0)
    f = rand_signal(spec, rng)
    np.testing.assert_allclose(kn_apply(sigma, f).values, f.values, atol=1e-12)
    np.testing.assert_allclose(kn_matrix(sigma), np.eye(6), atol=1e-12)


def test_time_symbol_is_multiplication():
    spec = make_group([8], [2])
    rng = np.random.default_rng(1)
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    sigma = PhaseFunction(spec, np.repeat(u, 8))         # sigma(x, xi) = u(x)
    f = rand_signal(spec, rng)
    np.testing.assert_allclose(kn_apply(sigma, f).values, u * f.values, atol=1e-12)


def test_frequency_symbol_is_fourier_multiplier():
    spec = make_group([8], [4])
    rng = np.random.default_rng(2)
    w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    sigma = PhaseFunction(spec, np.tile(w, 8))           # sigma(x, xi) = w(xi)
    f = rand_signal(spec, rng)
    fhat = fourier(f)
    expected = inverse_fourier(Signal(fhat.group, w * fhat.values))
    np.testing.assert_allclose(kn_apply(sigma, f).values, expected.values, atol=1e-12)


def test_kn_matrix_matches_columnwise_application():
    spec = GroupSpec((6,), (2,), 0.5)
    rng = np.random.default_rng(3)
    sigma = rand_symbol(spec, rng)
    M = kn_matrix(sigma)
    C = matrix_from_apply(spec, lambda f: kn_apply(sigma, f))
    np.testing.assert_allclose(M, C, atol=1e-12)
    f = rand_signal(spec, rng)
    np.testing.assert_allclose(M @ f.values, kn_apply(sigma, f).values, atol=1e-12)


def test_kn_kernel_brute_force():
    spec = make_group([6], [3])
    rng = np.random.default_rng(4)
    sigma = rand_symbol(spec, rng)
    k = kn_kernel(sigma)
    S = sigma.mat
    for ix in range(6):
        for iu in range(6):
            acc = 0j
            for ixi in range(6):
                d = (iu - ix) % 6
                t = residues(spec, ixi)[0] * d / 6
                acc += S[ix, ixi] * cmath.exp(-2j * cmath.pi * t)
            assert k[ix, iu] == pytest.approx(acc * spec.mass_dual, abs=1e-12)


def test_quantization_pairing_residuals():
    spec = make_group([6, 2], [3, 1])
    # each trial draws (sigma, f, g) from its own generator of the same seed
    weak_rng, kernel_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(10):
        assert _kn_weak_residual(spec, weak_rng) < 1e-11
        assert _kn_kernel_pairing_residual(spec, kernel_rng) < 1e-11


def test_kn_apply_rejects_mixed_groups():
    a = make_group([4], [2])
    b = make_group([6], [3])
    with pytest.raises(GroupMismatch):
        kn_apply(PhaseFunction(a, np.ones(16)), Signal(b, np.ones(6)))


# ---------------------------------------------------------------------------
# Gabor matrices


def test_gabor_matrix_of_unit_symbol_is_gram():
    spec = make_group([6], [2])
    rng = np.random.default_rng(6)
    g = rand_signal(spec, rng)
    lat = quasi_lattice(spec)
    M = gabor_matrix(PhaseFunction(spec, np.ones(36)), g, lat)
    points = list(zip(lat.x, lat.xi))
    for i, wi in enumerate(points):
        for j, wj in enumerate(points):
            gram = inner(tf_shift(g, *wj), tf_shift(g, *wi))
            assert M[i, j] == pytest.approx(gram, abs=1e-12)


def test_closed_form_on_all_phase_points():
    spec = make_group([4], [2])
    rng = np.random.default_rng(7)
    sigma = rand_symbol(spec, rng)
    pts = [(i, j) for i in range(4) for j in range(4)]
    lat = lattice_from_points(spec, *zip(*pts))
    direct = gabor_matrix(sigma, subgroup_indicator(spec), lat)
    closed = gabor_matrix_closed_form(sigma, lat)
    np.testing.assert_allclose(closed, direct, atol=1e-12)
    assert np.array_equal(closed, gather_gabor_matrix_closed_form(sigma, pts))


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_closed_form_on_lattice_points(spec):
    rng = np.random.default_rng(8)
    for _ in range(5):
        assert _gabor_matrix_residual(spec, rng) < 1e-12


@pytest.mark.parametrize("spec", KERNEL_GROUPS + [
    pytest.param(make_group([8], [1]), id="z8-k-is-g"),
    pytest.param(make_group([4, 3], [4, 3]), id="z4xz3-trivial-k"),
])
def test_subgroup_annihilator_and_coset_points_match_residue_oracles(spec):
    # K and K_perp are the j = 0 cosets of the quotient splits of G and G^
    assert subgroup_indices(spec).tolist() == subgroup_points(spec)
    assert annihilator_indices(spec).tolist() == annihilator(spec)


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_closed_form_matches_symbol_gather_oracle(spec):
    # the tile transforms add the same products in the same order as the
    # per-pair tile gather, so the two agree bit for bit
    rng = np.random.default_rng(19)
    lat = quasi_lattice(spec)
    for _ in range(3):
        sigma = rand_symbol(spec, rng)
        assert np.array_equal(gabor_matrix_closed_form(sigma, lat),
                              gather_gabor_matrix_closed_form(sigma, list(zip(lat.x, lat.xi))))


@pytest.mark.parametrize("spec", KERNEL_GROUPS + [
    pytest.param(make_group([8], [1]), id="z8-k-is-g"),
    pytest.param(make_group([4, 3], [4, 3]), id="z4xz3-trivial-k"),
])
def test_closed_form_diagonal_holds_the_tile_sums(spec):
    # on the canonical lattice the diagonal is a Gabor multiplier: the
    # symbol summed over each point's tile, times mass^2 mass_dual |K|
    rng = np.random.default_rng(24)
    sigma = rand_symbol(spec, rng)
    diagonal = np.diag(gabor_matrix_closed_form(sigma, quasi_lattice(spec)))
    c = spec.mass ** 2 * spec.mass_dual * spec.subgroup_order
    want = c * sigma.mat[phase_tiles(spec)].sum(axis=(2, 3)).reshape(-1)
    assert np.max(np.abs(diagonal - want)) <= 1e-14 * np.max(np.abs(want))


def test_closed_form_builds_one_plan_per_lattice():
    # the lattice-only gather and phase are built once, not per call
    spec = make_group([64], [8])
    rng = np.random.default_rng(21)
    lat = quasi_lattice(spec)
    lattice_plan.cache_clear()
    for _ in range(50):
        gabor_matrix_closed_form(rand_symbol(spec, rng), lat)
    assert lattice_plan.cache_info().misses == 1
    # a lattice is keyed by its group and points: the same points built apart
    # share the plan, other points get their own
    gabor_matrix_closed_form(rand_symbol(spec, rng), lattice_from_points(spec, lat.x, lat.xi))
    assert lattice_plan.cache_info().misses == 1
    gabor_matrix_closed_form(rand_symbol(spec, rng), lattice_from_points(spec, lat.x, lat.x))
    assert lattice_plan.cache_info().misses == 2


def test_closed_form_transforms_only_the_named_tiles():
    # 17 random points of Z_1024/32 name at most 17 x 17 of the 32 x 32
    # tiles; transforming all of them took a 48 MiB peak
    spec = make_group([1024], [32])
    rng = np.random.default_rng(22)
    lat = lattice_from_points(spec, rng.integers(1024, size=17), rng.integers(1024, size=17))
    sigma = rand_symbol(spec, rng)
    direct = gabor_matrix(sigma, subgroup_indicator(spec), lat)     # builds the tables
    tracemalloc.start()
    try:
        closed = gabor_matrix_closed_form(sigma, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(closed - direct)) <= 1e-12
    assert peak < 24 * 2**20


def test_closed_form_memory_stays_on_coset_pairs():
    # Z_256/16: the per-pair symbol gather alone is 256 * 16 * 256 * 16
    # complex entries (268 MB); the tile gather and its transform hold
    # 256^2 entries each
    spec = make_group([256], [16])
    rng = np.random.default_rng(20)
    sigma = rand_symbol(spec, rng)
    lat = quasi_lattice(spec)
    tracemalloc.start()
    try:
        gabor_matrix_closed_form(sigma, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# localization operators


def test_unit_mask_reproduces_inversion_formula():
    spec = make_group([8], [2])
    rng = np.random.default_rng(9)
    psi1 = rand_signal(spec, rng)
    psi2 = rand_signal(spec, rng)
    a = PhaseFunction(spec, np.ones(64))
    M = localization_matrix(a, psi1, psi2)
    np.testing.assert_allclose(M, inner(psi2, psi1) * np.eye(8), atol=1e-11)


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_localization_matrix_matches_apply(spec):
    rng = np.random.default_rng(10)
    a = rand_symbol(spec, rng)
    psi1 = rand_signal(spec, rng)
    psi2 = rand_signal(spec, rng)
    M = localization_matrix(a, psi1, psi2)
    C = matrix_from_apply(spec, lambda f: localization_apply(a, psi1, psi2, f))
    np.testing.assert_allclose(M, C, atol=1e-10)


def test_localization_matrix_rejects_mixed_groups():
    # the windows share a's factors and subgroup but not its point mass
    a = rand_symbol(make_group([8], [2]), np.random.default_rng(11))
    psi = subgroup_indicator(GroupSpec((8,), (2,), 0.5))
    f = Signal(a.group, np.ones(8))
    for build in (lambda: localization_matrix(a, psi, psi),
                  lambda: localization_apply(a, psi, psi, f)):
        with pytest.raises(GroupMismatch, match=re.escape(repr(psi.group))) as raised:
            build()
        assert repr(a.group) in str(raised.value)


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_localization_kernels_match_shift_stack_oracle(spec):
    rng = np.random.default_rng(17)
    a = rand_symbol(spec, rng)
    psi1 = rand_signal(spec, rng)
    psi2 = rand_signal(spec, rng)
    f = rand_signal(spec, rng)
    np.testing.assert_allclose(
        localization_matrix(a, psi1, psi2),
        oracle_localization_matrix(a, psi1, psi2),
        atol=1e-10,
    )
    np.testing.assert_allclose(
        localization_apply(a, psi1, psi2, f).values,
        oracle_localization_apply(a, psi1, psi2, f),
        atol=1e-10,
    )


def test_real_mask_gives_hermitian_operator():
    spec = make_group([6], [2])
    rng = np.random.default_rng(11)
    a = PhaseFunction(spec, rng.standard_normal(36))
    psi = rand_signal(spec, rng)
    M = localization_matrix(a, psi, psi)
    assert np.max(np.abs(M - M.conj().T)) < 1e-10


@pytest.mark.parametrize("spec", KERNEL_GROUPS)
def test_localization_adjoint_swaps_windows(spec):
    rng = np.random.default_rng(12)
    a = rand_symbol(spec, rng)
    psi1 = rand_signal(spec, rng)
    psi2 = rand_signal(spec, rng)
    M = localization_matrix(a, psi1, psi2)
    Madj = localization_matrix(PhaseFunction(spec, np.conj(a.values)), psi2, psi1)
    np.testing.assert_allclose(M.conj().T, Madj, atol=1e-11)


def test_localization_agrees_with_its_quantization():
    spec = make_group([6, 2], [3, 2])
    rng = np.random.default_rng(13)
    for _ in range(10):
        assert _loc_kn_matrix_residual(spec, rng) < 1e-9


def test_structured_kernels_are_independent_routes(monkeypatch):
    # each side of channel-matrix-closed-form and localization-as-quantization
    # must be computed without the other side's building blocks
    def refuse(*args, **kwargs):
        raise AssertionError("structured kernel used the route it is checked against")

    for name in ("gabor_matrix", "kn_matrix", "tf_shift_rows", "convolve_phase",
                 "loc_to_kn_symbol"):
        monkeypatch.setattr(operators, name, refuse)
    spec = make_group([6, 2], [3, 2])
    rng = np.random.default_rng(18)
    a = rand_symbol(spec, rng)
    psi1 = rand_signal(spec, rng)
    psi2 = rand_signal(spec, rng)
    gabor_matrix_closed_form(a, quasi_lattice(spec))
    localization_matrix(a, psi1, psi2)
    localization_apply(a, psi1, psi2, rand_signal(spec, rng))


def test_loc_symbol_lives_on_phase_space():
    spec = make_group([4], [2])
    rng = np.random.default_rng(14)
    sym = loc_to_kn_symbol(rand_symbol(spec, rng), rand_signal(spec, rng),
                           rand_signal(spec, rng))
    assert sym.group == spec
    assert sym.values.shape == (16,)


# ---------------------------------------------------------------------------
# mapping-bound probes


def test_rihaczek_probe_returns_finite_pair():
    spec = make_group([4], [2])
    rng = np.random.default_rng(15)
    g = rand_signal(spec, rng)
    f = rand_signal(spec, rng)
    v = Weight.tensor(polynomial_weight(spec, 1.0), np.ones(4))
    for weight in (None, v):
        lhs, rhs = rihaczek_continuity_probe(g, f, (2, 2), (2, 2), (2, 2), weight)
        assert np.isfinite(lhs) and np.isfinite(rhs)
        assert lhs > 0 and rhs > 0


def test_unweighted_rihaczek_probe_builds_no_phase_space_weight():
    # without a weight every norm takes the quotient; an all-ones weight on
    # the doubled group would hold order^4 = 2^24 values (128 MiB) here
    spec = make_group([64], [8])
    rng = np.random.default_rng(20)
    g = rand_signal(spec, rng)
    f = rand_signal(spec, rng)
    tracemalloc.start()
    try:
        rihaczek_continuity_probe(g, f, (0.5, 0.5), (0.5, 0.5), (0.5, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_rihaczek_probe_is_an_identity_for_equal_exponents_at_order_256():
    # for p = q the Rihaczek bound holds with equality on random signals
    spec = make_group([256], [16])
    rng = np.random.default_rng(21)
    g = rand_signal(spec, rng)
    f = rand_signal(spec, rng)
    for p in (2.0, 1.0, 0.5):
        lhs, rhs = rihaczek_continuity_probe(g, f, (p, p), (p, p), (p, p))
        assert abs(lhs / rhs - 1.0) <= 1e-12, p


def test_convolution_probe_returns_finite_pair():
    spec = make_group([6], [3])
    rng = np.random.default_rng(16)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    cases = [((1, 2), (1, 4), (1, 4)), ((0.5, 1), (0.5, 2), (0.5, 2))]
    rows = convolution_relation_probe(f, g, cases)
    assert rows.shape == (2, 2) and np.isfinite(rows).all()
    lhs, rhs = rows[0]
    assert lhs > 0 and rhs > 0


@pytest.mark.parametrize("spec", [make_group([4], [2]), GroupSpec((6,), (2,), 0.5)],
                         ids=["z4", "z6-mass"])
def test_probes_match_dense_oracle(spec):
    # the probes scale the canonical norm by the window's value at the
    # origin; the oracle uses the explicit windows R(phi, phi) and phi * phi
    n = spec.order
    rng = np.random.default_rng(17)
    g = rand_signal(spec, rng)
    f = rand_signal(spec, rng)
    phi = subgroup_indicator(spec)
    poly = Weight.tensor(polynomial_weight(spec, 1.0), polynomial_weight(dual_spec(spec), 1.0))
    Phi = rihaczek(phi, phi).as_signal()
    R = rihaczek(g, f).as_signal()
    for e_out, e_g, e_f in [((2, 2), (2, 2), (2, 2)), ((1, 0.5), (0.5, 1), (1, 2)),
                            ((np.inf, 1), (2, 2), (1, np.inf))]:
        for v in (None, poly):
            vv = np.ones((n, n)) if v is None else v.values.reshape(n, n)
            col = np.array([vv[u, -omega % n] for omega in range(n) for u in range(n)])
            lhs = dense_modulation_norm(R, e_out, Weight.tensor(np.ones(n * n), col), Phi)
            rhs = dense_modulation_norm(g, e_g, v) * dense_modulation_norm(f, e_f, v)
            got = rihaczek_continuity_probe(g, f, e_out, e_g, e_f, v)
            np.testing.assert_allclose(got, (lhs, rhs), rtol=1e-12, atol=0)
    nu = np.sqrt(polynomial_weight(dual_spec(spec), 1.0).values)
    circ = convolve(phi, phi)
    cases = [((1, 2), (1, 4), (1, 4)), ((0.5, 1), (0.5, 2), (0.5, 2))]
    for m in (None, poly):
        mm = np.ones((n, n)) if m is None else m.values.reshape(n, n)
        nuv = np.ones(n) if m is None else nu
        rows = convolution_relation_probe(f, g, cases, m=m, nu=None if m is None else nu)
        for (e_out, e_f, e_g), got in zip(cases, rows):
            lhs = dense_modulation_norm(convolve(f, g), e_out, m, circ)
            rhs = (dense_modulation_norm(f, e_f, Weight.tensor(mm[:, 0], nuv))
                   * dense_modulation_norm(g, e_g, Weight.tensor(mm[:, 0], mm[0, :] / nuv)))
            np.testing.assert_allclose(got, (lhs, rhs), rtol=1e-12, atol=0)


@pytest.mark.parametrize("spec", [
    make_group([16], [4]),
    GroupSpec((12,), (3,), 0.25),
    make_group([6, 2], [3, 2]),
    make_group([8], [8]),
    make_group([8], [1]),
], ids=["z16", "z12-mass", "z6xz2", "z8-trivial-k", "z8-k-is-g"])
def test_rihaczek_probe_constant_equals_full_window_oracle(spec):
    # the probe takes c = |<phi, phi>|; the oracle reads it off R(phi, phi)
    rng = np.random.default_rng(18)
    g = rand_signal(spec, rng)
    f = rand_signal(spec, rng)
    poly = Weight.tensor(polynomial_weight(spec, 1.0), polynomial_weight(dual_spec(spec), 1.0))
    for e_out, e_g, e_f in [((2, 2), (2, 2), (2, 2)), ((1, 0.5), (0.5, 1), (1, 2))]:
        for v in (None, poly):
            assert (rihaczek_continuity_probe(g, f, e_out, e_g, e_f, v)
                    == full_window_rihaczek_probe(g, f, e_out, e_g, e_f, v))


def test_convolution_probe_weighs_factors_by_nu_without_m():
    # nu alone weights f by 1 x nu and g by 1 x (1 / nu), as with m = 1
    spec = make_group([16], [4])
    rng = np.random.default_rng(22)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    nu = np.sqrt(polynomial_weight(dual_spec(spec), 1.0).values)
    got = convolution_relation_probe(f, g, _CONVREL_CASES, nu=nu)
    ones = convolution_relation_probe(f, g, _CONVREL_CASES, m=Weight(np.ones(256)), nu=nu)
    assert got[:, 1].tolist() == ones[:, 1].tolist()
    np.testing.assert_allclose(got[:, 0], ones[:, 0], rtol=1e-14)
    assert not np.allclose(got[:, 1], convolution_relation_probe(f, g, _CONVREL_CASES)[:, 1])


def test_convolution_probe_rejects_bad_exponents():
    spec = make_group([6], [3])
    f = Signal(spec, np.ones(6))
    with pytest.raises(ValueError):
        convolution_relation_probe(f, f, [((2, 1), (2, 4), (2, 4))])   # inner split fails
    with pytest.raises(ValueError):
        convolution_relation_probe(f, f, [((1, 1), (1, 4), (1, 4))])   # outer split fails
    with pytest.raises(ValueError):
        convolution_relation_probe(f, f, [((0.5, 1), (0.7, 2), (0.7, 2))])
    with pytest.raises(ValueError):   # one bad case among good ones
        convolution_relation_probe(f, f, [((1, 2), (1, 4), (1, 4)), ((2, 1), (2, 4), (2, 4))])


@pytest.mark.parametrize("spec", [
    make_group([64], [8]),
    make_group([6, 2], [3, 2]),
    GroupSpec((12,), (3,), 0.25),
    make_group([8], [1]),
    make_group([8], [8]),
], ids=["z64", "z6xz2", "z12-mass", "z8-k-is-g", "z8-trivial-k"])
def test_convolution_probe_rows_equal_one_case_oracle(spec):
    # one convolution and three stacked norm calls give each case the pair
    # that one probe call per case gave, bit for bit, weighted or not
    rng = np.random.default_rng(19)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    pxi = polynomial_weight(dual_spec(spec), 1.0)
    m = Weight.tensor(polynomial_weight(spec, 1.0), pxi)
    for weight, nu in ((None, None), (m, np.sqrt(pxi.values))):
        rows = convolution_relation_probe(f, g, _CONVREL_CASES, m=weight, nu=nu)
        want = [one_case_convolution_probe(f, g, *case, m=weight, v=weight, nu=nu)
                for case in _CONVREL_CASES]
        assert rows.tolist() == [list(pair) for pair in want]


@pytest.mark.parametrize("spec", KERNEL_GROUPS[1:] + [pytest.param(make_group([8], [1]),
                                                                   id="z8-k-is-g")])
def test_channel_trials_equal_element_list_oracle(spec):
    # the lattice's index arrays give the residual that the list of its
    # (x, xi) pairs, D1 outer and D2 inner, gives
    rng, oracle_rng = stream_rng(0, 7), stream_rng(0, 7)
    d1, d2 = coset_representatives(spec)
    points = [(int(x), int(xi)) for x in d1 for xi in d2]
    for _ in range(3):
        want = point_list_gabor_matrix_residual(random_phase_function(spec, oracle_rng), points)
        assert np.array_equal(_gabor_matrix_residual(spec, rng), want)
