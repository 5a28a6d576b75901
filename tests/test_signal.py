import cmath
import tracemalloc

import numpy as np
import pytest

from fingabor.group import (
    GroupError,
    GroupMismatch,
    GroupSpec,
    character_table,
    diff_table,
    dual_spec,
    make_group,
)
from fingabor.signal import (
    PhaseFunction,
    Signal,
    convolve,
    convolve_phase,
    fourier,
    indicator,
    inner,
    inner_phase,
    inverse_fourier,
    modulate,
    norm_l2,
    subgroup_indicator,
    tf_shift,
    tf_shift_rows,
    translate,
)
from fingabor.gabor import lattice_from_points
from oracles import character, constant, delta, residues, sub, tensor, zeros


def rand_signal(spec, rng):
    return Signal(spec, rng.standard_normal(spec.order) + 1j * rng.standard_normal(spec.order))


def brute_fourier(f):
    """Independent transform: explicit double loop over residue tuples."""
    spec = f.group
    out = np.zeros(spec.order, dtype=complex)
    for i in range(spec.order):
        acc = 0j
        for j in range(spec.order):
            t = sum(a * b / n for a, b, n in zip(residues(spec, i), residues(spec, j),
                                                 spec.factors))
            acc += f.values[j] * cmath.exp(-2j * cmath.pi * t)
        out[i] = acc * spec.mass
    return out


def brute_convolve(f, g):
    """Direct sum over y for each x, with x - y taken on the residue tuples."""
    spec = f.group
    grid = np.stack(np.unravel_index(np.arange(spec.order), spec.factors), axis=1)
    out = np.zeros(spec.order, dtype=complex)
    for i in range(spec.order):
        y = np.ravel_multi_index(((grid[i] - grid) % spec.factors).T, spec.factors)
        out[i] = np.sum(f.values * g.values[y]) * spec.mass
    return out


# order 768: convolve runs past one 512-row block of the difference table
Z24XZ32 = make_group([24, 32], [2, 4])


# ---------------------------------------------------------------------------
# constructors and validation


def test_constructors():
    spec = make_group([6], [3])
    assert np.all(zeros(spec).values == 0)
    assert np.all(constant(spec, 2.5).values == 2.5)
    d = delta(spec, 2)
    assert d.values[2] == 1 and d.values.sum() == 1
    ind = indicator(spec, [0, 4])
    assert ind.values[0] == 1 and ind.values[4] == 1 and ind.values.sum() == 2
    chi = subgroup_indicator(spec)
    np.testing.assert_array_equal(chi.values, [1, 0, 0, 1, 0, 0])
    np.testing.assert_array_equal(subgroup_indicator(make_group([8], [2])).values,
                                  [1, 0, 1, 0, 1, 0, 1, 0])


def test_shape_validation():
    spec = make_group([6], [3])
    with pytest.raises(ValueError):
        Signal(spec, np.zeros(5))
    with pytest.raises(ValueError):
        PhaseFunction(spec, np.zeros(6))


def test_values_read_only():
    spec = make_group([4], [2])
    f = constant(spec)
    with pytest.raises(ValueError):
        f.values[0] = 3.0


# ---------------------------------------------------------------------------
# shifts


def test_translate_oracle():
    spec = make_group([5], [1])
    rng = np.random.default_rng(0)
    f = rand_signal(spec, rng)
    g = translate(f, 2)
    for i in range(5):
        assert g.values[i] == f.values[sub(spec, i, 2)]


def test_single_shifts_above_table_limit_build_no_table():
    # T_x and M_xi at order 4100 read one row each: no order^2 allocation
    spec = make_group([50, 82], [5, 2])
    f = rand_signal(spec, np.random.default_rng(3))
    x, xi = 2081, 4099
    tracemalloc.start()
    try:
        g = translate(f, x)
        h = modulate(f, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for y in (0, 1, x, 4099):
        assert g.values[y] == f.values[sub(spec, y, x)]
        assert h.values[y] == pytest.approx(character(spec, xi, y) * f.values[y], abs=1e-14)


def test_modulate_oracle():
    spec = make_group([6, 2], [3, 1])
    rng = np.random.default_rng(1)
    f = rand_signal(spec, rng)
    xi = 1 * 2 + 1                                # residues (1, 1)
    g = modulate(f, xi)
    for i in range(spec.order):
        t = sum(a * b / n for a, b, n in zip(residues(spec, xi), residues(spec, i),
                                             spec.factors))
        assert g.values[i] == pytest.approx(f.values[i] * cmath.exp(2j * cmath.pi * t))


def test_tf_shift_is_modulate_translate():
    spec = make_group([8], [2])
    rng = np.random.default_rng(2)
    f = rand_signal(spec, rng)
    out = tf_shift(f, 3, 5)
    ref = modulate(translate(f, 3), 5)
    np.testing.assert_array_equal(out.values, ref.values)


@pytest.mark.parametrize("point", [-1, 8, True])
@pytest.mark.parametrize("shift", [
    pytest.param(translate, id="translate"),
    pytest.param(modulate, id="modulate"),
    pytest.param(lambda f, p: tf_shift(f, p, 0), id="tf_shift-time"),
    pytest.param(lambda f, p: tf_shift(f, 0, p), id="tf_shift-frequency"),
    pytest.param(lambda f, p: delta(f.group, p), id="delta"),
    pytest.param(lambda f, p: indicator(f.group, [0, p]), id="indicator"),
    pytest.param(lambda f, p: lattice_from_points(f.group, [0, p], [0, 0]), id="lattice-time"),
    pytest.param(lambda f, p: lattice_from_points(f.group, [0], [p]), id="lattice-frequency"),
])
def test_points_outside_the_group_are_refused(shift, point):
    # neither numpy's negative indexing nor a bare IndexError: every point
    # argument is checked against the order; a bool is no point, as
    # operator.index alone would read True as 1
    f = constant(make_group([8], [2]))
    with pytest.raises(TypeError if isinstance(point, bool) else GroupMismatch):
        shift(f, point)


@pytest.mark.parametrize("spec", [make_group([8], [2]), make_group([6, 2], [3, 2]),
                                  GroupSpec((12,), (3,), 0.25)], ids=["z8", "z6xz2", "z12-mass"])
def test_tf_shift_rows_equal_stacked_tf_shifts(spec):
    # the gather multiplies the same character values by the same entries
    rng = np.random.default_rng(3)
    f = rand_signal(spec, rng)
    x, xi = rng.integers(spec.order, size=(2, 2 * spec.order))
    x, xi = np.append(x, [3, 0]), np.append(xi, [5, 0])
    ref = np.stack([tf_shift(f, a, b).values for a, b in zip(x, xi)])
    assert np.array_equal(tf_shift_rows(f, x, xi), ref)
    empty = tf_shift_rows(f, np.array([], dtype=np.intp), np.array([], dtype=np.intp))
    assert empty.shape == (0, spec.order) and empty.dtype == np.complex128


# ---------------------------------------------------------------------------
# Fourier transform


@pytest.mark.parametrize("factors,divisors,mass", [([6], [3], 1.0), ([4, 3], [2, 3], 1.0), ([8], [4], 0.125)])
def test_fourier_matches_brute_force(factors, divisors, mass):
    spec = GroupSpec(tuple(factors), tuple(divisors), mass)
    rng = np.random.default_rng(3)
    f = rand_signal(spec, rng)
    np.testing.assert_allclose(fourier(f).values, brute_fourier(f), atol=1e-12)


def test_fourier_lives_on_dual_spec():
    spec = GroupSpec((6,), (3,), 0.5)
    f = constant(spec)
    fhat = fourier(f)
    assert fhat.group == dual_spec(spec)
    assert fhat.group.mass == pytest.approx(spec.mass_dual)


def test_fourier_roundtrip_and_parseval():
    spec = make_group([6, 2], [3, 2])
    rng = np.random.default_rng(4)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    back = inverse_fourier(fourier(f))
    np.testing.assert_allclose(back.values, f.values, atol=1e-13)
    assert inner(fourier(f), fourier(g)) == pytest.approx(inner(f, g), abs=1e-12)
    assert norm_l2(fourier(f)) == pytest.approx(norm_l2(f), rel=1e-12)


def test_fourier_of_delta_is_flat():
    spec = make_group([8], [2])
    fhat = fourier(delta(spec))
    np.testing.assert_allclose(fhat.values, spec.mass * np.ones(8), atol=1e-15)


def test_fourier_of_subgroup_indicator():
    # the transform of the subgroup indicator is supported on the annihilator
    spec = make_group([6], [3])
    fhat = fourier(subgroup_indicator(spec))
    from fingabor.group import annihilator_indices

    ann = annihilator_indices(spec)
    mask = np.zeros(6, dtype=bool)
    mask[ann] = True
    assert np.max(np.abs(fhat.values[~mask])) < 1e-14
    np.testing.assert_allclose(
        fhat.values[mask], spec.subgroup_order * spec.mass, atol=1e-14
    )


# ---------------------------------------------------------------------------
# convolution


@pytest.mark.parametrize("spec", [make_group([6], [2]), Z24XZ32], ids=["z6", "z24xz32"])
def test_convolve_oracle(spec):
    rng = np.random.default_rng(5)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    np.testing.assert_allclose(convolve(f, g).values, brute_convolve(f, g), atol=1e-13)


@pytest.mark.parametrize("spec", [make_group([4, 3], [2, 1]), Z24XZ32], ids=["z4xz3", "z24xz32"])
def test_convolve_commutes_and_delta_unit(spec):
    rng = np.random.default_rng(6)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    np.testing.assert_allclose(convolve(f, g).values, convolve(g, f).values, atol=1e-13)
    # with unit mass the delta is the convolution unit
    np.testing.assert_allclose(convolve(f, delta(spec)).values, f.values, atol=1e-15)


@pytest.mark.parametrize("spec", [Z24XZ32, make_group([4100], [4])],
                         ids=["z24xz32", "z4100-above-table-limit"])
def test_convolve_with_shifted_delta_is_translate(spec):
    # order 4100 runs the on-demand rows that convolve takes above the table limit
    f = rand_signal(spec, np.random.default_rng(9))
    s = spec.order // 3 + 1
    assert np.array_equal(convolve(f, delta(spec, s)).values, translate(f, s).values)


@pytest.mark.parametrize("transform", [fourier, inverse_fourier])
def test_fourier_refuses_orders_above_table_limit(transform):
    f = Signal(make_group([4097], [1]), np.ones(4097))
    tracemalloc.start()
    try:
        with pytest.raises(GroupError):
            transform(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("spec", [make_group([6, 2], [3, 1]), Z24XZ32], ids=["z6xz2", "z24xz32"])
def test_convolve_diagonalized_by_fourier(spec):
    rng = np.random.default_rng(7)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    lhs = fourier(convolve(f, g)).values
    rhs = fourier(f).values * fourier(g).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("spec", [
    make_group([4], [2]),
    make_group([6, 2], [3, 2]),
    GroupSpec((6,), (3,), 1 / 6),
    GroupSpec((3, 4), (3, 2), 0.5),
], ids=["z4", "z6xz2", "z6-mass-sixth", "z3xz4-mass-half"])
def test_convolve_phase_uses_phase_mass(spec):
    from fingabor.group import phase_spec

    ps = phase_spec(spec)
    rng = np.random.default_rng(8)
    size = spec.order ** 2
    F = PhaseFunction(spec, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    H = PhaseFunction(spec, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    out = convolve_phase(F, H)
    brute = brute_convolve(F.as_signal(), H.as_signal())
    np.testing.assert_allclose(out.values, brute, atol=1e-13)
    assert ps.mass == pytest.approx(spec.mass * spec.mass_dual)


def test_convolve_phase_builds_no_phase_space_table():
    # the only table behind a phase convolution is the base character table
    spec = make_group([64], [8])
    diff_table.cache_clear()
    character_table.cache_clear()
    F = PhaseFunction(spec, np.ones(spec.order ** 2))
    out = convolve_phase(F, F)
    assert diff_table.cache_info().currsize == 0
    assert character_table.cache_info().currsize == 1
    character_table(spec)
    assert character_table.cache_info().misses == 1
    # a constant convolved with itself is its total phase-space mass
    np.testing.assert_allclose(out.values, spec.order, rtol=1e-12)


@pytest.mark.parametrize("spec", [
    make_group([64], [8]),
    make_group([6, 2], [3, 2]),
    make_group([16, 16], [4, 4]),
], ids=["z64", "z6xz2", "z16xz16"])
def test_shifts_read_cached_tables_and_build_none(spec, monkeypatch):
    # a shift or a character row builds no table: without the tables it is
    # the formula; with them, the table's column or row, with the same bytes
    from fingabor import group
    from fingabor.group import character_row, shift_index

    diff_table.cache_clear()
    character_table.cache_clear()
    f = Signal(spec, np.arange(spec.order) * (1 + 1j))
    x, xi = 5, spec.order - 3
    formula = (shift_index(spec, x), character_row(spec, xi),
               translate(f, x).values, modulate(f, xi).values)
    assert diff_table.cache_info().misses == character_table.cache_info().misses == 0
    diff_table(spec), character_table(spec)
    for formula_name in ("_characters", "_difference"):
        monkeypatch.setattr(group, formula_name, None)
    read = (shift_index(spec, x), character_row(spec, xi),
            translate(f, x).values, modulate(f, xi).values)
    assert diff_table.cache_info().misses == character_table.cache_info().misses == 1
    assert formula[0].dtype == read[0].dtype == np.int64
    for a, b in zip(formula, read):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_fourier_and_inverse_share_one_character_table():
    # G and its dual have the same factors, so the round trip builds one table
    spec = make_group([64], [8])
    character_table.cache_clear()
    f = Signal(spec, np.arange(spec.order, dtype=float))
    back = inverse_fourier(fourier(f))
    assert character_table.cache_info().misses == 1
    np.testing.assert_allclose(back.values, f.values, atol=1e-10)


def test_transforms_read_one_conjugate_character_table():
    # each transform that multiplies by conj(T) reads it from the cache, one
    # read-only table equal to the conjugate of T byte for byte; the outer
    # transform of stft-of-rihaczek reads the table of the phase space too
    from fingabor.experiments import _magic_formula_residual
    from fingabor.group import conj_character_table
    from fingabor.operators import kn_kernel, localization_matrix
    from fingabor.tfa import rihaczek, stft

    spec = make_group([16], [4])
    rng = np.random.default_rng(13)
    f, g = rand_signal(spec, rng), rand_signal(spec, rng)
    F = PhaseFunction(spec, rng.standard_normal(spec.order ** 2))
    readers = {
        "fourier": (lambda: fourier(f), 1),
        "convolve_phase": (lambda: convolve_phase(F, F), 1),
        "stft": (lambda: stft(f, g), 1),
        "rihaczek": (lambda: rihaczek(f, g), 1),
        "kn_kernel": (lambda: kn_kernel(F), 1),
        "localization_matrix": (lambda: localization_matrix(F, f, g), 1),
        "stft-of-rihaczek": (lambda: _magic_formula_residual(spec, np.random.default_rng(0)), 2),
    }
    for name, (read, tables) in readers.items():
        conj_character_table.cache_clear()
        read()
        assert conj_character_table.cache_info().misses == tables, name
        assert conj_character_table.peek(spec) is not None, name
    for read, _ in readers.values():
        read()
    assert conj_character_table.cache_info().misses == 2
    Tc = conj_character_table(spec)
    assert not Tc.flags.writeable
    assert Tc.tobytes() == np.conj(character_table(spec)).tobytes()


# ---------------------------------------------------------------------------
# inner products, tensor


def test_inner_antilinear_in_second_slot():
    spec = make_group([5], [5])
    rng = np.random.default_rng(9)
    f = rand_signal(spec, rng)
    g = rand_signal(spec, rng)
    assert inner(f, Signal(spec, 2j * g.values)) == pytest.approx(-2j * inner(f, g))
    assert inner(f, g) == pytest.approx(np.conj(inner(g, f)))
    assert inner(f, f).real == pytest.approx(norm_l2(f) ** 2, rel=1e-12)


def test_inner_rejects_mismatched_groups():
    f = constant(make_group([4], [2]))
    g = constant(make_group([6], [3]))
    with pytest.raises(GroupMismatch):
        inner(f, g)


def test_tensor_values():
    s1 = make_group([2], [1])
    s2 = make_group([3], [3])
    f = Signal(s1, np.array([1.0, 2.0], dtype=complex))
    g = Signal(s2, np.array([1.0, 10.0, 100.0], dtype=complex))
    t = tensor(f, g)
    assert t.group.factors == (2, 3)
    np.testing.assert_array_equal(t.values, [1, 10, 100, 2, 20, 200])


def test_inner_phase_weighting():
    spec = make_group([4], [2])
    F = PhaseFunction(spec, np.ones(16, dtype=complex))
    H = PhaseFunction(spec, np.ones(16, dtype=complex))
    # phase mass is mass * mass_dual = 1/4, so <F, H> = 16 / 4
    assert inner_phase(F, H) == pytest.approx(4.0)

