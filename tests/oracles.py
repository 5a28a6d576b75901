"""Dense brute-force routes that the structured library code is held to.

The amalgam norm of V_g f over a window set is evaluated the long way: the
full STFT, a maximum over explicit phase-space translations, then the
mixed quasi-norm.  Both sides of the convolution inequality are evaluated
one pair of phase-space functions and one exponent triple at a time.  The
Gabor matrix closed form transforms one tile gathered per point pair.
Eigenvectors are rotated and normalized eagerly, all of them, and the
Rihaczek probe reads its window constant off the full R(phi, phi).  The
Rihaczek covariance rule is checked on the phase-space group itself, with
a phase-space translation and a phase-space character.  The Gabor matrix
residual takes its points as a list of (x, xi) pairs, and the pointwise
covering check its plain norms from one ``mixed_quasi_norm`` call each.
The mixed norm is also taken by the one-exponent kernel, with no inner sum
shared between exponents.  A weighted modulation norm is taken one
exponent at a time through a dense phase function, the convolution probe
one exponent triple at a time, and the frame expansion one signal at a
time with its shifted stacks rebuilt for each.  The canonical window's self-convolution, the
per-coset maxima of |V_g f| over the canonical lattice, the annihilator as
a list of characters and one Haar-random unit vector are built the direct
way.  The one-function mixed quasi-norm :func:`mixed_quasi_norm`, the point
mass :func:`delta` and the constructors :func:`zeros`, :func:`constant` and
:func:`tensor` are test helpers that the library does not need.

The library's points are canonical indices.  Residue-tuple arithmetic is
done here, one point at a time: :func:`residues`, :func:`index_of`,
:func:`add`, :func:`sub`, :func:`neg` and :func:`character` are the
brute-force routes that the index tables ``residue_grid``, ``diff_table``,
``shift_index`` and ``character_table`` are held to, :func:`neg_index` is
the one ``diff_table(spec)[0]`` is held to, and :func:`translation_perm`
shifts the whole residue grid at once.  The subgroup is listed by residue
steps (:func:`subgroup_points`), its annihilator by evaluating characters
(:func:`annihilator`), their cosets one residue sum at a time
(:func:`coset_sums`), their representatives and K coordinates by residue
remainders (:func:`representative`, :func:`subgroup_coordinate`), and the
tile K x K_perp that block (0, 0) of ``phase_tiles(spec)`` is held to by
residue steps (:func:`tile_indices`).  :func:`phase_blocks` and
:func:`lattice_phase_points` read the tile blocks and a lattice as
phase-space indices, one residue sum per point (:func:`phase_point`).
"""
import math

import numpy as np

from fingabor.experiments import _EXPONENT_GRID, _worse, random_signal
from fingabor.gabor import analysis, synthesis
from fingabor.group import (
    GroupSpec,
    character_table,
    diff_table,
    dual_spec,
    phase_spec,
    phase_tiles,
    point_index,
    product_spec,
    quotient_indices,
    residue_grid,
    subgroup_character_table,
)
from fingabor.norms import (
    Exponents,
    Weight,
    _coset_magnitudes,
    _inv,
    check_young_exponents,
    mixed_norm_stack,
    modulation_norm,
    modulation_norms,
)
from fingabor.operators import kn_matrix
from fingabor.signal import (
    PhaseFunction,
    Signal,
    convolve,
    convolve_phase,
    modulate,
    norm_l2,
    subgroup_indicator,
    tf_shift,
    translate,
)
from fingabor.spectral import _haar_rows
from fingabor.tfa import rihaczek, stft, window_constant


# ---------------------------------------------------------------------------
# residue-tuple arithmetic


def residues(spec, i):
    """Residue tuple of the canonical index ``i``."""
    return tuple(int(r) for r in np.unravel_index(int(i), spec.factors))


def index_of(spec, res):
    """Canonical index of a residue tuple, each residue reduced mod its factor."""
    return int(np.ravel_multi_index(tuple(int(r) % n for r, n in zip(res, spec.factors)),
                                    spec.factors))


def add(spec, a, b):
    """Index of a + b, residue by residue."""
    return index_of(spec, [p + q for p, q in zip(residues(spec, a), residues(spec, b))])


def sub(spec, a, b):
    """Index of a - b, residue by residue."""
    return index_of(spec, [p - q for p, q in zip(residues(spec, a), residues(spec, b))])


def neg(spec, a):
    """Index of -a, residue by residue."""
    return index_of(spec, [-p for p in residues(spec, a)])


def neg_index(spec):
    """perm[y] = index(-y), one point at a time."""
    return np.array([neg(spec, y) for y in range(spec.order)])


def translation_perm(spec, shift):
    """perm[y] = index(y + shift) for all y, the residue tuple ``shift``
    added to every row of the residue grid."""
    grid = residue_grid(spec)
    shifted = (grid + np.asarray(shift, dtype=np.int64)) % np.asarray(spec.factors)
    return np.ravel_multi_index(shifted.T, spec.factors)


def subgroup_points(spec):
    """Indices of K, in increasing order: every residue a multiple of its step d_j."""
    return [i for i in range(spec.order)
            if all(r % d == 0 for r, d in zip(residues(spec, i), spec.subgroup_divisors))]


def tile_indices(spec):
    """Flat phase-space indices of the tile K x K_perp, K outer, with K and
    K_perp listed by residue steps (K_perp's steps are N_j / d_j)."""
    return np.array([k * spec.order + a for k in subgroup_points(spec)
                     for a in subgroup_points(dual_spec(spec))])


def coset_sums(spec, x, xi):
    """([[x_i + k for k in K]], [[xi_i + kappa for kappa in K_perp]]), one
    residue sum at a time."""
    return ([[add(spec, a, k) for k in subgroup_points(spec)] for a in x],
            [[add(spec, b, kappa) for kappa in annihilator(spec)] for b in xi])


def character(spec, xi, x):
    """<xi, x> = exp(2 pi i sum_j xi_j x_j / N_j) for the indices xi and x.

    The exponent is reduced factor by factor before exponentiation, so the
    value is exactly 1.0 whenever every xi_j x_j is divisible by N_j.
    """
    t = 0.0
    for a, b, n in zip(residues(spec, xi), residues(spec, x), spec.factors):
        t += ((a * b) % n) / n
    return complex(np.exp(2j * np.pi * t))


# ---------------------------------------------------------------------------
# test helpers


def mixed_quasi_norm(F, e, m=None):
    """Weighted L^{p,q} quasi-norm on phase space, x inner, xi outer: the
    one-row, one-exponent view of ``mixed_norm_stack``."""
    spec = F.group
    return float(mixed_norm_stack(np.abs(F.mat)[None], [Exponents.of(e)],
                                  spec.mass, spec.mass_dual, m)[0, 0])


def delta(spec, x=0):
    """The point mass at the index x."""
    vals = np.zeros(spec.order, dtype=np.complex128)
    vals[point_index(spec, x)] = 1.0
    return Signal(spec, vals)


def zeros(spec):
    return Signal(spec, np.zeros(spec.order, dtype=np.complex128))


def constant(spec, value=1.0):
    return Signal(spec, np.full(spec.order, value, dtype=np.complex128))


def tensor(f, g):
    """(f x g)(s, t) = f(s) g(t) on the direct product group."""
    return Signal(product_spec(f.group, g.group), np.kron(f.values, g.values))


# ---------------------------------------------------------------------------
# dense routes


def gather_maximum(F, offsets):
    """(M F)(z) = max over the flat phase offsets o of |F(z + o)|."""
    pspec = phase_spec(F.group)
    grid = residue_grid(pspec)
    perms = np.stack([translation_perm(pspec, grid[o]) for o in offsets])
    return PhaseFunction(F.group, np.abs(F.values)[perms].max(axis=0))


def dense_amalgam(f, window=None):
    """Maximum of |V_window f| over the tile K x K_perp; window 1_K by default."""
    spec = f.group
    g = subgroup_indicator(spec) if window is None else window
    return gather_maximum(stft(f, g), tile_indices(spec))


def dense_modulation_norm(f, e, m=None, window=None):
    """Modulation norm by the dense route."""
    return mixed_quasi_norm(dense_amalgam(f, window), e, m)


def young_verify(F, H, e_out, e_left, e_right, m=None, v=None):
    """Both sides of the convolution inequality on phase space.

    Exponents must satisfy 1/p_i + 1/q_i = 1 + 1/r_i with all of them in
    [1, inf].  Returns (lhs, rhs) = (norm of F * H, product of norms); the
    inequality lhs <= rhs holds with constant 1 when m is v-moderate with
    constant 1, and with the moderateness constant otherwise.
    """
    e_out, e_left, e_right = (Exponents.of(e) for e in (e_out, e_left, e_right))
    check_young_exponents(e_out, e_left, e_right)
    lhs = mixed_quasi_norm(convolve_phase(F, H), e_out, m)
    rhs = mixed_quasi_norm(F, e_left, m) * mixed_quasi_norm(H, e_right, v)
    return float(lhs), float(rhs)


def representative(spec, i):
    """Index of the representative of i + K: each residue reduced mod its step d_j."""
    return index_of(spec, [r % d for r, d in zip(residues(spec, i), spec.subgroup_divisors)])


def subgroup_coordinate(spec, i):
    """Index of i mod N_j / d_j in the dual of K = Z_{N1/d1} x ..., residue by residue."""
    sizes = [n // d for n, d in zip(spec.factors, spec.subgroup_divisors)]
    return int(np.ravel_multi_index([r % s for r, s in zip(residues(spec, i), sizes)], sizes))


def gather_gabor_matrix_closed_form(sigma, points):
    """Closed-form Gabor matrix for the canonical window at the (x, xi)
    pairs ``points``, with one tile gathered per pair.

    The tile of pair (i, j) is (a_i + K) x (b_j + K_perp), a_i and b_j the
    representatives of w_i + K and nu_j + K_perp, listed by residue sums
    into an (m, m, |K|, |K_perp|) array for the m points; each is
    transformed by the character tables of K and K_perp, and entry (i, j)
    reads it at the K and K_perp coordinates of mu_i - nu_j and w_i - u_j.
    """
    spec, dual = sigma.group, dual_spec(sigma.group)
    T = character_table(spec)
    x, xi = np.array(points, dtype=np.int64).T
    a = [representative(spec, w) for w in x]
    b = [representative(dual, nu) for nu in xi]
    rows, cols = (np.array(r) for r in coset_sums(spec, a, b))
    G = sigma.mat[rows[:, None, :, None], cols[None, :, None, :]]          # [i, j, k, kappa]
    X = np.conj(subgroup_character_table(spec)) @ G @ subgroup_character_table(dual).T
    dx = np.array([[sub(spec, w, u) for u in x] for w in x])
    dxi = np.array([[sub(spec, mu, nu) for nu in xi] for mu in xi])
    eta = np.vectorize(lambda i: subgroup_coordinate(spec, i))(dxi)
    eta_perp = np.vectorize(lambda i: subgroup_coordinate(dual, i))(dx)
    phase = (np.conj(T[dxi, np.array(a)[:, None]])
             * T[np.array([sub(spec, q, nu) for q, nu in zip(b, xi)])[None, :], dx])
    c = spec.mass ** 2 * spec.mass_dual * spec.subgroup_order
    m = len(x)
    return c * phase * X[np.arange(m)[:, None], np.arange(m), eta, eta_perp]


def eager_eigenpairs(spec, A):
    """(value, vector) for every eigenpair of a Hermitian matrix A on spec,
    every vector phase-rotated and mass-normalized up front, in
    hermitian_eigen's order."""
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    values, V = np.linalg.eigh((A + A.conj().T) / 2.0)
    order = sorted(range(n), key=lambda i: (-abs(values[i]), -values[i], i))
    mass = spec.mass
    pairs = []
    for i in order:
        vec = V[:, i].copy()
        mags = np.abs(vec)
        top = float(mags.max())
        if top > 0.0:
            j = int(np.argmax(mags > 1e-12 * top))
            vec = vec * (np.conj(vec[j]) / abs(vec[j]))
        vec = vec / (np.linalg.norm(vec) * math.sqrt(mass))
        pairs.append((float(values[i]), Signal(spec, vec)))
    return pairs


def full_window_rihaczek_probe(g, f, e_out, e_g, e_f, v=None):
    """rihaczek_continuity_probe with c read off the full R(phi, phi);
    unweighted without v."""
    spec = f.group
    n = spec.order
    phi = subgroup_indicator(spec)
    R = rihaczek(g, f).as_signal()
    c = abs(rihaczek(phi, phi).values[0])
    wmat = None
    if v is not None:
        col = v.values.reshape(n, n)[:, neg_index(spec)].T.reshape(-1)
        wmat = Weight.tensor(np.ones(n * n), col)
    lhs = c * modulation_norm(R, e_out, wmat)
    rhs = modulation_norm(g, e_g, v) * modulation_norm(f, e_f, v)
    return float(lhs), float(rhs)


def phase_point(spec, a, b):
    """Index of (a, b) in the phase-space group, through the residues of a
    and of b.  As a character, (omega, u) realizes the product pairing
    <(omega, u), (x, xi)> = <omega, x> <xi, u>."""
    return index_of(phase_spec(spec), residues(spec, a) + residues(spec, b))


def phase_blocks(spec):
    """The (|G/K|, |G^/K_perp|, |K|, |K_perp|) block grid of ``phase_tiles``
    as phase-space indices, each entry's pair (x, xi) through :func:`phase_point`."""
    rows, cols = np.broadcast_arrays(*phase_tiles(spec))
    return np.vectorize(lambda x, xi: phase_point(spec, x, xi), otypes=[np.int64])(rows, cols)


def lattice_phase_points(lattice):
    """Phase-space index of each lattice point, in lattice order, through :func:`phase_point`."""
    return [phase_point(lattice.group, x, xi) for x, xi in zip(lattice.x, lattice.xi)]


def phase_space_rihaczek_covariance(f, g, x, xi, y, eta):
    """Both sides (lhs, rhs) of the Rihaczek covariance rule, the right one
    as a translation and a modulation on the phase-space group; the
    residual is max |lhs - rhs|."""
    spec = f.group
    lhs = rihaczek(tf_shift(f, x, xi), tf_shift(g, y, eta))
    base = rihaczek(f, g).as_signal()
    shift = phase_point(spec, x, eta)
    mod = phase_point(spec, sub(spec, xi, eta), sub(spec, y, x))   # J(y - x, eta - xi)
    rhs = modulate(translate(base, shift), mod)
    scale = character(spec, eta, sub(spec, x, y))
    return lhs.values, scale * rhs.values


def point_list_tf_shift_rows(f, points):
    """Rows pi(points[i]) f, the indices read off each (x, xi) pair of the list."""
    spec = f.group
    x = np.array([p for p, _ in points], dtype=np.intp)
    xi = np.array([q for _, q in points], dtype=np.intp)
    return character_table(spec)[xi] * f.values[diff_table(spec)[:, x].T]


def point_list_gabor_matrix_residual(sigma, points):
    """Channel-matrix residual with the direct and closed-form Gabor matrices
    evaluated on a list of (x, xi) pairs, turned into index arrays per call."""
    spec = sigma.group
    V = point_list_tf_shift_rows(subgroup_indicator(spec), points)
    direct = np.conj(V) @ (kn_matrix(sigma) @ V.T) * spec.mass
    return float(np.max(np.abs(direct - gather_gabor_matrix_closed_form(sigma, points))))


def plain_norm_pointwise_trial(spec, rng):
    """One pointwise-covering-maximum trial with a fresh trivial subgroup and
    window and one mixed_quasi_norm of the transform per exponent."""
    trivial = GroupSpec(spec.factors, spec.factors, spec.mass)
    f = random_signal(trivial, rng)
    V = stft(f, subgroup_indicator(trivial))
    covered_row = modulation_norms(trivial, f.values[None], _EXPONENT_GRID)[0]
    worst = 0.0
    for e, covered in zip(_EXPONENT_GRID, covered_row):
        plain = mixed_quasi_norm(V, e)
        worst = _worse(worst, abs(covered - plain) / (1.0 + plain))
    return worst


def one_exponent_mixed_norm(W, e, mass, mass_dual):
    """Mixed quasi-norm of each W[b] for the one exponent pair e, with the
    library kernel's reduction order and its libm pow for 1/q."""
    if math.isinf(e.p):
        inner = W.max(axis=1)
    else:
        inner = (mass * (W ** e.p).sum(axis=1)) ** (1.0 / e.p)
    if math.isinf(e.q):
        return inner.max(axis=1)
    outer = mass_dual * (inner ** e.q).sum(axis=1)
    return np.array([s ** (1.0 / e.q) for s in outer.tolist()])


def broadcast_modulation_norm(f, e, m):
    """Weighted modulation norm of f for one exponent pair: Q broadcast back
    to every (x, xi) as a dense phase function, then one mixed_quasi_norm."""
    spec = f.group
    _, coset, eta = quotient_indices(spec)
    Q = _coset_magnitudes(spec, f.values[None, :])[0]
    return mixed_quasi_norm(PhaseFunction(spec, Q[np.ix_(coset, eta)].reshape(-1)), e, m)


def one_case_convolution_probe(f, g, e_out, e_f, e_g, m=None, v=None, nu=None):
    """Both sides (lhs, rhs) of the modulation-space convolution bound for one
    exponent triple, with one convolution and three modulation_norm calls;
    rhs has the marginal weights m1 x nu and v1 x (v2 / nu), and no weight
    when none of m, v and nu is given."""
    e_out = Exponents.of(e_out)
    e_f = Exponents.of(e_f)
    e_g = Exponents.of(e_g)
    r, gamma = e_out.p, e_out.q
    p, u = e_f.p, e_f.q
    q, t = e_g.p, e_g.q
    if abs(_inv(u) + _inv(t) - _inv(gamma)) > 1e-12:
        raise ValueError("outer exponents do not split: need 1/u + 1/t = 1/gamma")
    if r >= 1.0:
        if min(p, q) < 1.0 or abs(_inv(p) + _inv(q) - 1.0 - _inv(r)) > 1e-12:
            raise ValueError("inner exponents do not split: need 1/p + 1/q = 1 + 1/r")
    elif not (p == q == r):
        raise ValueError("below r = 1 the inner exponents must all coincide")
    spec = f.group
    n = spec.order
    mvals = m.values if m is not None else np.ones(n * n)
    vvals = v.values if v is not None else np.ones(n * n)
    nuvals = np.asarray(nu, dtype=float) if nu is not None else np.ones(n)
    m1 = mvals.reshape(n, n)[:, 0]
    v1 = vvals.reshape(n, n)[:, 0]
    v2 = vvals.reshape(n, n)[0, :]
    c = abs(window_constant(spec))
    lhs = c * modulation_norm(convolve(f, g), e_out, m)
    if m is None and v is None and nu is None:
        return float(lhs), float(modulation_norm(f, e_f) * modulation_norm(g, e_g))
    rhs = modulation_norm(f, e_f, Weight.tensor(m1, nuvals)) * modulation_norm(
        g, e_g, Weight.tensor(v1, v2 / nuvals)
    )
    return float(lhs), float(rhs)


def one_signal_expansion_residual(f, g, h, lattice):
    """Reconstruction errors of f with (analysis g, synthesis h) and swapped,
    each analysis and synthesis building its shifted stack afresh."""
    c_g = analysis(g, lattice, f)
    c_h = analysis(h, lattice, f)
    r1 = norm_l2(Signal(f.group, synthesis(h, lattice, c_g).values - f.values))
    r2 = norm_l2(Signal(f.group, synthesis(g, lattice, c_h).values - f.values))
    return float(r1), float(r2)


def gaussian_circ(spec: GroupSpec) -> Signal:
    """Self-convolution of the canonical window; equals |K| * mass on K."""
    phi = subgroup_indicator(spec)
    return convolve(phi, phi)


def quotient_coefficients(f: Signal, g: Signal) -> np.ndarray:
    """Per-coset maxima of |V_g f| over the tile around each point of the
    canonical lattice, one block of ``phase_tiles`` each, in lattice order."""
    return np.abs(stft(f, g).mat)[phase_tiles(f.group)].max(axis=(2, 3)).reshape(-1)


def annihilator(spec: GroupSpec) -> list[int]:
    """Characters that are identically 1 on the subgroup K, by evaluating
    each character on each point of K."""
    ksub = subgroup_points(spec)
    return [xi for xi in range(spec.order) if all(character(spec, xi, k) == 1.0 for k in ksub)]


def haar_random_unit(spec: GroupSpec, seed: int, trial: int) -> Signal:
    """Unit vector with Haar-uniform direction, keyed by (seed, trial)."""
    return Signal(spec, _haar_rows(spec, seed, [trial])[0])
