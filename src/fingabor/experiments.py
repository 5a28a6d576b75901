"""Experiment drivers shared by the command line tool and the test suite.

Each driver takes a group, a seed, and a trial count, runs a batch of
randomized or structural checks, and returns ``(summary, tables)``: a
JSON-friendly summary and its CSV tables by file stem, ``{}`` for
identities, frames, locop and decay.  Randomness always flows through
counter-based Philox streams keyed by (seed, stream), so reruns with the
same configuration produce identical artifacts.

Only this module forms residuals, folds them over trials and judges them;
the library returns values: transforms, operators, norms, bounds and probe
pairs.  Every check is declared with its tolerance: identities in
IDENTITY_REGISTRY, each a ``trial(spec, rng)`` that draws its arguments and
computes the residual of one trial, the other drivers' checks in _CHECKS.
A driver folds each check's residuals with _worse, which keeps a NaN, and
hands the worst to _verdict, which writes ``results[name] = {tolerance,
residual, passed}`` and, when the residual is above the tolerance or is NaN,
appends the line ``"<name>: residual <r:.3e> exceeds tolerance <tol:.3e>"``
to ``summary["failures"]``, the only failure list.  The decay driver has
no tolerance check; it fails only on non-finite norms.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .gabor import (
    GaborSystem,
    NotAFrame,
    QuasiLattice,
    dual_window,
    gabor_system,
    lattice_from_points,
    quasi_lattice,
)
from .group import (
    GroupSpec,
    character_row,
    character_table,
    common_group,
    conj_character_table,
    diff_table,
    dual_spec,
    phase_tiles,
    quotient_indices,
    subgroup_indices,
    trivial_subgroup_spec,
)
from .norms import (
    Exponents,
    Weight,
    check_young_exponents,
    convolution_relation_probe,
    inclusion_bound,
    inclusion_ratio,
    mixed_norm_stack,
    modulation_norms,
    polynomial_weight,
)
from .operators import (
    gabor_matrix,
    gabor_matrix_closed_form,
    kn_apply,
    kn_kernel,
    kn_matrix,
    loc_to_kn_symbol,
    localization_apply,
    localization_matrix,
)
from .signal import (
    PhaseFunction,
    Signal,
    convolve,
    convolve_phase,
    fourier,
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
from .spectral import check_seed, check_top_k, decay_comparison, haar_baseline
from .tfa import rihaczek, stft, window_constant

__all__ = [
    "IdentityCheck",
    "IDENTITY_REGISTRY",
    "identity_names",
    "check_identity_names",
    "above_order_cap",
    "check_trials",
    "check_decay_options",
    "run_identities",
    "run_frames",
    "run_norms",
    "run_young",
    "run_convrel",
    "run_locop",
    "run_decay",
    "bump_symbol",
    "random_signal",
    "random_phase_function",
    "stream_rng",
]


# ---------------------------------------------------------------------------
# seeded randomness


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one named stream of an experiment."""
    key = np.array([check_seed(seed), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _complex_draw(rng: np.random.Generator, size: int) -> np.ndarray:
    """One standard normal draw of ``2 * size``: the real parts, then the
    imaginary parts."""
    draw = rng.standard_normal(2 * size)
    vals = np.empty(size, dtype=np.complex128)
    vals.real, vals.imag = draw[:size], draw[size:]
    return vals


def random_signal(spec: GroupSpec, rng: np.random.Generator) -> Signal:
    return Signal(spec, _complex_draw(rng, spec.order))


def random_phase_function(spec: GroupSpec, rng: np.random.Generator) -> PhaseFunction:
    return PhaseFunction(spec, _complex_draw(rng, spec.order ** 2))


def _random_point(spec: GroupSpec, rng: np.random.Generator) -> int:
    """One canonical index, a point of the group or of its dual."""
    return int(rng.integers(spec.order))


# ---------------------------------------------------------------------------
# identity registry


_NORM_GRID = (0.5, 1.0, 2.0, math.inf)
_EXPONENT_GRID = tuple(Exponents.of(p, q) for p in _NORM_GRID for q in _NORM_GRID)


@dataclass(frozen=True)
class IdentityCheck:
    """One verifiable identity: the residual of one trial, its tolerance and cost cap."""

    name: str
    summary: str
    tolerance: float
    trial: Callable[[GroupSpec, np.random.Generator], float]
    max_order: int | None = None
    randomized: bool = True


def _worse(worst: float, r: float) -> float:
    """max(worst, r), except that a NaN on either side is kept: max(0.0, nan)
    is 0.0, and a residual that is not a number must fail its tolerance."""
    return r if r > worst or math.isnan(r) else worst


def _commutation(spec, rng):
    f = random_signal(spec, rng)
    x = _random_point(spec, rng)
    xi = _random_point(spec, rng)
    lhs = modulate(translate(f, x), xi)
    rhs = translate(modulate(f, xi), x)
    return float(np.max(np.abs(lhs.values - character_row(spec, xi)[x] * rhs.values)))


def _shifted_pair_args(spec, rng):
    """Two signals and two phase-space points, drawn in argument order."""
    return (random_signal(spec, rng), random_signal(spec, rng),
            _random_point(spec, rng), _random_point(spec, rng),
            _random_point(spec, rng), _random_point(spec, rng))


def _stft_shift_identity_residual(spec, rng):
    """STFT covariance rule under shifts of signal and window.

    Compares V_{pi(y, eta) g}(pi(u, omega) f) against the phase-corrected
    translate of V_g f over every phase-space point.  A shift by s is the
    column D[:, index(-s)] of the difference table, and <xi, .> is T[xi].
    """
    f, g, u, omega, y, eta = _shifted_pair_args(spec, rng)
    lhs = stft(tf_shift(f, u, omega), tf_shift(g, y, eta)).mat
    V = stft(f, g).mat
    T = character_table(spec)
    D = diff_table(spec)                                       # D[a, b] = index(a - b)
    shifted = V[D[:, D[u, y]]][:, D[:, D[omega, eta]]]
    c1 = np.conj(T[u][D[:, omega]])                            # conj<xi - omega, u>
    c2 = T[eta][D[:, u]]                                       # <eta, x - u>
    rhs = c2[:, None] * c1[None, :] * shifted
    return float(np.max(np.abs(lhs - rhs)))


def _rihaczek_covariance_residual(spec, rng):
    """Rihaczek covariance rule under time-frequency shifts of both arguments."""
    f, g, x, xi, y, eta = args = _shifted_pair_args(spec, rng)
    lhs = rihaczek(tf_shift(f, x, xi), tf_shift(g, y, eta)).mat
    return float(np.max(np.abs(lhs - _covariant_rihaczek(*args))))


def _covariant_rihaczek(f, g, x, xi, y, eta) -> np.ndarray:
    """<eta, x - y> <xi - eta, a> <b, y - x> R(f, g)(a - x, b - eta) as an (a, b)
    matrix, the covariance rule's right side, from the base group's tables."""
    T = character_table(f.group)
    D = diff_table(f.group)                                    # D[a, b] = index(a - b)
    rhs = rihaczek(f, g).mat[D[:, x]][:, D[:, eta]]
    rhs *= T[D[xi, eta]][:, None]
    rhs *= T[D[y, x]][None, :]
    rhs *= T[eta, D[x, y]]
    return rhs


def _check_window_support(spec, rng):
    phi = subgroup_indicator(spec)
    V = stft(phi, phi).mat[phase_tiles(spec)]
    on = float(np.max(np.abs(V[0, 0] - window_constant(spec))))
    V[0, 0] = 0.0                                   # block (0, 0) is the tile K x K_perp
    return _worse(on, float(np.max(np.abs(V))))


def _magic_formula_residual(spec, rng):
    """Product formula for the STFT of a Rihaczek distribution.

    The outer STFT lives on the phase-space group; its dual variable
    (omega, u) runs over G^ x G.  Both sides are compared on the full
    four-index grid, so this is meant for small groups only.
    """
    psi, f, g = (random_signal(spec, rng) for _ in range(3))
    n = spec.order
    sigma = rihaczek(g, f).as_signal()
    Phi = rihaczek(psi, psi).as_signal()
    lhs = stft(sigma, Phi).values.reshape(n, n, n, n)          # [x, xi, omega, u]

    Vg = stft(g, psi).mat
    Vf = stft(f, psi).mat
    D = diff_table(spec)                                        # D[a, b] = index(a - b)
    add_idx = D[:, D[0]]                                        # [a, b] -> index(a + b)
    phase = conj_character_table(spec)                          # conj<xi, u>
    A = Vg[:, add_idx]                                          # [x, xi, omega] -> Vg(x, xi+omega)
    B = np.conj(Vf[add_idx, :])                                 # [x, u, xi] -> conj Vf(x+u, xi)
    rhs = (
        phase[None, :, None, :]
        * A[:, :, :, None]
        * np.transpose(B, (0, 2, 1))[:, :, None, :]
    )
    return float(np.max(np.abs(lhs - rhs)))


def _symbol_and_pair(spec, rng):
    """A phase-space function and two signals, drawn in argument order."""
    return random_phase_function(spec, rng), random_signal(spec, rng), random_signal(spec, rng)


def _kn_weak_residual(spec, rng):
    """| <Op(sigma) f, g> - <sigma, R(g, f)> | with the phase-space pairing."""
    sigma, f, g = _symbol_and_pair(spec, rng)
    lhs = inner(kn_apply(sigma, f), g)
    rhs = inner_phase(sigma, rihaczek(g, f))
    return abs(lhs - rhs)


def _kn_kernel_pairing_residual(spec, rng):
    """<Op(sigma) f, g> against the kernel pairing on G x G."""
    sigma, f, g = _symbol_and_pair(spec, rng)
    k = kn_kernel(sigma)
    lhs = inner(kn_apply(sigma, f), g)
    rhs = complex(np.conj(g.values) @ k @ f.values * spec.mass ** 2)
    return abs(lhs - rhs)


def _gabor_matrix_residual(spec, rng):
    """Max entry difference between the direct and closed-form Gabor matrices
    of a symbol on the canonical lattice."""
    sigma, lattice = random_phase_function(spec, rng), quasi_lattice(spec)
    direct = gabor_matrix(sigma, subgroup_indicator(spec), lattice)
    closed = gabor_matrix_closed_form(sigma, lattice)
    return float(np.max(np.abs(direct - closed)))


def _loc_kn_matrix_residual(spec, rng):
    """Max entry difference between the localization matrix and the
    quantization of the convolved symbol."""
    a, psi1, psi2 = _symbol_and_pair(spec, rng)
    direct = localization_matrix(a, psi1, psi2)
    via_kn = kn_matrix(loc_to_kn_symbol(a, psi1, psi2))
    return float(np.max(np.abs(direct - via_kn)))


def _unit(f: Signal) -> Signal:
    return Signal(f.group, f.values / norm_l2(f))


def _moyal_residual(spec, rng):
    """|  ||V_g f||^2_{phase} - ||f||^2 ||g||^2  | for unit f and g."""
    f = _unit(random_signal(spec, rng))
    g = _unit(random_signal(spec, rng))
    lhs = float(np.sum(np.abs(stft(f, g).values) ** 2) * spec.mass * spec.mass_dual)
    return abs(lhs - norm_l2(f) ** 2 * norm_l2(g) ** 2)


def _parseval(spec, rng):
    f = random_signal(spec, rng)
    g = random_signal(spec, rng)
    return abs(inner(f, g) - inner(fourier(f), fourier(g)))


def _inversion(spec, rng):
    f = random_signal(spec, rng)
    return float(np.max(np.abs(inverse_fourier(fourier(f)).values - f.values)))


def _conv_diag(spec, rng):
    f = random_signal(spec, rng)
    g = random_signal(spec, rng)
    lhs = fourier(convolve(f, g)).values
    return float(np.max(np.abs(lhs - fourier(f).values * fourier(g).values)))


def _representative_independence_residual(spec, rng):
    """Worst change of the per-tile maxima of |V_phi f| under re-representation.

    Each point (x, xi) of each block of :func:`phase_tiles` names a tile by
    its cosets x + K and xi + K_perp; the maximum of that tile must be the
    maximum of the tile the point lies in, so the residual is exactly zero
    unless a coset map is wrong.  A NaN coefficient makes the residual NaN.
    """
    rows, cols = phase_tiles(spec)
    V = np.abs(stft(random_signal(spec, rng), subgroup_indicator(spec)).mat)
    maxima = V[rows, cols].max(axis=(2, 3))
    named = maxima[quotient_indices(spec)[1][rows], quotient_indices(dual_spec(spec))[1][cols]]
    return float(np.max(np.abs(named - maxima[:, :, None, None])))


def _covered_and_plain(spec: GroupSpec, f: Signal, phi: Signal) -> tuple[np.ndarray, np.ndarray]:
    """Over _EXPONENT_GRID: the modulation norms of f, and the plain mixed
    norms of |V_phi f| on the whole phase space."""
    covered = modulation_norms(spec, f.values[None], _EXPONENT_GRID)[0]
    W = np.abs(stft(f, phi).mat)[None]
    return covered, mixed_norm_stack(W, _EXPONENT_GRID, spec.mass, spec.mass_dual)[0]


def _pointwise_maximal(spec, rng):
    """With a trivial subgroup the modulation norm is the plain mixed norm of
    |V|; the residual of one signal is the worst over _EXPONENT_GRID."""
    trivial = trivial_subgroup_spec(spec)
    covered, plain = _covered_and_plain(trivial, random_signal(trivial, rng),
                                        subgroup_indicator(trivial))
    return functools.reduce(_worse, (np.abs(covered - plain) / (1.0 + plain)).tolist(), 0.0)


IDENTITY_REGISTRY: tuple[IdentityCheck, ...] = (
    IdentityCheck(
        "shift-commutation",
        "modulation after translation equals the character times the swapped order",
        1e-14,
        _commutation,
    ),
    IdentityCheck(
        "stft-shift",
        "transforming a shifted pair shifts and twists the transform",
        1e-12,
        _stft_shift_identity_residual,
    ),
    IdentityCheck(
        "rihaczek-covariance",
        "shifting both arguments rotates the cross spectrogram on phase space",
        1e-12,
        _rihaczek_covariance_residual,
    ),
    IdentityCheck(
        "window-transform-support",
        "the subgroup indicator transforms to a constant on its tile, zero off it",
        1e-12,
        _check_window_support,
        randomized=False,
    ),
    IdentityCheck(
        "stft-of-rihaczek",
        "the transform of a cross spectrogram factors into two window transforms",
        1e-10,
        _magic_formula_residual,
        max_order=16,
    ),
    IdentityCheck(
        "quantization-weak-form",
        "the operator pairing equals the symbol paired with the cross spectrogram",
        1e-11,
        _kn_weak_residual,
    ),
    IdentityCheck(
        "quantization-kernel",
        "the integral kernel of the quantization reproduces the operator pairing",
        1e-11,
        _kn_kernel_pairing_residual,
    ),
    IdentityCheck(
        "channel-matrix-closed-form",
        "the sampled operator matrix matches its single-sum closed form",
        1e-10,
        _gabor_matrix_residual,
    ),
    IdentityCheck(
        "localization-as-quantization",
        "masking in phase space equals quantizing a smoothed symbol",
        1e-9,
        _loc_kn_matrix_residual,
    ),
    IdentityCheck(
        "transform-energy",
        "the phase-space energy of the transform equals the signal energies",
        1e-12,
        _moyal_residual,
    ),
    IdentityCheck(
        "fourier-parseval",
        "the Fourier transform preserves inner products",
        1e-12,
        _parseval,
    ),
    IdentityCheck(
        "fourier-inversion",
        "the inverse transform undoes the forward transform pointwise",
        1e-12,
        _inversion,
    ),
    IdentityCheck(
        "convolution-diagonalization",
        "the Fourier transform turns convolution into a pointwise product",
        1e-12,
        _conv_diag,
    ),
    IdentityCheck(
        "coset-representative-independence",
        "per-coset maxima of the transform do not depend on the representative",
        0.0,
        _representative_independence_residual,
    ),
    IdentityCheck(
        "pointwise-covering-maximum",
        "with a trivial subgroup the covered norm equals the plain mixed norm",
        1e-13,
        _pointwise_maximal,
    ),
)


def identity_names() -> list[str]:
    return [c.name for c in IDENTITY_REGISTRY]


def above_order_cap(check: IdentityCheck, spec: GroupSpec) -> bool:
    """Whether ``spec`` is above ``check``'s order cap, so that a run skips it."""
    return check.max_order is not None and spec.order > check.max_order


def check_identity_names(names: Sequence[str], spec: GroupSpec | None = None) -> list[str]:
    """``names`` as a list if it is a non-empty list of registry names; an
    empty or unknown subset would check nothing, so it raises ValueError.
    Given ``spec``, so does a subset whose every check is above its order cap."""
    if isinstance(names, str) or not isinstance(names, Sequence) or not names:
        raise ValueError("identity names must be a non-empty list of registry names")
    for n in names:
        if n not in identity_names():
            raise ValueError(f"unknown identity: {n!r}")
    named = [c for c in IDENTITY_REGISTRY if c.name in names]
    if spec is not None and all(above_order_cap(c, spec) for c in named):
        caps = ", ".join(f"{c.name} (cap {c.max_order})" for c in named)
        raise ValueError(f"every named identity is above its order cap at group order "
                         f"{spec.order}, so the run would check nothing: {caps}")
    return list(names)


# ---------------------------------------------------------------------------
# declared checks and the one verdict


# Every check of the other drivers, with its tolerance.  The residual of a
# check is the quantity named in its comment, and the check passes when the
# residual is at most the tolerance.
_CHECKS: dict[str, dict[str, float]] = {
    "frames": {
        "frame-tightness": 1e-10,             # (B - A) / B of the subgroup system
        "frame-expansion": 1e-10,             # worst reconstruction error; NaN without a dual
        "deficient-lattice-collapse": 1e-10,  # A / B once one time coset is dropped
        "painless-frame-bounds": 1e-12,       # (A, B) against c min, c max of |g|^2 on K
        "painless-dual": 1e-12,               # the dual against its closed form; NaN without one
    },
    "norms": {
        "covered-equals-plain": 1e-12,        # max |covered / plain - 1|
        "rnorm-subadditivity": 1e-10,         # max excess / (1 + ||F||^r)
        "modulation-inclusion": 1e-10,        # max ratio / bound - 1
    },
    "young": {
        "young-inequality": 1e-10,            # max_ratio - 1
    },
    "convrel": {
        "convolution-relation-spread": 10.0,  # max over cases of max_c / min_c
    },
    "locop": {
        "localization-apply": 1e-10,          # max |M f - apply(f)|
        "localization-hermitian": 1e-10,      # max |M - M^*| for a real symbol
    },
}


def check_trials(trials: int) -> int:
    """``trials`` as an int if it is an integer of at least 1; numpy integers
    pass.  A run of no trials checks nothing and must not report a pass, and
    a bool or 2.5 counts no trials, so each raises ValueError."""
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be an integer of at least one trial, got {trials!r}")
    return int(trials)


def _header(experiment: str, spec: GroupSpec, seed: int, trials: int, **data) -> dict:
    """Summary of one run: what ran, its data keys, and the failure list."""
    return {"experiment": experiment, "group": spec.to_json(), "seed": check_seed(seed),
            "trials": trials, **data, "failures": []}


def _verdict(summary: dict, name: str, residual: float, tolerance: float | None = None) -> dict:
    """Judge one check and record it in ``summary``.

    Writes ``results[name] = {tolerance, residual, passed}``; the tolerance
    defaults to the one declared in _CHECKS.  A NaN residual fails, and a
    failed check appends its one line to ``failures``.
    """
    if tolerance is None:
        tolerance = _CHECKS[summary["experiment"]][name]
    residual = float(residual)
    entry = {"tolerance": tolerance, "residual": residual, "passed": bool(residual <= tolerance)}
    summary.setdefault("results", {})[name] = entry
    if not entry["passed"]:
        summary["failures"].append(
            f"{name}: residual {residual:.3e} exceeds tolerance {tolerance:.3e}"
        )
    return entry


def run_identities(
    spec: GroupSpec,
    seed: int,
    trials: int,
    names: Sequence[str] | None = None,
) -> tuple[dict, dict]:
    """Run the registry, or the subset ``names``, on one group; returns
    (summary, {}).  A check's residual is the worst of its trials, one trial
    when not randomized, and a check above its order cap is recorded as
    skipped.  An empty or unknown ``names`` raises ValueError."""
    trials = check_trials(trials)
    if names is not None:
        names = check_identity_names(names)
    summary = _header("identities", spec, seed, trials, results={})
    for stream, check in enumerate(IDENTITY_REGISTRY):
        if names is not None and check.name not in names:
            continue
        if above_order_cap(check, spec):
            summary["results"][check.name] = {
                "tolerance": check.tolerance,
                "summary": check.summary,
                "skipped": True,
                "reason": f"group order {spec.order} exceeds cap {check.max_order}",
            }
            continue
        rng = stream_rng(seed, stream)
        n_trials = trials if check.randomized else 1
        worst = 0.0
        for _ in range(n_trials):
            worst = _worse(worst, check.trial(spec, rng))
        entry = _verdict(summary, check.name, worst, check.tolerance)
        entry.update(summary=check.summary, trials=n_trials)
    return summary, {}


# ---------------------------------------------------------------------------
# frames


def run_frames(spec: GroupSpec, seed: int, trials: int) -> tuple[dict, dict]:
    trials = check_trials(trials)
    lattice = quasi_lattice(spec)
    g = subgroup_indicator(spec)
    canonical = gabor_system(g, lattice)
    a, b = canonical.bounds
    summary = _header("frames", spec, seed, trials, lower_bound=a, upper_bound=b,
                      redundancy=len(lattice.x) / spec.order, lattice_size=len(lattice.x))
    _verdict(summary, "frame-tightness", (b - a) / b)

    expansion = math.nan
    try:
        h = dual_window(canonical)
    except NotAFrame as exc:
        summary["dual_window_error"] = f"{type(exc).__name__}: {exc}"
    else:
        rng = stream_rng(seed, 0)
        signals = (random_signal(spec, rng) for _ in range(trials))
        residuals = (r for pair in _expansion_residuals(signals, g, h, lattice) for r in pair)
        expansion = functools.reduce(_worse, residuals, 0.0)
        summary["dual_window_norm"] = norm_l2(h)
    _verdict(summary, "frame-expansion", expansion)

    # removing one full time coset must destroy the frame property
    kept = lattice.x != lattice.x[0]
    da, db = gabor_system(g, lattice_from_points(spec, lattice.x[kept], lattice.xi[kept])).bounds
    summary["deficient_bounds"] = [da, db]
    # at K = G nothing is kept, and the zero operator has A = B = 0
    _verdict(summary, "deficient-lattice-collapse", da / db if db else 0.0)

    # a random complex window supported on K, over the same lattice
    rng = stream_rng(seed, 1)
    k = subgroup_indices(spec)
    values = np.zeros(spec.order, dtype=np.complex128)
    values[k] = rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k))
    painless = gabor_system(Signal(spec, values), lattice)
    summary["painless_bounds"] = list(painless.bounds)
    dual = None
    try:
        dual = dual_window(painless)
    except NotAFrame as exc:
        summary["painless_dual_error"] = f"{type(exc).__name__}: {exc}"
    bounds_residual, dual_residual = _painless_residuals(painless, dual)
    _verdict(summary, "painless-frame-bounds", bounds_residual)
    _verdict(summary, "painless-dual", dual_residual)
    return summary, {}


def _expansion_residuals(
    fs: Iterable[Signal], g: Signal, h: Signal, lattice: QuasiLattice
) -> Iterator[tuple[float, float]]:
    """Reconstruction errors of each f in ``fs`` with (analysis g, synthesis h)
    and swapped.  The shifted stacks of g and h are built once; each f takes
    the matrix-vector products of :func:`fingabor.gabor.analysis` and
    :func:`fingabor.gabor.synthesis`."""
    spec = common_group(lattice, g, h)
    G = tf_shift_rows(g, lattice.x, lattice.xi)
    H = tf_shift_rows(h, lattice.x, lattice.xi)
    G_conj, H_conj = np.conj(G), np.conj(H)
    for f in fs:
        common_group(lattice, f)
        c_g = G_conj @ f.values * spec.mass
        c_h = H_conj @ f.values * spec.mass
        r1 = norm_l2(Signal(spec, c_g @ H - f.values))
        r2 = norm_l2(Signal(spec, c_h @ G - f.values))
        yield float(r1), float(r2)


def _painless_residuals(system: GaborSystem, h: Signal | None) -> tuple[float, float]:
    """Residuals of the closed forms of a window g supported on K over the
    canonical quasi-lattice: with c = mass |K|, A = c min_K |g|^2,
    B = c max_K |g|^2, and the dual window is g / (c |g|^2) on K, 0 off K.

    The frequency transversal restricts to every character of K exactly once,
    so S_{g,g} multiplies f(y) by c |g(y - x)|^2 on each time coset x + K: the
    finite painless case of Daubechies, Grossmann and Meyer (J. Math. Phys.
    27, 1986).  The bounds residual is relative to c max|g|^2, the dual's to
    the closed form's largest modulus, and the latter is NaN without a dual.
    """
    spec = system.lattice.group
    k = subgroup_indices(spec)
    c = abs(window_constant(spec))
    g = system.window.values[k]
    sq, (A, B) = np.abs(g) ** 2, system.bounds
    lo, hi = c * sq.min(), c * sq.max()
    closed = np.zeros(spec.order, dtype=np.complex128)
    closed[k] = g / (c * sq)
    deviation = math.nan if h is None else np.max(np.abs(h.values - closed))
    return float(max(abs(A - lo), abs(B - hi)) / hi), float(deviation / np.max(np.abs(closed)))


# ---------------------------------------------------------------------------
# norms


def _fmt_p(p: float) -> str:
    return "inf" if math.isinf(p) else (f"{p:g}")


def _rnorm_subadditivity_residual(
    F: PhaseFunction, H: PhaseFunction, exps: Sequence[Exponents]
) -> np.ndarray:
    """Row 0: ||F + H||^r - ||F||^r - ||H||^r for each exps[i], with
    r = exps[i].r, nonpositive up to rounding; row 1: ||F|| for each exps[i].
    The norms come from one kernel call on the stack (F + H, F, H)."""
    spec = F.group
    n = spec.order
    W = np.abs(np.stack([F.values + H.values, F.values, H.values])).reshape(-1, n, n)
    norms = mixed_norm_stack(W, exps, spec.mass, spec.mass_dual)
    res = [b ** e.r - f ** e.r - h ** e.r for e, (b, f, h) in zip(exps, norms.T.tolist())]
    return np.array([res, norms[1]])


def run_norms(spec: GroupSpec, seed: int, trials: int) -> tuple[dict, dict]:
    """Covered-vs-plain norm comparison, subadditivity, and inclusion fuzzing."""
    trials = check_trials(trials)
    phi = subgroup_indicator(spec)
    rng = stream_rng(seed, 0)

    # |V_phi f| is constant on K x K_perp cosets, so the amalgam norm on the
    # quotient equals the plain mixed norm of the dense transform.
    lo, hi = np.full(len(_EXPONENT_GRID), math.inf), np.zeros(len(_EXPONENT_GRID))
    for _ in range(trials):
        covered, plain = _covered_and_plain(spec, random_signal(spec, rng), phi)
        # a zero plain norm has no ratio; a NaN one is kept, and
        # np.minimum/np.maximum keep the NaN ratio it gives
        kept = plain != 0
        r = covered[kept] / plain[kept]
        lo[kept] = np.minimum(lo[kept], r)
        hi[kept] = np.maximum(hi[kept], r)
    ratios = {f"{_fmt_p(e.p)}x{_fmt_p(e.q)}": [a, b]
              for e, a, b in zip(_EXPONENT_GRID, lo.tolist(), hi.tolist())}
    summary = _header("norms", spec, seed, trials, covered_over_plain=ratios)
    _verdict(summary, "covered-equals-plain",
             functools.reduce(_worse, (abs(r - 1.0) for lh in ratios.values() for r in lh), 0.0))

    rng = stream_rng(seed, 1)
    finite = [e for e in _EXPONENT_GRID if not (math.isinf(e.p) or math.isinf(e.q))]
    sub_worst = 0.0
    for _ in range(trials):
        F = random_phase_function(spec, rng)
        H = random_phase_function(spec, rng)
        res, norm_f = _rnorm_subadditivity_residual(F, H, finite).tolist()
        for e, r, s in zip(finite, res, norm_f):
            sub_worst = _worse(sub_worst, r / (1.0 + s ** e.r))
    _verdict(summary, "rnorm-subadditivity", sub_worst)

    rng = stream_rng(seed, 2)
    incl_worst = 0.0
    pairs = [
        (Exponents.of(0.5, 0.5), Exponents.of(1, 1)),
        (Exponents.of(1, 1), Exponents.of(2, 2)),
        (Exponents.of(2, 2), Exponents.of(math.inf, math.inf)),
        (Exponents.of(0.5, 2), Exponents.of(1, math.inf)),
    ]
    bounds = [inclusion_bound(spec, e1, e2) for e1, e2 in pairs]
    exps = list(dict.fromkeys(e for pair in pairs for e in pair))
    for _ in range(trials):
        f = random_signal(spec, rng)
        norm = dict(zip(exps, modulation_norms(spec, f.values[None, :], exps)[0].tolist()))
        for (e1, e2), bound in zip(pairs, bounds):
            incl_worst = _worse(incl_worst, inclusion_ratio(norm[e1], norm[e2]) / bound)
    _verdict(summary, "modulation-inclusion", incl_worst - 1.0)

    # deterministic sweep table for one fixed signal
    rows: list[tuple] = []
    f0 = random_signal(spec, stream_rng(seed, 3))
    weights = {
        "flat": None,
        "poly1": Weight.tensor(polynomial_weight(spec, 1.0), polynomial_weight(dual_spec(spec), 1.0)),
    }
    V0 = np.abs(stft(f0, phi).mat)[None]
    for wid, m in weights.items():
        # window set K x K_perp, then the unit set {0}: the plain norm of V
        tile = modulation_norms(spec, f0.values[None, :], _EXPONENT_GRID, m)[0]
        unit = mixed_norm_stack(V0, _EXPONENT_GRID, spec.mass, spec.mass_dual, m)[0]
        for gid, values in (("tile", tile.tolist()), ("unit", unit.tolist())):
            for e, val in zip(_EXPONENT_GRID, values):
                rows.append((_fmt_p(e.p), _fmt_p(e.q), wid, gid, f"{val!r}"))

    tables = {"norm_sweep": [("p", "q", "weight", "window", "value")] + rows}
    return summary, tables


# ---------------------------------------------------------------------------
# convolution inequalities


_YOUNG_AXIS = (
    (1.0, 1.0, 1.0),
    (1.0, 2.0, 2.0),
    (2.0, 1.0, 2.0),
    (1.0, math.inf, math.inf),
    (math.inf, 1.0, math.inf),
    (2.0, 2.0, math.inf),
    (4.0 / 3.0, 4.0 / 3.0, 2.0),
    (4.0 / 3.0, 4.0, math.inf),
    (4.0, 4.0 / 3.0, math.inf),
    (1.0, 4.0, 4.0),
    (4.0, 1.0, 4.0),
    (4.0 / 3.0, 2.0, 4.0),
    (2.0, 4.0 / 3.0, 4.0),
)


# Bytes per trial stack in run_young: |F * H|, |F| and |H| are each held for
# a block of trials, so the block shrinks as the phase space grows.
_YOUNG_BLOCK_BYTES = 65536


def _young_block(spec: GroupSpec) -> int:
    """Trials per block of run_young: as many float64 phase functions as fit
    in _YOUNG_BLOCK_BYTES, and at least one."""
    return max(1, _YOUNG_BLOCK_BYTES // (8 * spec.order ** 2))


def run_young(spec: GroupSpec, seed: int, trials: int) -> tuple[dict, dict]:
    trials = check_trials(trials)
    rng = stream_rng(seed, 0)
    combos = [
        (ax1, ax2)
        for ax1 in _YOUNG_AXIS
        for ax2 in _YOUNG_AXIS
    ]
    exps = [
        (Exponents.of(p3, q3), Exponents.of(p1, q1), Exponents.of(p2, q2))
        for (p1, p2, p3), (q1, q2, q3) in combos
    ]
    for e_out, e_left, e_right in exps:
        check_young_exponents(e_out, e_left, e_right)
    # each side's distinct exponents, and each combo's index into them
    sides = [list(dict.fromkeys(col)) for col in zip(*exps)]
    position = [{e: j for j, e in enumerate(side)} for side in sides]
    index = [np.array([pos[e] for e in col]) for pos, col in zip(position, zip(*exps))]
    n = spec.order
    block = _young_block(spec)
    stacks = np.empty((3, block, n, n))
    worst = np.zeros(len(combos))
    for start in range(0, trials, block):
        b = min(block, trials - start)
        for k in range(b):
            F = random_phase_function(spec, rng)
            H = random_phase_function(spec, rng)
            for W, G in zip(stacks, (convolve_phase(F, H), F, H)):
                np.abs(G.mat, out=W[k])
        # norms[side][t, j]: side's j-th exponent on trial t of the block
        norms = [mixed_norm_stack(W[:b], side, spec.mass, spec.mass_dual)
                 for W, side in zip(stacks, sides)]
        lhs = norms[0][:, index[0]]
        rhs = norms[1][:, index[1]] * norms[2][:, index[2]]
        # a ratio is 0 where rhs is 0 and NaN where a side is; max keeps a
        # NaN, and so does the fold
        top = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=~(rhs <= 0)).max(axis=0)
        worst = np.where((top > worst) | np.isnan(top), top, worst)
    worst = worst.tolist()
    rows = [("p_left", "q_left", "p_right", "q_right", "p_out", "q_out", "max_ratio")]
    for i, ((p1, p2, p3), (q1, q2, q3)) in enumerate(combos):
        rows.append(
            (_fmt_p(p1), _fmt_p(q1), _fmt_p(p2), _fmt_p(q2), _fmt_p(p3), _fmt_p(q3),
             f"{worst[i]!r}")
        )
    max_ratio = functools.reduce(_worse, worst, 0.0)
    summary = _header("young", spec, seed, trials, combos=len(combos), max_ratio=max_ratio)
    _verdict(summary, "young-inequality", max_ratio - 1.0)
    return summary, {"young_ratios": rows}


_CONVREL_CASES = (
    # (p_out, q_out), (p_f, q_f), (p_g, q_g): outer axis needs 1/u + 1/t = 1/q_out,
    # inner axis needs either the classical relation with r >= 1 or p = q = r < 1.
    ((1.0, 1.0), (1.0, 2.0), (1.0, 2.0)),
    ((0.5, 0.5), (0.5, 1.0), (0.5, 1.0)),
    ((1.0, 0.5), (1.0, 1.0), (1.0, 1.0)),
    ((2.0, 1.0), (2.0, 2.0), (1.0, 2.0)),
)


def run_convrel(spec: GroupSpec, seed: int, trials: int) -> tuple[dict, dict]:
    trials = check_trials(trials)
    rng = stream_rng(seed, 0)
    pxi = polynomial_weight(dual_spec(spec), 1.0)
    m = Weight.tensor(polynomial_weight(spec, 1.0), pxi)
    nu = np.sqrt(pxi.values)
    c_min, c_max = np.full(len(_CONVREL_CASES), math.inf), np.zeros(len(_CONVREL_CASES))
    for _ in range(trials):
        f = random_signal(spec, rng)
        g = random_signal(spec, rng)
        lhs, rhs = convolution_relation_probe(f, g, _CONVREL_CASES, m=m, nu=nu).T
        # a degenerate trial gives its case a NaN constant, which the fold keeps
        ok = np.isfinite(lhs) & np.isfinite(rhs) & (rhs > 0)
        c = np.divide(lhs, rhs, out=np.full_like(lhs, math.nan), where=ok)
        c_min, c_max = np.minimum(c_min, c), np.maximum(c_max, c)
    rows = [("case", "p_out", "q_out", "p_f", "q_f", "p_g", "q_g", "min_c", "max_c", "spread")]
    spreads = {}
    bounds = zip(_CONVREL_CASES, c_min.tolist(), c_max.tolist())
    for i, ((eo, ef, eg), lo, hi) in enumerate(bounds):
        spreads[str(i)] = spread = math.inf if lo <= 0 else hi / lo
        rows.append(
            (str(i), _fmt_p(eo[0]), _fmt_p(eo[1]), _fmt_p(ef[0]), _fmt_p(ef[1]),
             _fmt_p(eg[0]), _fmt_p(eg[1]), f"{lo!r}", f"{hi!r}", f"{spread!r}")
        )
    summary = _header("convrel", spec, seed, trials, cases=len(_CONVREL_CASES), spreads=spreads)
    _verdict(summary, "convolution-relation-spread", functools.reduce(_worse, spreads.values(), 0.0))
    return summary, {"convrel_constants": rows}


# ---------------------------------------------------------------------------
# localization operators


def run_locop(spec: GroupSpec, seed: int, trials: int) -> tuple[dict, dict]:
    trials = check_trials(trials)
    rng = stream_rng(seed, 0)
    worst_herm = 0.0
    worst_apply = 0.0
    for _ in range(trials):
        a = random_phase_function(spec, rng)
        psi1 = random_signal(spec, rng)
        psi2 = random_signal(spec, rng)
        f = random_signal(spec, rng)
        M = localization_matrix(a, psi1, psi2)
        out = localization_apply(a, psi1, psi2, f)
        worst_apply = _worse(worst_apply, float(np.max(np.abs(M @ f.values - out.values))))
        real_a = PhaseFunction(spec, np.abs(a.values).astype(np.complex128))
        Mh = localization_matrix(real_a, psi1, psi1)
        worst_herm = _worse(worst_herm, float(np.max(np.abs(Mh - Mh.conj().T))))
    summary = _header("locop", spec, seed, trials)
    _verdict(summary, "localization-apply", worst_apply)
    _verdict(summary, "localization-hermitian", worst_herm)
    return summary, {}


# ---------------------------------------------------------------------------
# spectral decay


def bump_symbol(spec: GroupSpec) -> PhaseFunction:
    """Smooth mask on the box of the first |K| points of the group times the
    first |K_perp| points of the dual, in canonical order.

    A raised-cosine profile along each side of the box, normalized to peak
    value one.  The box is not a tile of K x K_perp: on Z_64/8 its 64 points
    lie in 64 different tiles, one point in each.
    """
    n = spec.order
    nk = spec.subgroup_order
    na = spec.annihilator_order
    wx = np.sin(np.pi * (np.arange(nk) + 0.5) / nk) ** 2
    wf = np.sin(np.pi * (np.arange(na) + 0.5) / na) ** 2
    box = np.outer(wx, wf)
    box = box / box.max()
    vals = np.zeros((n, n), dtype=np.complex128)
    vals[:nk, :na] = box
    return PhaseFunction(spec, vals.reshape(-1))


def _control_matrix(order: int, seed: int) -> np.ndarray:
    """Dense Hermitian matrix with independent Gaussian entries."""
    rng = stream_rng(seed, 2**32)
    z = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    return (z + z.conj().T) / 2.0


def check_decay_options(
    gammas: Sequence[float], top_k: int, control_seeds: Sequence[int]
) -> tuple[list[float], int, list[int]]:
    """The options of :func:`run_decay` as ``(gammas, top_k, control_seeds)``
    of floats, an int and ints, if ``gammas`` is a non-empty list of finite
    positive numbers, ``top_k`` passes :func:`fingabor.spectral.check_top_k`
    and each control seed :func:`fingabor.spectral.check_seed`; numpy numbers
    pass.  An empty list profiles nothing and an infinite gamma or one beyond
    the float range has no norm, so each raises ValueError."""
    gammas = list(gammas)
    if not gammas:
        raise ValueError("gammas must be a non-empty list of exponents")
    for g in gammas:
        try:  # float() of an int beyond the float range raises OverflowError
            ok = isinstance(g, numbers.Real) and not isinstance(g, bool) and 0 < float(g) < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"gammas must be finite positive numbers, got {g!r:.40}")
    return ([float(g) for g in gammas], check_top_k(top_k),
            [check_seed(s) for s in control_seeds])


def run_decay(
    spec: GroupSpec,
    seed: int,
    trials: int = 500,
    gammas: Sequence[float] = (0.5, 1.0, 2.0),
    top_k: int = 3,
    control_seeds: Sequence[int] = tuple(range(10)),
) -> tuple[dict, dict]:
    """Rank the top eigenfunctions of the bump symbol's localization operator,
    and one of each control matrix, against Haar baselines; returns
    (summary, {}).  The trial count and the options are checked before any
    work starts (:func:`check_trials`, :func:`check_decay_options`)."""
    trials, seed = check_trials(trials), check_seed(seed)
    gammas, top_k, control_seeds = check_decay_options(gammas, top_k, control_seeds)
    a = bump_symbol(spec)
    phi = subgroup_indicator(spec)
    A = localization_matrix(a, phi, phi)
    # the run's seed is also a control seed by default: draw each seed's baseline once
    baselines = {s: haar_baseline(spec, trials, s) for s in dict.fromkeys((seed, *control_seeds))}
    report = {**decay_comparison(spec, A, baselines[seed], tuple(gammas), top_k), "seed": seed}
    rows = [row for prof in report["profiles"] for row in prof]
    controls = []
    for cs in control_seeds:
        crep = decay_comparison(spec, _control_matrix(spec.order, cs), baselines[cs],
                                tuple(gammas), top_k=1)
        rows += crep["profiles"][0]
        controls.append(
            {
                "seed": cs,
                "percentile": crep["percentiles"][0],
                "top_ratio": crep["profiles"][0][0]["ratio"],
            }
        )
    summary = _header("decay", spec, seed, trials, localization=report, controls=controls)
    # an overflowing power sum makes a norm infinite and its percentile meaningless
    bad = {r["gamma"] for r in rows if not all(map(math.isfinite, (r["norm"], r["ratio"])))}
    for g in sorted(bad):
        summary["failures"].append(f"decay gamma {g!r}: non-finite norm or ratio")
    return summary, {}
