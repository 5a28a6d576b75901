"""Weighted mixed quasi-norms, Wiener norms and modulation norms.

The mixed norm on phase space integrates x first (group mass) and xi
second (dual mass):

    ||F||_{p,q,m} = ( sum_xi mass_dual ( sum_x mass |F(x,xi)|^p m(x,xi)^p )^{q/p} )^{1/q}

with max replacing the sum for an infinite exponent.  Quasi-norm exponents
below 1 are allowed; r = min(1, p, q) is the subadditivity exponent.

The Wiener norm is the mixed norm of the local maximal function over a
window set Q of phase offsets, and the modulation norm is the Wiener norm
of an STFT.  The canonical window set is K x K_perp, which collapses to
{e} x G^ when K is trivial and to G x {e^} when K is everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .group import (
    GroupMismatch,
    GroupSpec,
    phase_spec,
    residue_grid,
    tile_indices,
    translation_perm,
)
from .signal import PhaseFunction, Signal, convolve_phase, norm_l2
from .tfa import gaussian_window, stft


class NonPositiveExponent(ValueError):
    """Quasi-norm exponent must be strictly positive."""


class EmptyWindow(ValueError):
    """Window set with no offsets."""


class ZeroWindow(ValueError):
    """STFT window with zero norm."""


@dataclass(frozen=True)
class Exponents:
    """Pair (p, q) of quasi-norm exponents; math.inf is allowed."""

    p: float
    q: float

    def __post_init__(self) -> None:
        for value in (self.p, self.q):
            if not value > 0:
                raise NonPositiveExponent(f"exponent must be positive, got {value}")

    @property
    def r(self) -> float:
        """Subadditivity exponent min(1, p, q)."""
        return min(1.0, self.p, self.q)

    @staticmethod
    def of(e: "Exponents | Sequence[float] | float", q: float | None = None) -> "Exponents":
        if q is not None:
            return Exponents(float(e), float(q))
        if isinstance(e, Exponents):
            return e
        p, q = e
        return Exponents(float(p), float(q))


@dataclass(frozen=True, eq=False)
class Weight:
    """Strictly positive weight, stored flat in canonical order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64).reshape(-1)
        if vals.size == 0 or not np.all(vals > 0):
            raise ValueError("weight must be strictly positive everywhere")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def one(size: int) -> "Weight":
        return Weight(np.ones(size))

    @staticmethod
    def tensor(w1: "Weight | np.ndarray | Sequence[float]",
               w2: "Weight | np.ndarray | Sequence[float]") -> "Weight":
        """w(x, xi) = w1(x) w2(xi) flattened in canonical (x, xi) order."""
        a = w1.values if isinstance(w1, Weight) else np.asarray(w1, float)
        b = w2.values if isinstance(w2, Weight) else np.asarray(w2, float)
        return Weight(np.outer(a, b).reshape(-1))


def polynomial_weight(spec: GroupSpec, s: float) -> Weight:
    """(1 + circular distance to 0)^s on one group, a submultiplicative family."""
    grid = residue_grid(spec)
    mods = np.asarray(spec.factors)
    dist = np.minimum(grid, mods - grid).sum(axis=1)
    return Weight((1.0 + dist) ** s)


@dataclass(frozen=True)
class WindowSet:
    """Finite set of phase-space offsets containing the unit."""

    group: GroupSpec
    offsets: tuple[int, ...]   # flat phase indices

    def __post_init__(self) -> None:
        if len(self.offsets) == 0:
            raise EmptyWindow("window set needs at least one offset")
        offs = tuple(int(i) for i in self.offsets)
        if 0 not in offs:
            raise ValueError("window set must contain the unit offset")
        object.__setattr__(self, "offsets", offs)


def unit_window(spec: GroupSpec) -> WindowSet:
    return WindowSet(spec, (0,))


def canonical_window(spec: GroupSpec) -> WindowSet:
    """Offsets K x K_perp; the natural tile of the quasi-lattice."""
    return WindowSet(spec, tuple(int(i) for i in tile_indices(spec)))


# ---------------------------------------------------------------------------
# norms


def mixed_quasi_norm(
    F: PhaseFunction, e: Exponents | Sequence[float], m: Weight | None = None
) -> float:
    """Weighted L^{p,q} quasi-norm on phase space, x inner, xi outer."""
    e = Exponents.of(e)
    spec = F.group
    n = spec.order
    W = np.abs(F.values)
    if m is not None:
        if m.values.shape != (n * n,):
            raise GroupMismatch("weight does not match the phase space")
        W = W * m.values
    return _mixed_norm_stack(W.reshape(1, n, n), e, spec.mass, spec.mass_dual)[0]


def _mixed_norm_stack(
    W: np.ndarray, e: Exponents, mass: float, mass_dual: float
) -> list[float]:
    """Unweighted mixed quasi-norm of each nonnegative W[b, x, xi], with
    ``mass`` per point x and ``mass_dual`` per point xi."""
    if math.isinf(e.p):
        inner = W.max(axis=1)
    else:
        inner = (mass * (W ** e.p).sum(axis=1)) ** (1.0 / e.p)
    if math.isinf(e.q):
        return inner.max(axis=1).tolist()
    outer = mass_dual * (inner ** e.q).sum(axis=1)
    # The last power per element on Python floats, which is libm pow: an
    # ndarray ** 2.0 squares instead and can differ in the last bit.
    return [s ** (1.0 / e.q) for s in outer.tolist()]


def rnorm_subadditivity_residual(
    F: PhaseFunction,
    H: PhaseFunction,
    e: Exponents | Sequence[float],
    m: Weight | None = None,
) -> float:
    """||F + H||^r - ||F||^r - ||H||^r; nonpositive up to rounding."""
    e = Exponents.of(e)
    both = PhaseFunction(F.group, F.values + H.values)
    r = e.r
    return (
        mixed_quasi_norm(both, e, m) ** r
        - mixed_quasi_norm(F, e, m) ** r
        - mixed_quasi_norm(H, e, m) ** r
    )


@lru_cache(maxsize=16)
def _window_gather(spec: GroupSpec, Q: WindowSet) -> np.ndarray:
    """Stacked translation permutations for every offset of the window set."""
    pspec = phase_spec(spec)
    grid = residue_grid(pspec)
    rows = np.empty((len(Q.offsets), pspec.order), dtype=np.int64)
    for i, off in enumerate(Q.offsets):
        rows[i] = translation_perm(pspec, tuple(grid[off]))
    rows.setflags(write=False)
    return rows


def maximal_function(F: PhaseFunction, Q: WindowSet) -> PhaseFunction:
    """(M_Q F)(z) = max over q in Q of |F(z + q)|."""
    if Q.group != F.group:
        raise GroupMismatch("window set belongs to a different group")
    return PhaseFunction(F.group, _maximal_stack(F.group, np.abs(F.values)[None, :], Q)[0])


def _maximal_stack(spec: GroupSpec, mags: np.ndarray, Q: WindowSet) -> np.ndarray:
    """Maximal function of each row of mags[b, z] >= 0 over the window set Q.

    The canonical window K x K_perp is the subgroup of the phase space, so
    there the maximum over z + Q is the maximum over the coset of z: each
    phase axis N_j splits into (N_j / step_j, step_j), the subgroup axis is
    reduced and the result broadcast back.  Other windows gather shifts.
    """
    pspec = phase_spec(spec)
    if Q == canonical_window(spec):
        shape = [mags.shape[0]]
        for n, step in zip(pspec.factors, pspec.subgroup_divisors):
            shape += [n // step, step]
        coset = np.reshape(mags, shape).max(axis=tuple(range(1, len(shape), 2)), keepdims=True)
        return np.broadcast_to(coset, shape).reshape(mags.shape)
    if mags.shape[0] * len(Q.offsets) * pspec.order <= 2**22:
        return mags[:, _window_gather(spec, Q)].max(axis=1)
    grid = residue_grid(pspec)
    out = np.zeros(mags.shape)
    for off in Q.offsets:
        np.maximum(out, mags[:, translation_perm(pspec, grid[off])], out=out)
    return out


def wiener_norm(
    F: PhaseFunction,
    Q: WindowSet,
    e: Exponents | Sequence[float],
    m: Weight | None = None,
) -> float:
    """Mixed quasi-norm of the local maximal function."""
    return mixed_quasi_norm(maximal_function(F, Q), e, m)


def modulation_norm(
    f: Signal,
    window: Signal | None = None,
    e: Exponents | Sequence[float] = (2.0, 2.0),
    m: Weight | None = None,
    Q: WindowSet | None = None,
) -> float:
    """Wiener norm of the STFT of f.

    Defaults: window = indicator of K, Q = K x K_perp.
    """
    if window is None:
        window = gaussian_window(f.group)
    if norm_l2(window) == 0.0:
        raise ZeroWindow("modulation norm needs a nonzero window")
    if Q is None:
        Q = canonical_window(f.group)
    return wiener_norm(stft(f, window), Q, e, m)


# ---------------------------------------------------------------------------
# inequalities


def inclusion_check(
    f: Signal,
    e1: Exponents | Sequence[float],
    e2: Exponents | Sequence[float],
    m1: Weight | None = None,
    m2: Weight | None = None,
    window: Signal | None = None,
    Q: WindowSet | None = None,
    slack: float = 1e-10,
):
    """Check the modulation-norm inclusion for increasing exponents.

    Requires p1 <= p2 and q1 <= q2; returns (ok, ratio, bound) where ratio
    is norm2 / norm1 and bound the constant from the point masses and the
    weight quotient.
    """
    e1 = Exponents.of(e1)
    e2 = Exponents.of(e2)
    if e1.p > e2.p or e1.q > e2.q:
        raise ValueError("inclusion requires componentwise increasing exponents")
    spec = f.group
    n2sq = spec.order ** 2
    w1 = m1.values if m1 is not None else np.ones(n2sq)
    w2 = m2.values if m2 is not None else np.ones(n2sq)
    wquot = float(np.max(w2 / w1))
    bound = (
        wquot
        * spec.mass ** (_inv(e2.p) - _inv(e1.p))
        * spec.mass_dual ** (_inv(e2.q) - _inv(e1.q))
    )
    n1 = modulation_norm(f, window, e1, m1, Q)
    n2 = modulation_norm(f, window, e2, m2, Q)
    if n1 == 0.0:
        return True, 0.0, bound
    ratio = n2 / n1
    return bool(ratio <= bound * (1.0 + slack)), float(ratio), float(bound)


def _inv(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


def young_verify(
    F: PhaseFunction,
    H: PhaseFunction,
    e_out: Exponents | Sequence[float],
    e_left: Exponents | Sequence[float],
    e_right: Exponents | Sequence[float],
    m: Weight | None = None,
    v: Weight | None = None,
) -> tuple[float, float]:
    """Both sides of the convolution inequality on phase space.

    Exponents must satisfy 1/p_i + 1/q_i = 1 + 1/r_i with all of them in
    [1, inf].  Returns (lhs, rhs) = (norm of F * H, product of norms); the
    inequality lhs <= rhs holds with constant 1 when m is v-moderate with
    constant 1, and with the moderateness constant otherwise.
    """
    e_out = Exponents.of(e_out)
    e_left = Exponents.of(e_left)
    e_right = Exponents.of(e_right)
    check_young_exponents(e_out, e_left, e_right)
    lhs = mixed_quasi_norm(convolve_phase(F, H), e_out, m)
    rhs = mixed_quasi_norm(F, e_left, m) * mixed_quasi_norm(H, e_right, v)
    return float(lhs), float(rhs)


def check_young_exponents(e_out: Exponents, e_left: Exponents, e_right: Exponents) -> None:
    """Raise ValueError unless 1/p_i + 1/q_i = 1 + 1/r_i with all in [1, inf]."""
    for p, q, r in ((e_left.p, e_right.p, e_out.p), (e_left.q, e_right.q, e_out.q)):
        if min(p, q, r) < 1.0:
            raise ValueError("convolution inequality needs exponents >= 1")
        if abs(_inv(p) + _inv(q) - 1.0 - _inv(r)) > 1e-12:
            raise ValueError(f"exponents ({p}, {q}, {r}) are not convolution-admissible")
