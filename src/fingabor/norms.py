"""Weighted mixed quasi-norms and modulation norms.

The mixed norm on phase space integrates x first (group mass) and xi
second (dual mass):

    ||F||_{p,q,m} = ( sum_xi mass_dual ( sum_x mass |F(x,xi)|^p m(x,xi)^p )^{q/p} )^{1/q}

with max replacing the sum for an infinite exponent.  Quasi-norm exponents
below 1 are allowed; r = min(1, p, q) is the subadditivity exponent.

The modulation norm is the Wiener-amalgam norm of V_phi f for the window
phi = 1_K and the window set U = K x K_perp: the mixed norm of the local
maximum z -> max_{u in U} |V_phi f(z + u)|.  For this window the maximum
does nothing.  With K = d_1 Z_N1 x ... x d_k Z_Nk write each residue as
x = j + d c with j < d; then

    |V_phi f(x, xi)| = mass |sum_{c in K} f(j + d c) conj<xi mod N/d, c>|,

a transform on the group K = Z_{N1/d1} x ... that depends only on the
coset (x + K, xi + K_perp).  So |V_phi f| is its own maximum over z + U,
and the amalgam norm is the mixed norm on the quotient G/K x G^/K_perp.
One product with the character table of K gives every value Q[j, eta] in
n |K| operations instead of the n^3 of a dense STFT, and each value stands
for |K| points x and |K_perp| points xi:

    ||f||_{M^{p,q}} = ( mass_dual |K_perp| sum_eta
                        ( mass |K| sum_j Q[j, eta]^p )^{q/p} )^{1/q}.

A weight need not be constant on cosets, so a weighted norm broadcasts Q
back to every (x, xi) and takes the weighted mixed norm there.  The norm
probes of the Rihaczek and convolution bounds pass a weight only when
they are given one, so every unweighted norm takes the quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .group import (GroupMismatch, GroupSpec, circular_distance, diff_table, quotient_indices,
                     subgroup_character_table)
from .signal import Signal, convolve
from .tfa import rihaczek, window_constant


class NonPositiveExponent(ValueError):
    """Quasi-norm exponent must be strictly positive."""


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
    """Finite, strictly positive weight, stored flat in canonical order."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64).reshape(-1)
        if vals.size == 0 or not np.all((vals > 0) & (vals < np.inf)):
            raise ValueError("weight must be finite and strictly positive everywhere")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def tensor(w1: "Weight | np.ndarray | Sequence[float]",
               w2: "Weight | np.ndarray | Sequence[float]") -> "Weight":
        """w(x, xi) = w1(x) w2(xi) flattened in canonical (x, xi) order."""
        a = w1.values if isinstance(w1, Weight) else np.asarray(w1, float)
        b = w2.values if isinstance(w2, Weight) else np.asarray(w2, float)
        return Weight(np.outer(a, b).reshape(-1))


def polynomial_weight(spec: GroupSpec, s: float) -> Weight:
    """(1 + circular distance to 0)^s on one group, a submultiplicative family."""
    return Weight((1.0 + circular_distance(spec)) ** s)


# ---------------------------------------------------------------------------
# norms


def mixed_norm_stack(
    W: np.ndarray, exps: Sequence[Exponents], mass: float, mass_dual: float,
    m: Weight | None = None,
) -> np.ndarray:
    """Mixed quasi-norms [b, i] of each nonnegative W[b, x, xi], times the
    weight m(x, xi) when one is given, for each exps[i], with ``mass`` per
    point x and ``mass_dual`` per point xi.

    Each distinct inner p-sum is taken once for the whole list.  Entry
    [b, i] does not depend on the other rows of the stack or on the other
    exponents of the list, bit for bit, whatever the layout of W: only in
    C order is each row summed as a one-row stack would be, so W is copied
    to C order when it is not.
    """
    if m is not None:
        if m.values.shape != (W.shape[1] * W.shape[2],):
            raise GroupMismatch("weight does not match the phase space")
        W = np.multiply(W, m.values.reshape(W.shape[1:]), order="C")
    else:
        W = np.ascontiguousarray(W)
    out = np.empty((W.shape[0], len(exps)))
    inner: dict[float, np.ndarray] = {}
    for i, e in enumerate(exps):
        if e.p not in inner:
            inner[e.p] = (W.max(axis=1) if math.isinf(e.p)
                          else (mass * (W ** e.p).sum(axis=1)) ** (1.0 / e.p))
        if math.isinf(e.q):
            out[:, i] = inner[e.p].max(axis=1)
            continue
        outer = mass_dual * (inner[e.p] ** e.q).sum(axis=1)
        # The last power per element on Python floats, which is libm pow: an
        # ndarray ** 2.0 squares instead and can differ in the last bit.
        out[:, i] = [s ** (1.0 / e.q) for s in outer.tolist()]
    return out


def modulation_norm(
    f: Signal, e: Exponents | Sequence[float] = (2.0, 2.0), m: Weight | None = None
) -> float:
    """Modulation quasi-norm of f for the window 1_K and the window set
    K x K_perp: the one-row, one-exponent view of :func:`modulation_norms`."""
    return float(modulation_norms(f.group, f.values[None, :], [Exponents.of(e)], m)[0, 0])


def modulation_norms(
    spec: GroupSpec, F: np.ndarray, exps: Sequence[Exponents], m: Weight | None = None
) -> np.ndarray:
    """Modulation norms [b, i] of each row F[b] for each exps[i], from one
    kernel call.  Unweighted, the multiplicities |K| and |K_perp| of the
    quotient go into the masses; a weight gets Q broadcast back to (x, xi)."""
    if np.ndim(F) != 2 or np.shape(F)[1] != spec.order:
        raise GroupMismatch(f"expected rows of {spec.order} values, got shape {np.shape(F)}")
    Q = _coset_magnitudes(spec, F)
    if m is None:
        mass = spec.mass * spec.subgroup_order
        mass_dual = spec.mass_dual * spec.annihilator_order
        return mixed_norm_stack(Q, exps, mass, mass_dual)
    _, coset, eta = quotient_indices(spec)
    return mixed_norm_stack(Q[:, coset][:, :, eta], exps, spec.mass, spec.mass_dual, m)


def _coset_magnitudes(spec: GroupSpec, F: np.ndarray) -> np.ndarray:
    """|V_phi f| of each row F[b] on the quotient, as Q[b, x mod d, xi mod N/d]:
    the rows f_b(j + d c), c inner, times the conjugate character table of K."""
    rows = F[:, quotient_indices(spec)[0]].reshape(-1, spec.subgroup_order)
    T = np.conj(subgroup_character_table(spec)).T
    # numpy hands a one-row product (K = G, one signal) to gemv, which rounds
    # differently from gemm; a repeated row keeps every row on gemm.
    V = rows @ T if len(rows) > 1 else (np.repeat(rows, 2, axis=0) @ T)[:1]
    Q = np.abs(V) * spec.mass
    return Q.reshape(F.shape[0], spec.annihilator_order, spec.subgroup_order)


# ---------------------------------------------------------------------------
# inequalities


def inclusion_bound(
    spec: GroupSpec,
    e1: Exponents | Sequence[float],
    e2: Exponents | Sequence[float],
) -> float:
    """Constant of the unweighted modulation-norm inclusion ||f||_{e2} <=
    bound ||f||_{e1}, from the point masses.

    Requires p1 <= p2 and q1 <= q2.  The experiments judge the inclusion;
    this module gives only the bound and :func:`inclusion_ratio`.
    """
    e1 = Exponents.of(e1)
    e2 = Exponents.of(e2)
    if e1.p > e2.p or e1.q > e2.q:
        raise ValueError("inclusion requires componentwise increasing exponents")
    return float(
        spec.mass ** (_inv(e2.p) - _inv(e1.p))
        * spec.mass_dual ** (_inv(e2.q) - _inv(e1.q))
    )


def inclusion_ratio(n1: float, n2: float) -> float:
    """The ratio ``n2 / n1`` of the inclusion inequality; 0 when ``n1`` is 0,
    where ``f = 0`` and both sides vanish."""
    return float(n2 / n1) if n1 != 0.0 else 0.0


def _inv(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


def check_young_exponents(e_out: Exponents, e_left: Exponents, e_right: Exponents) -> None:
    """Raise ValueError unless 1/p_i + 1/q_i = 1 + 1/r_i with all in [1, inf]."""
    for p, q, r in ((e_left.p, e_right.p, e_out.p), (e_left.q, e_right.q, e_out.q)):
        _check_young_axis(p, q, r)


def _check_young_axis(p: float, q: float, r: float) -> None:
    """Raise ValueError unless 1/p + 1/q = 1 + 1/r with p, q, r in [1, inf]."""
    if min(p, q, r) < 1.0:
        raise ValueError("convolution inequality needs exponents >= 1")
    if abs(_inv(p) + _inv(q) - 1.0 - _inv(r)) > 1e-12:
        raise ValueError(f"exponents ({p}, {q}, {r}) are not convolution-admissible")


# ---------------------------------------------------------------------------
# norm probes


def rihaczek_continuity_probe(
    g: Signal,
    f: Signal,
    e_out: Exponents | Sequence[float],
    e_g: Exponents | Sequence[float],
    e_f: Exponents | Sequence[float],
    v: Weight | None = None,
) -> tuple[float, float]:
    """Realized pair (lhs, rhs) for the Rihaczek mapping bound.

    lhs is the modulation norm of R(g, f) on the doubled group, computed
    with window R(phi, phi) and weight 1 x (v o J^{-1}); rhs is the product
    of the modulation norms of g and f with weight v.  R(phi, phi) is
    c = <phi, phi> (``window_constant``) times the indicator of
    K x K_perp (to rounding), the doubled group's own canonical window,
    so the lhs is |c| times its canonical norm.  Without v every norm is
    unweighted.
    """
    spec = f.group
    R = rihaczek(g, f).as_signal()
    c = abs(window_constant(spec))
    w = None
    if v is not None:
        n = spec.order
        # col[omega * n + u] = v(J^{-1}(omega, u)) = v(u, -omega); D[0, omega] = index(-omega)
        col = v.values.reshape(n, n)[:, diff_table(spec)[0]].T.reshape(-1)
        w = Weight(np.tile(col, n * n))
    lhs = c * modulation_norm(R, e_out, w)
    rhs = modulation_norm(g, e_g, v) * modulation_norm(f, e_f, v)
    return float(lhs), float(rhs)


def convolution_relation_probe(
    f: Signal,
    g: Signal,
    cases: Sequence[tuple[Exponents | Sequence[float], ...]],
    m: Weight | None = None,
    nu: np.ndarray | None = None,
) -> np.ndarray:
    """Realized pairs [case, (lhs, rhs)] for the modulation-space convolution
    bound, one row per exponent triple (e_out, e_f, e_g) = ((r, gamma),
    (p, u), (q, t)) of ``cases``.

    lhs = norm of f * g in M^{r, gamma}_m computed with the self-convolved
    window phi * phi = c 1_K, that is |c| times the canonical norm, where
    c = mass |K| = <phi, phi> is the window constant; rhs = product of the
    factor norms with marginal weights m1 x nu and m1 x (m2 / nu), both with
    the canonical window, and unweighted when neither m nor nu is given.
    Exponents must satisfy 1/u + 1/t = 1/gamma and either r >= 1 with
    1/p + 1/q = 1 + 1/r or p = q = r < 1.  The convolution is taken once,
    and each of f * g, f and g takes all its exponents in one norm call.
    """
    cases = [tuple(Exponents.of(e) for e in case) for case in cases]
    for e_out, e_f, e_g in cases:
        if abs(_inv(e_f.q) + _inv(e_g.q) - _inv(e_out.q)) > 1e-12:
            raise ValueError("outer exponents do not split: need 1/u + 1/t = 1/gamma")
        if e_out.p >= 1.0:
            _check_young_axis(e_f.p, e_g.p, e_out.p)
        elif not (e_f.p == e_g.p == e_out.p):
            raise ValueError("below r = 1 the inner exponents must all coincide")
    spec = f.group
    e_out, e_f, e_g = (list(side) for side in zip(*cases))
    c = abs(window_constant(spec))
    lhs = c * modulation_norms(spec, convolve(f, g).values[None, :], e_out, m)[0]
    w_f = w_g = None
    if m is not None or nu is not None:
        n = spec.order
        # the marginals m1(x) = m(x, 0) and m2(xi) = m(0, xi)
        m1, m2 = np.ones((2, n)) if m is None else (m.values[::n], m.values[:n])
        nuvals = np.ones(n) if nu is None else np.asarray(nu, dtype=float)
        w_f, w_g = Weight.tensor(m1, nuvals), Weight.tensor(m1, m2 / nuvals)
    rhs = (modulation_norms(spec, f.values[None, :], e_f, w_f)[0]
           * modulation_norms(spec, g.values[None, :], e_g, w_g)[0])
    return np.stack([lhs, rhs], axis=1)
