"""Kohn-Nirenberg quantization and time-frequency localization operators.

The quantization acts by

    Op(sigma) f(x) = sum_xi sigma(x, xi) Ff(xi) <xi, x> * mass_dual,

its weak form pairs the symbol with a Rihaczek distribution, and its
integral kernel is the partial inverse transform of the symbol in the
second variable.  A localization operator with symbol a and windows
(psi1, psi2) equals the quantization of a convolved with R(psi2, psi1),
where the convolution runs over phase space with mass * mass_dual per
point; both routes are implemented independently so they can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .group import (
    DualElement,
    GroupElement,
    GroupMismatch,
    GroupSpec,
    character_table,
    diff_table,
    neg_index,
    phase_spec,
    residue_grid,
    tile_indices,
)
from .norms import Exponents, Weight, _inv, canonical_window, modulation_norm
from .signal import PhaseFunction, Signal, convolve, convolve_phase, fourier, inner, tf_shift
from .tfa import gaussian_circ, gaussian_window, rihaczek, stft


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense matrix acting on value vectors in canonical order."""

    group: GroupSpec
    entries: np.ndarray

    def __post_init__(self) -> None:
        n = self.group.order
        ent = np.array(self.entries, dtype=np.complex128)
        if ent.shape != (n, n):
            raise GroupMismatch(f"expected a {n} x {n} matrix, got {ent.shape}")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    def apply(self, f: Signal) -> Signal:
        if f.group != self.group:
            raise GroupMismatch("operator and signal live on different groups")
        return Signal(self.group, self.entries @ f.values)


def matrix_from_apply(spec: GroupSpec, apply) -> OperatorMatrix:
    """Assemble a matrix column by column from an apply callable."""
    from .signal import delta

    n = spec.order
    cols = np.empty((n, n), dtype=np.complex128)
    for c in range(n):
        cols[:, c] = apply(delta(spec, spec.element_at(c))).values
    return OperatorMatrix(spec, cols)


# ---------------------------------------------------------------------------
# Kohn-Nirenberg quantization


def kn_apply(sigma: PhaseFunction, f: Signal) -> Signal:
    """Apply the quantization of sigma to f."""
    if sigma.group != f.group:
        raise GroupMismatch("symbol and signal live on different groups")
    spec = f.group
    fhat = fourier(f).values
    T = character_table(spec)
    out = (sigma.mat * T.T) @ fhat * spec.mass_dual
    return Signal(spec, out)


def kn_weak_residual(sigma: PhaseFunction, f: Signal, g: Signal) -> float:
    """| <Op(sigma) f, g> - <sigma, R(g, f)> | with the phase-space pairing."""
    from .signal import inner_phase

    lhs = inner(kn_apply(sigma, f), g)
    rhs = inner_phase(sigma, rihaczek(g, f))
    return abs(lhs - rhs)


def kn_kernel(sigma: PhaseFunction) -> np.ndarray:
    """Integral kernel k(x, u) = sum_xi sigma(x, xi) conj(<xi, u - x>) * mass_dual."""
    spec = sigma.group
    T = character_table(spec)
    B = sigma.mat @ np.conj(T)                       # B[x, t] = sum_xi sigma conj<xi, t>
    idx = diff_table(spec).T                         # idx[x, u] = index(u - x)
    return np.take_along_axis(B, idx, axis=1) * spec.mass_dual


def kn_kernel_pairing_residual(sigma: PhaseFunction, f: Signal, g: Signal) -> float:
    """Residual of <Op(sigma) f, g> against the kernel pairing on G x G."""
    spec = f.group
    k = kn_kernel(sigma)
    lhs = inner(kn_apply(sigma, f), g)
    rhs = complex(np.conj(g.values) @ k @ f.values * spec.mass ** 2)
    return abs(lhs - rhs)


def kn_matrix(sigma: PhaseFunction) -> OperatorMatrix:
    """Matrix of the quantization; rows follow the kernel times the mass."""
    return OperatorMatrix(sigma.group, kn_kernel(sigma) * sigma.group.mass)


# ---------------------------------------------------------------------------
# Gabor matrices


def gabor_matrix(
    sigma: PhaseFunction,
    g: Signal,
    points: Sequence[tuple[GroupElement, DualElement]],
) -> np.ndarray:
    """M[i, j] = <Op(sigma) pi(points[j]) g, pi(points[i]) g>."""
    if sigma.group != g.group:
        raise GroupMismatch("symbol and window live on different groups")
    spec = g.group
    V = np.stack([tf_shift(g, x, xi).values for x, xi in points])
    K = kn_matrix(sigma).entries
    return np.conj(V) @ (K @ V.T) * spec.mass


def gabor_matrix_closed_form(
    sigma: PhaseFunction,
    points: Sequence[tuple[GroupElement, DualElement]],
) -> np.ndarray:
    """Gabor matrix of the quantization for the canonical window.

    Uses the closed form: the (w mu, u nu) entry is a character prefactor
    times one sample of the STFT of the symbol against R(phi, phi) at a
    rotated phase point.  The window transform is supported on K x K_perp,
    so each sample is a short sum over that tile.
    """
    spec = sigma.group
    pspec = phase_spec(spec)
    phi = gaussian_window(spec)
    Phi = rihaczek(phi, phi)
    supp_flat = tile_indices(spec)
    supp_res = residue_grid(pspec)[supp_flat]                    # (s, 2k)
    supp_vals = np.conj(Phi.values[supp_flat]) * pspec.mass
    mods = np.asarray(pspec.factors)
    gmods = np.asarray(spec.factors)
    m = len(points)
    x_res = np.asarray([x.residues for x, _ in points])          # (m, k)
    f_res = np.asarray([xi.residues for _, xi in points])        # (m, k)
    # z(i, j) = (w_i, nu_j); xi(i, j) = (mu_i - nu_j, u_j - w_i)
    z_res = np.concatenate(
        (np.broadcast_to(x_res[:, None, :], (m, m, x_res.shape[1])),
         np.broadcast_to(f_res[None, :, :], (m, m, f_res.shape[1]))),
        axis=2,
    )
    xi_res = np.concatenate(
        ((f_res[:, None, :] - f_res[None, :, :]) % gmods,
         (x_res[None, :, :] - x_res[:, None, :]) % gmods),
        axis=2,
    )
    y_res = (z_res[:, :, None, :] + supp_res[None, None, :, :]) % mods
    y_flat = np.ravel_multi_index(np.moveaxis(y_res, 3, 0), pspec.factors)
    t = (((xi_res[:, :, None, :] * y_res) % mods) / mods).sum(axis=3)
    samples = np.sum(sigma.values[y_flat] * np.exp(-2j * np.pi * t) * supp_vals, axis=2)
    # prefactor conj<nu_j, w_i - u_j>
    wd = (x_res[:, None, :] - x_res[None, :, :]) % gmods
    tpre = (((f_res[None, :, :] * wd) % gmods) / gmods).sum(axis=2)
    return np.exp(-2j * np.pi * tpre) * samples


def gabor_matrix_residual(
    sigma: PhaseFunction, points: Sequence[tuple[GroupElement, DualElement]]
) -> float:
    """Max entry difference between the direct and closed-form Gabor matrices."""
    phi = gaussian_window(sigma.group)
    direct = gabor_matrix(sigma, phi, points)
    closed = gabor_matrix_closed_form(sigma, points)
    return float(np.max(np.abs(direct - closed)))


# ---------------------------------------------------------------------------
# localization operators


def _shift_stack(spec: GroupSpec, psi: Signal) -> np.ndarray:
    """(order^2, order) stack of pi(x, xi) psi in canonical phase order."""
    n = spec.order
    T = character_table(spec)
    shifted = psi.values[diff_table(spec).T]                    # [x, y] = psi(y - x)
    stack = shifted[:, None, :] * T[None, :, :]                 # [x, xi, y]
    return stack.reshape(n * n, n)


def localization_apply(
    a: PhaseFunction, psi1: Signal, psi2: Signal, f: Signal
) -> Signal:
    """A f = integral of a(z) V_psi1 f(z) pi(z) psi2 over phase space."""
    spec = f.group
    if a.group != spec or psi1.group != spec or psi2.group != spec:
        raise GroupMismatch("localization pieces live on different groups")
    coeff = a.values * stft(f, psi1).values * (spec.mass * spec.mass_dual)
    return Signal(spec, coeff @ _shift_stack(spec, psi2))


def localization_matrix(a: PhaseFunction, psi1: Signal, psi2: Signal) -> OperatorMatrix:
    """Dense matrix of the localization operator."""
    spec = a.group
    P1 = _shift_stack(spec, psi1)
    P2 = _shift_stack(spec, psi2)
    w = a.values * (spec.mass * spec.mass_dual)
    entries = (P2 * w[:, None]).T @ np.conj(P1) * spec.mass
    return OperatorMatrix(spec, entries)


def loc_to_kn_symbol(a: PhaseFunction, psi1: Signal, psi2: Signal) -> PhaseFunction:
    """Quantization symbol of the localization operator: a * R(psi2, psi1)."""
    return convolve_phase(a, rihaczek(psi2, psi1))


def loc_kn_matrix_residual(a: PhaseFunction, psi1: Signal, psi2: Signal) -> float:
    """Max entry difference between the localization matrix and the
    quantization of the convolved symbol."""
    direct = localization_matrix(a, psi1, psi2).entries
    via_kn = kn_matrix(loc_to_kn_symbol(a, psi1, psi2)).entries
    return float(np.max(np.abs(direct - via_kn)))


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
    of the modulation norms of g and f with weight v.  Quartic in the group
    order, so meant for small groups.
    """
    spec = f.group
    n = spec.order
    pspec = phase_spec(spec)
    phi = gaussian_window(spec)
    R = rihaczek(g, f).as_signal()
    Phi = rihaczek(phi, phi).as_signal()
    if v is None:
        vvals = np.ones(n * n)
    else:
        vvals = v.values
    # col[omega * n + u] = v(J^{-1}(omega, u)) = v(u, -omega)
    col = vvals.reshape(n, n)[:, neg_index(spec)].T.reshape(-1)
    wmat = Weight.tensor(np.ones(n * n), col)
    lhs = modulation_norm(R, Phi, e_out, wmat, canonical_window(pspec))
    weight = None if v is None else v
    rhs = modulation_norm(g, phi, e_g, weight) * modulation_norm(f, phi, e_f, weight)
    return float(lhs), float(rhs)


def convolution_relation_probe(
    f: Signal,
    g: Signal,
    e_out: Exponents | Sequence[float],
    e_f: Exponents | Sequence[float],
    e_g: Exponents | Sequence[float],
    m: Weight | None = None,
    v: Weight | None = None,
    nu: np.ndarray | None = None,
) -> tuple[float, float]:
    """Realized pair (lhs, rhs) for the modulation-space convolution bound.

    lhs = norm of f * g in M^{r, gamma}_m computed with the self-convolved
    window; rhs = product of the factor norms with marginal weights
    m1 x nu and v1 x (v2 / nu), both with the canonical window.  Exponents
    must satisfy 1/u + 1/t = 1/gamma and either r >= 1 with
    1/p + 1/q = 1 + 1/r or p = q = r < 1.
    """
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
    phi = gaussian_window(spec)
    lhs = modulation_norm(convolve(f, g), gaussian_circ(spec), e_out, m)
    rhs = modulation_norm(f, phi, e_f, Weight.tensor(m1, nuvals)) * modulation_norm(
        g, phi, e_g, Weight.tensor(v1, v2 / nuvals)
    )
    return float(lhs), float(rhs)
