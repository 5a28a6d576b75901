"""Kohn-Nirenberg quantization and time-frequency localization operators.

The quantization acts by

    Op(sigma) f(x) = sum_xi sigma(x, xi) Ff(xi) <xi, x> * mass_dual,

its weak form pairs the symbol with a Rihaczek distribution, and its
integral kernel is the partial inverse transform of the symbol in the
second variable.  A localization operator with symbol a and windows
(psi1, psi2) equals the quantization of a convolved with R(psi2, psi1),
where the convolution runs over phase space with mass * mass_dual per
point; both routes are implemented independently so they can be compared.

The Gabor matrices take a lattice's index arrays; the direct one gathers its
shifted windows with :func:`fingabor.signal.tf_shift_rows`.  The structured
kernels use only the group's tables (the character table T[xi, x] =
<xi, x>, the difference table, the quotient splits and the character
tables of K and K_perp), never the route they are checked against.  For
the canonical window the Gabor matrix is a 2-D transform of the symbol on
each phase-space tile z + K x K_perp, and the localization matrix is a
convolution over x for each y - y':

    L[y, y'] = mass^2 * mass_dual * sum_x (a @ T)[x, y - y'] psi2(y - x) conj(psi1(y' - x)).
"""

from __future__ import annotations

import numpy as np

from .gabor import QuasiLattice
from .group import (character_table, common_group, conj_character_table, diff_table,
                    dual_spec, lattice_plan, subgroup_character_table)
from .signal import PhaseFunction, Signal, convolve_phase, fourier, tf_shift_rows
from .tfa import rihaczek, stft


# ---------------------------------------------------------------------------
# Kohn-Nirenberg quantization


def kn_apply(sigma: PhaseFunction, f: Signal) -> Signal:
    """Apply the quantization of sigma to f."""
    spec = common_group(f, sigma)
    fhat = fourier(f).values
    T = character_table(spec)
    out = (sigma.mat * T.T) @ fhat * spec.mass_dual
    return Signal(spec, out)


def kn_kernel(sigma: PhaseFunction) -> np.ndarray:
    """Integral kernel k(x, u) = sum_xi sigma(x, xi) conj(<xi, u - x>) * mass_dual."""
    spec = sigma.group
    B = sigma.mat @ conj_character_table(spec)       # B[x, t] = sum_xi sigma conj<xi, t>
    n = spec.order
    # [u, x] = B[x, index(u - x)], transposed: the kernel is F-ordered, and the
    # pairing conj(g) @ k @ f takes its BLAS path, so its last bits, by that
    k = np.take(B, diff_table(spec) + n * np.arange(n)).T
    k *= spec.mass_dual
    return k


def kn_matrix(sigma: PhaseFunction) -> np.ndarray:
    """(order, order) matrix of the quantization: the kernel times the mass."""
    k = kn_kernel(sigma)
    k *= sigma.group.mass
    return k


# ---------------------------------------------------------------------------
# Gabor matrices


def gabor_matrix(sigma: PhaseFunction, g: Signal, lattice: QuasiLattice) -> np.ndarray:
    """M[i, j] = <Op(sigma) pi(z_j) g, pi(z_i) g> for the lattice points z."""
    mass = common_group(lattice, sigma, g).mass
    V = tf_shift_rows(g, lattice.x, lattice.xi)
    return np.conj(V) @ (kn_matrix(sigma) @ V.T) * mass


def gabor_matrix_closed_form(sigma: PhaseFunction, lattice: QuasiLattice) -> np.ndarray:
    """Gabor matrix of the quantization for the canonical window phi, on any lattice.

    X is the symbol on each tile (a + K) x (b + K_perp) whose cosets a and b
    the lattice names, transformed by the character tables T_K and T_Kperp of
    K and K_perp:

        X[tile(a, b), e, e'] = sum_{c, c'} conj(T_K[e, c]) sigma(a + d c, b + d' c') T_Kperp[e', c'].

    For row point (w, mu) and column point (u, nu), with a and b the
    representatives of w + K and nu + K_perp and eta, eta_perp the K and
    K_perp coordinates of :func:`quotient_indices`, the entry is

        c * conj(<mu - nu, a>) * <b - nu, w - u> * X[tile(a, b), eta(mu - nu), eta_perp(w - u)],

    c = <phi, phi> * mass * mass_dual = mass^2 * mass_dual * |K|.  So the
    diagonal on the canonical lattice is c times the tile sums of the symbol.
    Everything but the symbol is the lattice's :func:`fingabor.group.lattice_plan`.
    """
    spec = common_group(lattice, sigma)
    tiles, flat, phase = lattice_plan(lattice)
    TK, TKperp = subgroup_character_table(spec), subgroup_character_table(dual_spec(spec))
    X = np.conj(TK) @ sigma.mat[tiles] @ TKperp.T               # [a, b, eta, eta_perp]
    c = spec.mass ** 2 * spec.mass_dual * spec.subgroup_order
    return c * phase * np.take(X, flat)


# ---------------------------------------------------------------------------
# localization operators


def localization_apply(
    a: PhaseFunction, psi1: Signal, psi2: Signal, f: Signal
) -> Signal:
    """A f = integral of a(z) V_psi1 f(z) pi(z) psi2 over phase space, as
    mass * mass_dual * sum_x psi2(y - x) ((a V_psi1 f) @ T)[x, y]."""
    spec = common_group(f, a, psi1, psi2)
    coeff = (a.mat * stft(f, psi1).mat) @ character_table(spec)
    shifted = np.take(psi2.values, diff_table(spec)).T          # [x, y] = psi2(y - x)
    out = np.sum(shifted * coeff, axis=0)
    out *= spec.mass * spec.mass_dual
    return Signal(spec, out)


def localization_matrix(a: PhaseFunction, psi1: Signal, psi2: Signal) -> np.ndarray:
    """Dense (order, order) matrix of the localization operator.

    L[y, y'] = c * sum_x A[x, y - y'] psi2(y - x) conj(psi1(y' - x)), with
    A = a @ T and c = mass^2 * mass_dual, is a convolution on G for each
    d = y - y': L'[y, d] = T @ ((conj(T) @ A) * (conj(T) @ h)) / order with
    h[t, d] = psi2(t) conj(psi1(t - d)), then L[y, y'] = L'[y, y - y'].
    """
    spec = common_group(a, psi1, psi2)
    T, Tc = character_table(spec), conj_character_table(spec)
    D, n = diff_table(spec), spec.order                         # D[y, y'] = index(y - y')
    h = psi2.values[:, None] * np.take(np.conj(psi1.values), D)
    P = Tc @ (a.mat @ T)
    P *= Tc @ h
    Lp = T @ P
    Lp /= n
    L = np.take(Lp, D + n * np.arange(n)[:, None])              # L[y, y'] = Lp[y, y - y']
    L *= spec.mass ** 2 * spec.mass_dual
    return L


def loc_to_kn_symbol(a: PhaseFunction, psi1: Signal, psi2: Signal) -> PhaseFunction:
    """Quantization symbol of the localization operator: a * R(psi2, psi1)."""
    return convolve_phase(a, rihaczek(psi2, psi1))

