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
kernels use only the base group's character table T[xi, x] = <xi, x> and
difference table, never the route they are checked against.  With
S = conj(R(phi, phi)) * mass * mass_dual for the canonical window phi, the
Gabor matrix entry of row point (w, mu) and column point (u, nu), and the
localization matrix (a convolution over x for each y - y'), are

    conj(T[nu, w - u]) * sum_{k in K} conj(T[mu - nu, w + k])
        * sum_{kappa in K_perp} sigma(w + k, nu + kappa) S[k, kappa] conj(T[u - w, nu + kappa]),
    L[y, y'] = mass^2 * mass_dual * sum_x (a @ T)[x, y - y'] psi2(y - x) conj(psi1(y' - x)).

The Gabor entry depends on the points only through their distinct time
indices (a of them) and frequency indices (b of them), so both sums run on
coset pairs: a^2 b |K| |K_perp| + a^2 b^2 |K| operations, with arrays of at
most order^2 entries on the canonical lattice (a = |G/K|, b = |G^/K_perp|).
"""

from __future__ import annotations

import numpy as np

from .gabor import QuasiLattice
from .group import character_table, common_group, coset_points, diff_table
from .signal import PhaseFunction, Signal, convolve_phase, fourier, tf_shift_rows
from .tfa import rihaczek, stft, window_constant


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
    T = character_table(spec)
    B = sigma.mat @ np.conj(T)                       # B[x, t] = sum_xi sigma conj<xi, t>
    idx = diff_table(spec).T                         # idx[x, u] = index(u - x)
    return np.take_along_axis(B, idx, axis=1) * spec.mass_dual


def kn_matrix(sigma: PhaseFunction) -> np.ndarray:
    """(order, order) matrix of the quantization: the kernel times the mass."""
    return kn_kernel(sigma) * sigma.group.mass


# ---------------------------------------------------------------------------
# Gabor matrices


def gabor_matrix(sigma: PhaseFunction, g: Signal, lattice: QuasiLattice) -> np.ndarray:
    """M[i, j] = <Op(sigma) pi(z_j) g, pi(z_i) g> for the lattice points z."""
    mass = common_group(lattice, sigma, g).mass
    V = tf_shift_rows(g, lattice.x, lattice.xi)
    return np.conj(V) @ (kn_matrix(sigma) @ V.T) * mass


def gabor_matrix_closed_form(sigma: PhaseFunction, lattice: QuasiLattice) -> np.ndarray:
    """Gabor matrix of the quantization for the canonical window phi.

    Entry (i, j), for row point (w_i, mu_i) and column point (u_j, nu_j), is
    conj(T[nu_j, w_i - u_j]) times the sum over (k, kappa) in K x K_perp of
    sigma(w_i + k, nu_j + kappa) conj(T[mu_i - nu_j, w_i + k])
    conj(T[u_j - w_i, nu_j + kappa]) S[k, kappa], S = conj(R(phi, phi)) *
    mass * mass_dual, which is the constant conj(<phi, phi>) * mass *
    mass_dual on the tile.  The entry depends on the points only through
    their time indices w, u (``lattice.times``, a values) and frequency
    indices mu, nu (``lattice.freqs``, b values), so the sums run on them:

        Y[w, k, nu, u]  = sum_kappa sigma(w + k, nu + kappa) S[k, kappa]
                                    conj(T[u - w, nu + kappa]),
        Z[w, mu, nu, u] = sum_k Y[w, k, nu, u] conj(T[mu - nu, w + k]),
        M[i, j]         = conj(T[nu_j, w_i - u_j]) Z[w_i, mu_i, nu_j, u_j].

    That is a^2 b |K| |K_perp| + a^2 b^2 |K| operations.  Besides the (m, m)
    result, the arrays are the symbol gather (a, |K|, b, |K_perp|), the
    character gathers (a, a, b, |K_perp|) and (a, b, b, |K|), Y and Z; on
    the canonical lattice a = |G/K| and b = |G^/K_perp|, so each holds
    order^2 entries.
    """
    spec = common_group(lattice, sigma)
    T = character_table(spec)
    D = diff_table(spec)                                        # D[a, b] = index(a - b)
    x, xi = lattice.x, lattice.xi
    w, wi = lattice.times, lattice.time_of                      # distinct times: w, u
    nu, ni = lattice.freqs, lattice.freq_of                     # distinct frequencies: mu, nu
    rows, cols = coset_points(spec, w, nu)                      # index(w + k), index(nu + kappa)
    S = np.full((rows.shape[1], cols.shape[1]),
                np.conj(window_constant(spec)) * (spec.mass * spec.mass_dual))
    B = np.conj(T[D[w[None, :], w[:, None]][:, :, None, None], cols])   # [w, u, nu, kappa]
    A = np.conj(T[D[nu[:, None], nu][None, :, :, None], rows[:, None, None, :]])  # [w, mu, nu, k]
    Y = np.einsum("wknl,kl,wunl->wknu", sigma.mat[rows][:, :, cols], S, B)
    Z = np.einsum("wknu,wmnk->wmnu", Y, A)
    return np.conj(T[xi[None, :], D[x[:, None], x]]) * Z[wi[:, None], ni[:, None], ni, wi]


# ---------------------------------------------------------------------------
# localization operators


def localization_apply(
    a: PhaseFunction, psi1: Signal, psi2: Signal, f: Signal
) -> Signal:
    """A f = integral of a(z) V_psi1 f(z) pi(z) psi2 over phase space, as
    mass * mass_dual * sum_x psi2(y - x) ((a V_psi1 f) @ T)[x, y]."""
    spec = common_group(f, a, psi1, psi2)
    coeff = (a.mat * stft(f, psi1).mat) @ character_table(spec)
    shifted = psi2.values[diff_table(spec).T]                   # [x, y] = psi2(y - x)
    return Signal(spec, np.sum(shifted * coeff, axis=0) * (spec.mass * spec.mass_dual))


def localization_matrix(a: PhaseFunction, psi1: Signal, psi2: Signal) -> np.ndarray:
    """Dense (order, order) matrix of the localization operator.

    L[y, y'] = c * sum_x A[x, y - y'] psi2(y - x) conj(psi1(y' - x)), with
    A = a @ T and c = mass^2 * mass_dual, is a convolution on G for each
    d = y - y': L'[y, d] = T @ ((conj(T) @ A) * (conj(T) @ h)) / order with
    h[t, d] = psi2(t) conj(psi1(t - d)), then L[y, y'] = L'[y, y - y'].
    """
    spec = common_group(a, psi1, psi2)
    T = character_table(spec)
    D = diff_table(spec)                                        # D[y, y'] = index(y - y')
    h = psi2.values[:, None] * np.conj(psi1.values[D])
    Lp = T @ ((np.conj(T) @ (a.mat @ T)) * (np.conj(T) @ h)) / spec.order
    L = np.take_along_axis(Lp, D, axis=1)                       # L[y, y'] = Lp[y, y - y']
    return L * (spec.mass ** 2 * spec.mass_dual)


def loc_to_kn_symbol(a: PhaseFunction, psi1: Signal, psi2: Signal) -> PhaseFunction:
    """Quantization symbol of the localization operator: a * R(psi2, psi1)."""
    return convolve_phase(a, rihaczek(psi2, psi1))

