"""Short-time Fourier transform and Rihaczek distribution.

Conventions, with mass factors written out:

    V_g f(x, xi) = sum_y f(y) conj(g(y - x)) conj(<xi, y>) * mass
    R(f, g)(x, xi) = f(x) conj(Fg(xi)) conj(<xi, x>)

The canonical window is the indicator of the subgroup K; its STFT against
itself is supported exactly on K x K_perp with the constant value
c = <phi, phi> = mass |K| that ``window_constant`` returns.
"""

from __future__ import annotations

import numpy as np

from .group import GroupSpec, character_table, common_group, diff_table
from .signal import PhaseFunction, Signal, fourier, norm_l2, tf_shift


def stft(f: Signal, g: Signal) -> PhaseFunction:
    """Full STFT of f against window g over every phase-space point."""
    spec = common_group(f, g)
    win = np.conj(g.values[diff_table(spec).T])   # win[x, y] = conj(g(y - x))
    V = (win * f.values[None, :]) @ np.conj(character_table(spec)).T * spec.mass
    return PhaseFunction(spec, V.reshape(-1))


def window_constant(spec: GroupSpec) -> complex:
    """c(K) = V_phi phi at the origin of phase space, <phi, phi> = mass |K|."""
    return complex(spec.mass * spec.subgroup_order)


def rihaczek(f: Signal, g: Signal) -> PhaseFunction:
    """R(f, g)(x, xi) = f(x) conj(Fg(xi)) conj(<xi, x>)."""
    spec = common_group(f, g)
    ghat = fourier(g)
    R = f.values[:, None] * np.conj(ghat.values)[None, :] * np.conj(character_table(spec).T)
    return PhaseFunction(spec, R.reshape(-1))


# ---------------------------------------------------------------------------
# residuals of the exact identities


def stft_shift_identity_residual(
    f: Signal,
    g: Signal,
    u: int,
    omega: int,
    y: int,
    eta: int,
) -> float:
    """Residual of the STFT covariance rule under shifts of signal and window.

    Compares V_{pi(y, eta) g}(pi(u, omega) f) against the phase-corrected
    translate of V_g f over every phase-space point.  A shift by s is the
    column D[:, index(-s)] of the difference table, and <xi, .> is T[xi].
    """
    spec = f.group
    lhs = stft(tf_shift(f, u, omega), tf_shift(g, y, eta)).mat
    V = stft(f, g).mat
    T = character_table(spec)
    D = diff_table(spec)                                       # D[a, b] = index(a - b)
    shifted = V[D[:, D[u, y]]][:, D[:, D[omega, eta]]]
    c1 = np.conj(T[u][D[:, omega]])                            # conj<xi - omega, u>
    c2 = T[eta][D[:, u]]                                       # <eta, x - u>
    rhs = c2[:, None] * c1[None, :] * shifted
    return float(np.max(np.abs(lhs - rhs)))


def rihaczek_covariance_residual(
    f: Signal,
    g: Signal,
    x: int,
    xi: int,
    y: int,
    eta: int,
) -> float:
    """Residual of the Rihaczek covariance rule under time-frequency shifts."""
    lhs = rihaczek(tf_shift(f, x, xi), tf_shift(g, y, eta)).mat
    return float(np.max(np.abs(lhs - _covariant_rihaczek(f, g, x, xi, y, eta))))


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


def magic_formula_residual(psi: Signal, f: Signal, g: Signal) -> float:
    """Residual of the product formula for the STFT of a Rihaczek distribution.

    The outer STFT lives on the phase-space group; its dual variable
    (omega, u) runs over G^ x G.  Both sides are compared on the full
    four-index grid, so this is meant for small groups only.
    """
    spec = f.group
    n = spec.order
    sigma = rihaczek(g, f).as_signal()
    Phi = rihaczek(psi, psi).as_signal()
    lhs = stft(sigma, Phi).values.reshape(n, n, n, n)          # [x, xi, omega, u]

    T = character_table(spec)
    Vg = stft(g, psi).mat
    Vf = stft(f, psi).mat
    D = diff_table(spec)                                        # D[a, b] = index(a - b)
    add_idx = D[:, D[0]]                                        # [a, b] -> index(a + b)
    phase = np.conj(T)                                          # conj<xi, u>
    A = Vg[:, add_idx]                                          # [x, xi, omega] -> Vg(x, xi+omega)
    B = np.conj(Vf[add_idx, :])                                 # [x, u, xi] -> conj Vf(x+u, xi)
    rhs = (
        phase[None, :, None, :]
        * A[:, :, :, None]
        * np.transpose(B, (0, 2, 1))[:, :, None, :]
    )
    return float(np.max(np.abs(lhs - rhs)))


def moyal_residual(f: Signal, g: Signal) -> float:
    """|  ||V_g f||^2_{phase} - ||f||^2 ||g||^2  |."""
    spec = f.group
    V = stft(f, g)
    lhs = float(np.sum(np.abs(V.values) ** 2) * spec.mass * spec.mass_dual)
    rhs = norm_l2(f) ** 2 * norm_l2(g) ** 2
    return abs(lhs - rhs)
