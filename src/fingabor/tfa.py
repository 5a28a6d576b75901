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

from .group import GroupSpec, common_group, conj_character_table, diff_table
from .signal import PhaseFunction, Signal, fourier


def stft(f: Signal, g: Signal) -> PhaseFunction:
    """Full STFT of f against window g over every phase-space point."""
    spec = common_group(f, g)
    # win[x, y] = conj(g(y - x)), F-ordered: the memory order picks the BLAS
    # path of the product below, and so the last bits of V
    win = np.take(np.conj(g.values), diff_table(spec)).T
    V = (win * f.values[None, :]) @ conj_character_table(spec).T
    V *= spec.mass
    return PhaseFunction(spec, V.reshape(-1))


def window_constant(spec: GroupSpec) -> complex:
    """c(K) = V_phi phi at the origin of phase space, <phi, phi> = mass |K|."""
    return complex(spec.mass * spec.subgroup_order)


def rihaczek(f: Signal, g: Signal) -> PhaseFunction:
    """R(f, g)(x, xi) = f(x) conj(Fg(xi)) conj(<xi, x>)."""
    spec = common_group(f, g)
    ghat = fourier(g)
    R = f.values[:, None] * np.conj(ghat.values)[None, :]
    R *= conj_character_table(spec).T
    return PhaseFunction(spec, R.reshape(-1))

