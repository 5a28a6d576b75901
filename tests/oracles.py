"""Dense brute-force routes that the structured library code is held to.

The amalgam norm of V_g f over a window set is evaluated the long way: the
full STFT, a maximum over explicit phase-space translations, then the
mixed quasi-norm.  Both sides of the convolution inequality are evaluated
one pair of phase-space functions and one exponent triple at a time.
"""
import numpy as np

from fingabor.group import phase_spec, residue_grid, tile_indices, translation_perm
from fingabor.norms import Exponents, check_young_exponents, mixed_quasi_norm
from fingabor.signal import PhaseFunction, convolve_phase
from fingabor.tfa import gaussian_window, stft


def gather_maximum(F, offsets):
    """(M F)(z) = max over the flat phase offsets o of |F(z + o)|."""
    pspec = phase_spec(F.group)
    grid = residue_grid(pspec)
    perms = np.stack([translation_perm(pspec, grid[o]) for o in offsets])
    return PhaseFunction(F.group, np.abs(F.values)[perms].max(axis=0))


def dense_amalgam(f, window=None):
    """Maximum of |V_window f| over the tile K x K_perp; window 1_K by default."""
    spec = f.group
    g = gaussian_window(spec) if window is None else window
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
