"""Gabor systems over the canonical quasi-lattice.

The quasi-lattice is D1 x D2 with D1 a transversal of G/K and D2 a
transversal of G^/K_perp; its translates of the tile U = K x K_perp
partition phase space.  The lattice has exactly ``order`` points, so the
canonical window produces an orthogonal system with a single frame
constant.  Lattice-indexed sequences are stored flat with D1 outer and D2
inner, both lexicographic.  A lattice is its index arrays, the time
indices ``x`` and frequency indices ``xi`` of its points, built from the
transversals of :func:`fingabor.group.coset_representatives`.  Its
translates of the tile are the blocks of :func:`fingabor.group.phase_tiles`,
built from the quotient splits of G and of G^, so the partition holds by
construction; this module does no residue arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .group import (
    GroupMismatch,
    GroupSpec,
    cached,
    common_group,
    coset_representatives,
    point_index,
)
from .norms import Exponents, Weight, mixed_norm_stack
from .signal import Signal, tf_shift_rows
from .spectral import hermitian_eigen


class NotAFrame(ValueError):
    """System whose lower frame bound vanishes relative to the upper one."""


@dataclass(frozen=True, eq=False)
class QuasiLattice:
    """Finite family of phase-space points: point i is (x[i], xi[i]), a time
    and a frequency index."""

    group: GroupSpec
    x: np.ndarray
    xi: np.ndarray


@cached(lambda spec: spec)
def quasi_lattice(spec: GroupSpec) -> QuasiLattice:
    """Canonical quasi-lattice D1 x D2, the corner [:, :, 0, 0] of the blocks
    of :func:`fingabor.group.phase_tiles`; its tiles partition phase space."""
    d1, d2 = coset_representatives(spec)
    return lattice_from_points(spec, np.repeat(d1, len(d2)), np.tile(d2, len(d1)))


def lattice_from_points(spec: GroupSpec, x: Sequence[int], xi: Sequence[int]) -> QuasiLattice:
    """Lattice of the points (x[i], xi[i]); no tiling check (for deficient systems)."""
    if len(x) != len(xi):
        raise GroupMismatch(f"{len(x)} time indices against {len(xi)} frequency indices")
    x, xi = (np.array([point_index(spec, i) for i in a], dtype=np.int64) for a in (x, xi))
    for a in (x, xi):
        a.setflags(write=False)
    return QuasiLattice(spec, x, xi)


# ---------------------------------------------------------------------------
# analysis / synthesis / frame operator


def analysis(g: Signal, lattice: QuasiLattice, f: Signal) -> np.ndarray:
    """Coefficients <f, pi(w) g> over the lattice, flat in lattice order."""
    mass = common_group(lattice, g, f).mass
    V = tf_shift_rows(g, lattice.x, lattice.xi)
    return np.conj(V) @ f.values * mass


def synthesis(g: Signal, lattice: QuasiLattice, coeffs: np.ndarray) -> Signal:
    """sum_w c_w pi(w) g, for one coefficient per lattice point."""
    spec = common_group(lattice, g)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != lattice.x.shape:
        raise GroupMismatch(f"{coeffs.shape} coefficients for {len(lattice.x)} lattice points")
    return Signal(spec, coeffs @ tf_shift_rows(g, lattice.x, lattice.xi))


def frame_operator(g: Signal, lattice: QuasiLattice) -> np.ndarray:
    """(order, order) matrix of S f = sum_w <f, pi(w) g> pi(w) g."""
    mass = common_group(lattice, g).mass
    G = tf_shift_rows(g, lattice.x, lattice.xi)
    return G.T @ np.conj(G) * mass


@dataclass(frozen=True, eq=False)
class GaborSystem:
    """``window`` over ``lattice``: its frame operator S_{g,g}, read-only so
    that it stays the matrix the bounds (A, B) were computed from."""

    window: Signal
    lattice: QuasiLattice
    operator: np.ndarray
    bounds: tuple[float, float]


def gabor_system(g: Signal, lattice: QuasiLattice) -> GaborSystem:
    """S_{g,g} built and eigensolved once; (A, B) are its extreme eigenvalues
    whether or not the system is a frame, and the caller judges A against B."""
    S = frame_operator(g, lattice)
    S.setflags(write=False)
    values = hermitian_eigen(S)[0].tolist()
    return GaborSystem(g, lattice, S, (min(values), max(values)))


def dual_window(system: GaborSystem) -> Signal:
    """Canonical dual window h = S_{g,g}^{-1} g, solved with the system's S.

    S_{g,g} cannot be inverted when its lower bound A vanishes relative to
    its upper bound B, A <= 1e-10 B, and NotAFrame is raised.  On a
    quasi-lattice S_{g,g} need not commute with the lattice shifts, so the
    shifts of h need not be a dual frame: the caller measures that.
    """
    g = system.window
    A, B = system.bounds
    if A <= 1e-10 * B:
        raise NotAFrame(f"lower frame bound {A} vanishes against {B}")
    return Signal(g.group, np.linalg.solve(system.operator, g.values))


# ---------------------------------------------------------------------------
# lattice sequence norms


def discrete_modnorm(
    f: Signal, g: Signal, e: Exponents | Sequence[float], m: Weight | None = None
) -> float:
    """Unweighted-mass l^{p,q} norm of the STFT samples on the canonical
    lattice :func:`quasi_lattice`, times m at each of its points if given.

    Samples are grouped with D1 inner (exponent p) and D2 outer (exponent
    q); masses are 1, as for sequence spaces.
    """
    spec = common_group(f, g)
    lattice = quasi_lattice(spec)
    if m is not None and m.values.shape != lattice.x.shape:
        raise GroupMismatch(f"{m.values.size} weights for {len(lattice.x)} lattice points")
    c = np.abs(analysis(g, lattice, f))
    if m is not None:
        c = c * m.values
    d1, d2 = spec.annihilator_order, spec.subgroup_order      # |G/K|, |G^/K_perp|
    return float(mixed_norm_stack(c.reshape(1, d1, d2), [Exponents.of(e)], 1.0, 1.0)[0, 0])

