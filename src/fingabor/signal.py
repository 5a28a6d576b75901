"""Signals on a finite abelian group and functions on its phase space.

All transforms carry their Haar mass factors explicitly: sums over the
group are weighted by ``spec.mass``, sums over the dual by
``spec.mass_dual``.  Nothing here assumes mass 1, so the same code runs on
base groups and on phase spaces (see :func:`fingabor.group.phase_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .group import (
    GroupMismatch,
    GroupSpec,
    cached,
    character_row,
    character_table,
    common_group,
    conj_character_table,
    diff_rows,
    diff_table,
    dual_spec,
    phase_spec,
    point_index,
    shift_index,
    subgroup_indices,
)

_CHUNK = 512


@dataclass(frozen=True, eq=False)
class Signal:
    """Complex-valued function on a group, values in canonical order."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128)
        if vals.shape != (self.group.order,):
            raise GroupMismatch(
                f"expected {self.group.order} values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Function on the phase space G x G^ of a base group.

    Values are stored flat in canonical (x, xi) order: the flat index is
    ``x * |G| + xi`` for the canonical indices x and xi, which coincides with the canonical order
    of the phase space viewed as a group.
    """

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        n = self.group.order
        vals = np.array(self.values, dtype=np.complex128).reshape(-1)
        if vals.shape != (n * n,):
            raise GroupMismatch(f"expected {n * n} phase values, got {vals.shape[0]}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def mat(self) -> np.ndarray:
        """View of the values as an (x, xi) matrix."""
        return self.values.reshape(self.group.order, self.group.order)

    def as_signal(self) -> Signal:
        return Signal(phase_spec(self.group), self.values)


# ---------------------------------------------------------------------------
# constructors


def indicator(spec: GroupSpec, indices: Sequence[int] | np.ndarray) -> Signal:
    vals = np.zeros(spec.order, dtype=np.complex128)
    vals[[point_index(spec, x) for x in indices]] = 1.0
    return Signal(spec, vals)


@cached(lambda spec: spec)
def subgroup_indicator(spec: GroupSpec) -> Signal:
    """The window 1_K, one read-only signal per spec."""
    return indicator(spec, subgroup_indices(spec))


# ---------------------------------------------------------------------------
# shifts


def translate(f: Signal, x: int) -> Signal:
    """(T_x f)(y) = f(y - x)."""
    return Signal(f.group, f.values[shift_index(f.group, x)])


def modulate(f: Signal, xi: int) -> Signal:
    """(M_xi f)(y) = <xi, y> f(y)."""
    return Signal(f.group, character_row(f.group, xi) * f.values)


def tf_shift(f: Signal, x: int, xi: int) -> Signal:
    """pi(x, xi) f = M_xi T_x f."""
    return modulate(translate(f, x), xi)


def tf_shift_rows(f: Signal, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """(len(x), order) stack whose row i is pi(x_i, xi_i) f for the time
    indices x and frequency indices xi, from one gather: T[xi_i] * f(y - x_i)
    with T the character table, so each row is bit-identical to
    ``tf_shift(f, x_i, xi_i).values``."""
    spec = f.group
    return character_table(spec)[xi] * f.values[diff_table(spec)[:, x].T]


# ---------------------------------------------------------------------------
# Fourier transform


def fourier(f: Signal) -> Signal:
    """F f(xi) = sum_x f(x) conj(<xi, x>) * mass; lives on the dual group."""
    spec = f.group
    F = conj_character_table(spec) @ f.values
    F *= spec.mass
    return Signal(dual_spec(spec), F)


def inverse_fourier(F: Signal) -> Signal:
    """Inverse transform; lives on the dual of F's group (the bidual)."""
    spec = F.group
    return Signal(dual_spec(spec), character_table(spec).T @ F.values * spec.mass)


# ---------------------------------------------------------------------------
# algebra


def convolve(f: Signal, g: Signal) -> Signal:
    """(f * g)(x) = sum_y f(y) g(x - y) * mass, by direct summation."""
    spec = common_group(f, g)
    n = spec.order
    out = np.empty(n, dtype=np.complex128)
    for start in range(0, n, _CHUNK):
        rows = diff_rows(spec, start, start + _CHUNK)
        out[start : start + rows.shape[0]] = np.take(g.values, rows) @ f.values
    out *= spec.mass
    return Signal(spec, out)


def convolve_phase(F: PhaseFunction, H: PhaseFunction) -> PhaseFunction:
    """Convolution over phase space, weighted by mass * mass_dual per point.

    Computed by Fourier diagonalization on G x G^: the base group's
    character table T[xi, x] = <xi, x> is symmetric, so the unnormalized
    phase-space transform of an (x, xi) matrix M is conj(T) @ M @ conj(T).
    The transforms multiply pointwise, and T @ P @ T / n^2 undoes them.
    This costs O(n^3) with one order-n table, where the direct sum over the
    phase space costs O(n^4) and an order-n^2 difference table.
    :func:`convolve` stays the direct sum, because the
    ``convolution-diagonalization`` identity checks this route against it.
    """
    spec = common_group(F, H)
    n = spec.order
    T, Tc = character_table(spec), conj_character_table(spec)
    P = Tc @ F.mat @ Tc
    P *= Tc @ H.mat @ Tc
    out = T @ P @ T
    out *= spec.mass * spec.mass_dual / (n * n)
    return PhaseFunction(spec, out)


def inner(f: Signal, g: Signal) -> complex:
    """<f, g> = sum f conj(g) * mass; antilinear in the second slot."""
    mass = common_group(f, g).mass
    return complex(np.vdot(g.values, f.values) * mass)


def inner_phase(F: PhaseFunction, H: PhaseFunction) -> complex:
    """Phase-space pairing with mass * mass_dual per point."""
    return inner(F.as_signal(), H.as_signal())


def norm_l2(f: Signal) -> float:
    return float(np.sqrt(f.group.mass) * np.linalg.norm(f.values))
