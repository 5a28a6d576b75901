"""Finite abelian groups with a distinguished compact-open subgroup.

A group is a product of cyclic factors Z_N1 x ... x Z_Nk; the subgroup
K = d1 Z_N1 x ... x dk Z_Nk is fixed by choosing one divisor d_j | N_j per
factor.  The dual group is identified with the group itself through

    xi(x) = exp(2 pi i sum_j xi_j x_j / N_j),

so dual-indexed data uses the same canonical (lexicographic) order as
group-indexed data.  Under this identification the annihilator of K is
K_perp = (N1/d1) Z_N1 x ... x (Nk/dk) Z_Nk.

A point of G or of G^ is its canonical index, an int in 0 .. order - 1,
and a point (x, xi) of the phase space G x G^ is the flat index
x * order + xi; :func:`residue_grid` gives the residues of each index.

Haar normalization: each point of the group carries ``mass`` and each point
of the dual carries ``1 / (mass * order)``.  The product of the two masses
times the order is 1, which is exactly what makes the Fourier transform
unitary.  A dual or a product takes its dual mass exactly from its
parts, so the bidual is the group.  Groups constructed by
:func:`make_group` use ``mass = 1``; the phase space G x G^ built by
:func:`phase_spec` inherits the product mass ``mass * mass_dual`` so that
all pairings on it agree with the plain mass-weighted sums.

Every cached array of the package, here and in the modules above, is kept
by :func:`cached` under one byte budget, ``_CACHE_BYTES``.
"""

from __future__ import annotations

import itertools
import numbers
import operator
import threading
from collections import namedtuple
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache, wraps
from math import inf, prod
from typing import Iterable

import numpy as np

# Full index/character tables are cached only up to this many points.
# Above it, character_table and diff_table raise TableLimit, so fourier and
# every operator refuse such orders; convolve (by rows of diff_rows), shifts,
# phase_tiles, quasi_lattice, the modulation norms and convrel go on.
_TABLE_LIMIT = 4096

# Every cached array of the package is kept under this many bytes in all,
# least recently used first out.  It holds one order-4096 group's character
# table and its conjugate (16 * 4096**2 bytes = 256 MiB each), difference
# table (4 * 4096**2 = 64 MiB) and canonical lattice plan (at most
# 24 * 4096**2 = 384 MiB), 960 MiB together, where entry counts alone let 8
# character tables and 8 difference tables of that order take 2.5 GiB.
_CACHE_BYTES = 2**30


class GroupError(ValueError):
    """Base class for group construction and usage errors."""


class EmptyGroup(GroupError):
    """Group built from an empty factor list."""


class NonDivisor(GroupError):
    """Subgroup divisor does not divide its cyclic order."""


class GroupMismatch(GroupError):
    """Data of different groups combined, or a point outside its group."""


class TableLimit(GroupError):
    """A valid group whose order is above the cached-table limit: a resource
    limit, raised before any table is allocated."""


@dataclass(frozen=True)
class GroupSpec:
    """Product of cyclic groups with a chosen compact-open subgroup.

    ``factors[j]`` is the order of the j-th cyclic factor and
    ``subgroup_divisors[j]`` the step of the subgroup inside it.  ``mass``
    is the Haar mass of a single point of the group, and ``order`` the
    number of points.  ``mass_dual``, the mass of a point of the dual, is
    ``1 / (mass * order)``, except that :func:`dual_spec` and
    :func:`product_spec` take it exactly from their parts; as a field it
    makes equal specs' duals equal.
    """

    factors: tuple[int, ...]
    subgroup_divisors: tuple[int, ...]
    mass: float = 1.0
    mass_dual: float = field(init=False)

    def __post_init__(self) -> None:
        # int() would truncate 6.7 and read True as 1, and a lone number is
        # no sequence of them; numpy integers pass
        for name in ("factors", "subgroup_divisors"):
            given = getattr(self, name)
            values = tuple(given) if isinstance(given, Iterable) else (None,)
            if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in values):
                raise GroupError(f"{name} must be integers, got {given!r}")
            object.__setattr__(self, name, tuple(map(operator.index, values)))
        if len(self.factors) == 0:
            raise EmptyGroup("group needs at least one cyclic factor")
        if len(self.subgroup_divisors) != len(self.factors):
            raise NonDivisor("one subgroup divisor is required per factor")
        for n, d in zip(self.factors, self.subgroup_divisors):
            if n <= 0:
                raise EmptyGroup(f"cyclic factor order must be positive, got {n}")
            if d <= 0 or n % d != 0:
                raise NonDivisor(f"divisor {d} does not divide factor order {n}")
        mass = self.mass
        if isinstance(mass, bool) or not isinstance(mass, numbers.Real) or not 0 < mass < inf:
            raise GroupError(f"point mass must be a finite positive number, got {mass!r}")
        # order is set once and kept outside the fields, so that equality,
        # hashing and repr do not see it
        object.__setattr__(self, "order", prod(self.factors))
        try:
            mass_dual = 1.0 / (self.mass * self.order)
        except OverflowError:                   # an order beyond the float range
            mass_dual = 0.0
        if not 0 < mass_dual < inf:
            raise GroupError(f"dual point mass 1 / (mass * order) is {mass_dual!r}")
        object.__setattr__(self, "mass_dual", mass_dual)

    # -- sizes and masses ------------------------------------------------

    @property
    def subgroup_order(self) -> int:
        """Number of points of K."""
        return prod(n // d for n, d in zip(self.factors, self.subgroup_divisors))

    @property
    def annihilator_order(self) -> int:
        """Number of points of K_perp."""
        return prod(self.subgroup_divisors)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "factors": list(self.factors),
            "subgroup_divisors": list(self.subgroup_divisors),
            "mass": self.mass,
        }


def make_group(factors: Iterable[int], subgroup_divisors: Iterable[int]) -> GroupSpec:
    """Build a group from cyclic factor orders and per-factor divisors."""
    return GroupSpec(factors, subgroup_divisors)


def point_index(spec: GroupSpec, point: int) -> int:
    """``point`` as a canonical index of ``spec``; GroupMismatch unless it
    lies in 0 .. order - 1, TypeError for a bool or a non-integer.  Every
    public function that takes a point checks it here."""
    if isinstance(point, bool):                 # operator.index reads True as 1
        raise TypeError(f"a point must be an integer, got {point!r}")
    i = operator.index(point)
    if not 0 <= i < spec.order:
        raise GroupMismatch(f"point {i} out of range for group of order {spec.order}")
    return i


def common_group(*items) -> GroupSpec:
    """The group of the first item; GroupMismatch, naming both groups, unless
    every other item has the same one.  Each item is a signal, a symbol or a
    lattice.  Every public function that combines data checks it here."""
    spec = items[0].group
    for item in items[1:]:
        if item.group != spec:
            raise GroupMismatch(f"data on {item.group!r} combined with data on {spec!r}")
    return spec


# ---------------------------------------------------------------------------
# the byte-bounded cache


CacheInfo = namedtuple("CacheInfo", "misses currsize nbytes")

_stores: list[dict] = []            # one per cached function: key -> [value, nbytes, last use]
_use = itertools.count()
_admitting = threading.Lock()


def _nbytes(value) -> int:
    """Bytes of the arrays a cached value holds: itself, its items or its fields."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(map(_nbytes, value))
    if is_dataclass(value):
        return sum(_nbytes(getattr(value, f.name)) for f in fields(value))
    return 0


def _admit(store: dict, key, value) -> None:
    """Keep ``value`` in ``store`` after dropping the least recently used
    entries of all stores until the cached bytes fit ``_CACHE_BYTES``; a
    value above the budget on its own is not kept."""
    size = _nbytes(value)
    if size > _CACHE_BYTES:
        return
    with _admitting:
        held = sum(e[1] for s in _stores for e in s.values())
        while held + size > _CACHE_BYTES:
            s, k = min(((s, k) for s in _stores for k in s), key=lambda sk: sk[0][sk[1]][2])
            held -= s.pop(k)[1]
        store[key] = [value, size, next(_use)]


def cached(key):
    """Decorator: keep a function's results, which must not be written to,
    in the one byte-bounded cache of the package, under ``key(*args)``.

    A hit is one dict lookup.  The function gains ``peek(*args)``, the cached
    value (a use, as a hit is) or None with nothing built, and
    ``cache_info()``/``cache_clear()``, which count one miss per build."""
    def decorate(build):
        store: dict = {}
        _stores.append(store)
        misses = 0

        @wraps(build)
        def lookup(*args):
            k = key(*args)
            entry = store.get(k)
            if entry is not None:
                entry[2] = next(_use)
                return entry[0]
            nonlocal misses
            misses += 1
            value = build(*args)
            _admit(store, k, value)
            return value

        def peek(*args):
            entry = store.get(key(*args))
            if entry is None:
                return None
            entry[2] = next(_use)
            return entry[0]

        def cache_info() -> CacheInfo:
            return CacheInfo(misses, len(store), sum(e[1] for e in store.values()))

        def cache_clear() -> None:
            nonlocal misses
            with _admitting:
                store.clear()
            misses = 0

        lookup.peek, lookup.cache_info, lookup.cache_clear = peek, cache_info, cache_clear
        return lookup
    return decorate


def _factors(spec: GroupSpec) -> tuple[int, ...]:
    """Key of a table that reads only the factors: every spec with them (the
    dual, the trivial-subgroup spec, any mass) gets one array."""
    return spec.factors


# ---------------------------------------------------------------------------
# characters


@cached(_factors)
def residue_grid(spec: GroupSpec) -> np.ndarray:
    """(order, k) int64 array of residue tuples in canonical order."""
    idx = np.arange(spec.order)
    grid = np.stack(np.unravel_index(idx, spec.factors), axis=1).astype(np.int64)
    grid.setflags(write=False)
    return grid


def _characters(spec: GroupSpec, xi, x) -> np.ndarray:
    """<xi, x> = exp(2 pi i sum_j xi_j x_j / N_j), each term reduced mod N_j
    first, for xi and x that select rows of the residue grid (an index, an
    index array or a slice) and broadcast; the one character formula."""
    grid = residue_grid(spec)
    t = 0.0
    for j, n in enumerate(spec.factors):
        t = t + ((grid[xi, j] * grid[x, j]) % n) / n
    return np.exp(2j * np.pi * t)


def character_row(spec: GroupSpec, xi_index: int) -> np.ndarray:
    """<xi, x> for a fixed xi over all x in canonical order: the row of the
    character table if it is cached, else the character formula; no table is
    built."""
    xi, T = point_index(spec, xi_index), character_table.peek(spec)
    return _characters(spec, xi, np.s_[:]) if T is None else T[xi]


@cached(_factors)
def character_table(spec: GroupSpec) -> np.ndarray:
    """Full character table T[xi, x] = <xi, x>; only for small groups."""
    n = spec.order
    if n > _TABLE_LIMIT:
        raise TableLimit(f"character table of order {n} exceeds the cached-table limit")
    table = _characters(spec, np.arange(n)[:, None], np.s_[:])
    table.setflags(write=False)
    return table


@cached(_factors)
def conj_character_table(spec: GroupSpec) -> np.ndarray:
    """conj(T)[xi, x] = conj(<xi, x>), the table the forward transforms
    multiply by, kept beside :func:`character_table` so that no call forms it."""
    table = np.conj(character_table(spec))
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# index arithmetic


def _difference(spec: GroupSpec, a, b) -> np.ndarray:
    """index(a - b) for a and b that select rows of the residue grid (an
    index, an index array or a slice) and broadcast; the one difference
    formula."""
    grid = residue_grid(spec)
    res = (grid[a] - grid[b]) % np.asarray(spec.factors)
    return np.ravel_multi_index(np.moveaxis(res, -1, 0), spec.factors)


def shift_index(spec: GroupSpec, x: int) -> np.ndarray:
    """int64 perm[y] = index(y - x) for all y, so that f.values[perm] is T_x f:
    the column of the difference table if it is cached, else the difference
    formula; no table is built."""
    x, D = point_index(spec, x), diff_table.peek(spec)
    return _difference(spec, np.s_[:], x) if D is None else D[:, x].astype(np.int64)


@cached(_factors)
def diff_table(spec: GroupSpec) -> np.ndarray:
    """table[a, b] = index(a - b), so row 0 is index(-b); cached for groups up
    to the table limit."""
    n = spec.order
    if n > _TABLE_LIMIT:
        raise TableLimit(f"difference table of order {n} exceeds the cached-table limit")
    table = _difference(spec, np.s_[:, None], np.s_[:]).astype(np.int32)
    table.setflags(write=False)
    return table


def diff_rows(spec: GroupSpec, start: int, stop: int) -> np.ndarray:
    """index(a - b) for start <= a < stop against all b: rows of the cached
    :func:`diff_table` up to the table limit, computed on demand above it."""
    if spec.order <= _TABLE_LIMIT:
        return diff_table(spec)[start:stop]
    return _difference(spec, np.s_[start:stop, None], np.s_[:])


def circular_distance(spec: GroupSpec) -> np.ndarray:
    """l1 circular distance sum_j min(x_j, N_j - x_j) of each x to 0, in canonical order."""
    grid = residue_grid(spec)
    return np.minimum(grid, np.asarray(spec.factors) - grid).sum(axis=1)


# ---------------------------------------------------------------------------
# subgroup, annihilator, coset representatives


def subgroup_indices(spec: GroupSpec) -> np.ndarray:
    """Canonical indices of K, in increasing order: the coset j = 0 row of
    :func:`quotient_indices`."""
    return quotient_indices(spec)[0][0]


def annihilator_indices(spec: GroupSpec) -> np.ndarray:
    """Canonical indices of K_perp, in increasing order: the subgroup of the
    dual group, whose steps are N_j / d_j."""
    return subgroup_indices(dual_spec(spec))


@cached(lambda spec: spec)
def quotient_indices(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps of the split x = j + d c per factor, j < d, c in Z_{N/d}.

    Returns (rows, coset, eta): ``rows[j, c]`` is the index of j + d c, the
    coset representative j outer and the K coordinate c inner, both in
    lexicographic order; ``coset[x]`` is the j of x + K; ``eta[xi]`` is the
    index of xi mod N/d in the dual of K = Z_{N1/d1} x ..., so that
    <xi, d c> = <eta, c> on K.
    """
    grid = residue_grid(spec)
    d = np.asarray(spec.subgroup_divisors)
    sizes = tuple(int(s) for s in np.asarray(spec.factors) // d)
    coset = np.ravel_multi_index((grid % d).T, spec.subgroup_divisors)
    rows = np.empty((spec.annihilator_order, spec.subgroup_order), dtype=np.int64)
    rows[coset, np.ravel_multi_index((grid // d).T, sizes)] = np.arange(spec.order)
    eta = np.ravel_multi_index((grid % np.asarray(sizes)).T, sizes)
    for a in (rows, coset, eta):
        a.setflags(write=False)
    return rows, coset, eta


def phase_tiles(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """Index pair of the tiles z + K x K_perp, built from the quotient splits
    of G and of G^: ``F.mat[phase_tiles(spec)]`` is the block grid (|G/K|,
    |G^/K_perp|, |K|, |K_perp|).  Block (j1, j2) is the tile of the lattice
    point (D1[j1], D2[j2]), K outer and K_perp inner; block (0, 0) is
    K x K_perp and the corner [:, :, 0, 0] the lattice.  No table is built."""
    rows, cols = quotient_indices(spec)[0], quotient_indices(dual_spec(spec))[0]
    return rows[:, None, :, None], cols[None, :, None, :]


@cached(lambda spec: spec)
def subgroup_character_table(spec: GroupSpec) -> np.ndarray:
    """Character table of K = Z_{N1/d1} x ... in its own coordinates c, the
    inner axis of :func:`quotient_indices`'s ``rows`` and the index ``eta``."""
    sizes = tuple(n // d for n, d in zip(spec.factors, spec.subgroup_divisors))
    return character_table(GroupSpec(sizes, sizes))


def coset_representatives(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """Canonical transversals (D1, D2) of G/K and of G^/K_perp as index arrays.

    D1 runs over residues below the subgroup step, D2 over residues below
    the annihilator step, both lexicographically: the c = 0 columns of
    :func:`quotient_indices` for the group and for its dual.
    """
    return quotient_indices(spec)[0][:, 0], quotient_indices(dual_spec(spec))[0][:, 0]


def _points(lattice) -> tuple:
    """Key of a lattice plan: the group and the int64 points of
    :func:`fingabor.gabor.lattice_from_points`, so that equal lattices built
    apart share one plan."""
    return lattice.group, lattice.x.tobytes(), lattice.xi.tobytes()


@cached(_points)
def lattice_plan(lattice) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """What the canonical-window Gabor matrix of ``lattice`` reads besides the
    symbol, built once per group and points.

    For row point (w, mu) and column point (u, nu), a and b the
    representatives of w + K and nu + K_perp, it returns ``(tiles, flat,
    phase)``: ``tiles`` is the index pair of the tiles (a + K) x (b + K_perp)
    for the cosets a of the points' x and b of their xi, so that
    ``F.mat[tiles]`` is their block grid (a, b, K, K_perp) in the order of
    :func:`phase_tiles`; ``flat[i, j]`` is the flat index, into that grid's
    shape, of the tile (a, b) of the pair at the coordinates eta(mu - nu) and
    eta_perp(w - u) of :func:`quotient_indices`; and ``phase[i, j]`` is
    conj(<mu - nu, a>) * <b - nu, w - u>.
    """
    spec = lattice.group
    T, D = character_table(spec), diff_table(spec)             # D[a, b] = index(a - b)
    rows, coset, eta = quotient_indices(spec)
    cols, coset_perp, eta_perp = quotient_indices(dual_spec(spec))
    x, xi = lattice.x, lattice.xi
    # the cosets the lattice names, and each point's place among them; not by
    # np.unique, whose sort code alone adds 0.4 MB of resident pages to a run
    named1 = np.flatnonzero(np.bincount(coset[x], minlength=rows.shape[0]))
    named2 = np.flatnonzero(np.bincount(coset_perp[xi], minlength=cols.shape[0]))
    at1, at2 = np.searchsorted(named1, coset[x]), np.searchsorted(named2, coset_perp[xi])
    j1, j2 = coset[x][:, None], coset_perp[xi][None, :]         # tile (a, b) of each pair
    dx, dxi = D[x[:, None], x], D[xi[:, None], xi]              # index(w - u), index(mu - nu)
    flat = np.ravel_multi_index((at1[:, None], at2[None, :], eta[dxi], eta_perp[dx]),
                                (len(named1), len(named2), rows.shape[1], cols.shape[1]))
    phase = np.conj(T[dxi, rows[j1, 0]]) * T[D[cols[j2, 0], xi], dx]
    tiles = rows[named1][:, None, :, None], cols[named2][None, :, None, :]
    for a in (*tiles, flat, phase):
        a.setflags(write=False)
    return tiles, flat, phase


# ---------------------------------------------------------------------------
# derived groups


@lru_cache(maxsize=32)
def dual_spec(spec: GroupSpec) -> GroupSpec:
    """The dual group as a GroupSpec: subgroup K_perp, Plancherel mass, and
    the group's mass as its dual mass, so that the bidual is the group."""
    divisors = tuple(n // d for n, d in zip(spec.factors, spec.subgroup_divisors))
    dual = GroupSpec(spec.factors, divisors, mass=spec.mass_dual)
    object.__setattr__(dual, "mass_dual", spec.mass)
    return dual


@lru_cache(maxsize=32)
def phase_spec(spec: GroupSpec) -> GroupSpec:
    """Phase space G x G^ as a group with subgroup K x K_perp.

    The point mass is ``mass * mass_dual`` so integrals over phase space
    written as plain mass-weighted sums match the product Haar measure.
    Its dual is again a group of the same shape and point mass,
    ``phase_spec(dual_spec(spec))`` (representing G^ x G), and
    the canonical product character realizes the pairing
    <(omega, u), (x, xi)> = <omega, x> <xi, u>.
    """
    return product_spec(spec, dual_spec(spec))


@lru_cache(maxsize=32)
def trivial_subgroup_spec(spec: GroupSpec) -> GroupSpec:
    """The same group, point mass and dual mass with the trivial subgroup K = {0}."""
    trivial = GroupSpec(spec.factors, spec.factors, spec.mass)
    object.__setattr__(trivial, "mass_dual", spec.mass_dual)
    return trivial


def product_spec(a: GroupSpec, b: GroupSpec) -> GroupSpec:
    """Direct product with concatenated factors, product mass and product
    dual mass, so that the dual of a product is the product of the duals."""
    spec = GroupSpec(
        a.factors + b.factors, a.subgroup_divisors + b.subgroup_divisors, mass=a.mass * b.mass
    )
    object.__setattr__(spec, "mass_dual", a.mass_dual * b.mass_dual)
    return spec
