"""Hermitian eigendecomposition and time-frequency decay diagnostics.

The eigensolver symmetrizes the matrix and hands it to LAPACK through
``np.linalg.eigh``.  It returns the eigenvalues as one array, sorted by
decreasing |lambda| (ties broken toward the larger lambda, then the lower
LAPACK index), and LAPACK's columns in the same order.  ``eigenvector``
turns one column into the eigenfunction: its first significant component
rotated to the positive real axis and its mass-weighted norm 1, so
results are reproducible bit for bit.  A caller normalizes only the
columns it reads.  Within a degenerate eigenspace the basis is whichever
one LAPACK returns; ``decay_comparison`` flags such eigenvalues in its
``ties`` field.

Decay profiles are modulation norms M^{gamma,gamma} for the window
phi = 1_K and the window set K x K_perp, which ``norms.modulation_norms``
evaluates on the quotient G/K x G^/K_perp.

Random draws use the Philox counter-based generator keyed by
(seed, trial), which makes serial and parallel evaluation agree exactly.
``haar_baseline`` draws those same vectors, from one generator whose
state is reset per trial, into one preallocated block, normalizes all
rows with one stacked product, and evaluates them in one product,
bit-identical to a one-row ``decay_profiles`` call per trial.
``decay_comparison`` ranks the top eigenvectors, profiled in one call,
against the baseline its caller passes; it draws nothing.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .group import GroupMismatch, GroupSpec
from .norms import Exponents, modulation_norms
from .signal import Signal


REF_GAMMA = 0.5   # the exponent whose ratio ranks eigenfunctions against the Haar baseline


class NotHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class DegenerateSpectrum(ValueError):
    """Dominant eigenvalue too small to single out an eigenfunction."""


def hermitian_eigen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum ``(values, columns)`` of a Hermitian matrix by LAPACK's
    solver: the float64 eigenvalues in the order above, and LAPACK's
    unrotated column ``columns[:, i]`` for ``values[i]``.  A is taken as a
    complex128 array, so a real matrix is solved as its complex copy.  A
    matrix that is not square, has a NaN or infinite entry, or has an entry
    of A - A^H above 1e-10 max(1, ||A||_F) raises NotHermitian before LAPACK
    sees it."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NotHermitian("matrix has a NaN or infinite entry")
    if np.max(np.abs(A - A.conj().T)) > 1e-10 * max(float(np.linalg.norm(A)), 1.0):
        raise NotHermitian("matrix deviates from its conjugate transpose")
    values, V = np.linalg.eigh((A + A.conj().T) / 2.0)
    order = np.lexsort((-values, -np.abs(values)))
    return values[order], V[:, order]


def eigenvector(spec: GroupSpec, column: np.ndarray) -> Signal:
    """The eigenfunction of one eigensolver column: its first component
    above 1e-12 of the largest modulus rotated to the positive real axis,
    and its mass-weighted L2 norm 1."""
    vec = column.copy()
    mags = np.abs(vec)
    top = float(mags.max())
    if top > 0.0:
        j = int(np.argmax(mags > 1e-12 * top))
        vec = vec * (np.conj(vec[j]) / abs(vec[j]))
    vec = vec / (np.linalg.norm(vec) * math.sqrt(spec.mass))
    return Signal(spec, vec)


# ---------------------------------------------------------------------------
# decay diagnostics


def decay_profiles(spec: GroupSpec, F: np.ndarray, gammas) -> tuple[np.ndarray, np.ndarray]:
    """Modulation norms M^{gamma,gamma} [b, gamma] of each unit row F[b], and
    their ratios to M^2, for the window 1_K and the window set K x K_perp.

    Row b does not depend on the other rows, bit for bit: it equals the
    one-row call on F[b:b + 1].  A signal f is the row f.values[None, :].
    """
    out = modulation_norms(spec, F, [Exponents(g, g) for g in gammas] + [Exponents(2.0, 2.0)])
    return out[:, :-1], out[:, :-1] / out[:, -1:]


def check_seed(seed: int) -> int:
    """``seed`` as an int if it is an integer in [0, 2^64), the range of a
    Philox key word; numpy integers pass.  A bool, a float such as 1.5 or a
    seed outside the range would draw another seed's streams, so it raises."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return int(seed)


def check_top_k(top_k: int) -> int:
    """``top_k`` as an int if it is an integer of at least 1; numpy integers
    pass.  A bool or 2.5 counts no eigenvectors, so it raises ValueError."""
    if isinstance(top_k, bool) or not isinstance(top_k, numbers.Integral) or top_k < 1:
        raise ValueError(f"top_k must be an integer of at least one, got {top_k!r}")
    return int(top_k)


def _haar_rows(spec: GroupSpec, seed: int, trials) -> np.ndarray:
    """Haar-uniform unit vectors, one row per trial t, each drawn from one
    Philox generator whose state is reset to that of a fresh (seed, t)-keyed
    one before the trial: counter 0, empty buffer, built once from Python
    ints with only the trial word rewritten.

    The draws fill one (trials, 2n) block and all rows are normalized at
    once.  The squared norms are the stacked 1 x n @ n x 1 products of the
    real and imaginary views, which numpy evaluates with the same strided
    BLAS dot as ``np.linalg.norm`` of one row, so each row is bit-identical
    to the per-trial draw (``einsum`` is not).
    """
    n = spec.order
    trials = list(trials)
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng, key = np.random.Generator(bitgen), [check_seed(seed), 0]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    Z = np.empty((len(trials), 2 * n))
    for i, t in enumerate(trials):
        key[1] = t
        bitgen.state = fresh
        rng.standard_normal(out=Z[i])
    C = Z[:, :n] + 1j * Z[:, n:]
    R, I = C.real, C.imag
    sq = (R[:, None, :] @ R[:, :, None])[:, 0, 0] + (I[:, None, :] @ I[:, :, None])[:, 0, 0]
    return C / (np.sqrt(sq) * math.sqrt(spec.mass))[:, None]


def haar_baseline(spec: GroupSpec, trials: int, seed: int) -> np.ndarray:
    """REF_GAMMA decay ratios [trial] of the Haar-random unit vectors of seed.

    Entry t equals the ``decay_profiles`` ratio of the trial-t vector drawn
    on its own, ``_haar_rows(spec, seed, [t])``, bit for bit; all trials are
    evaluated at once.
    """
    return decay_profiles(spec, _haar_rows(spec, seed, range(trials)), (REF_GAMMA,))[1][:, 0]


def decay_comparison(
    spec: GroupSpec,
    A: np.ndarray,
    baseline: np.ndarray,
    gammas: tuple[float, ...] = (0.5, 1.0, 2.0),
    top_k: int = 3,
) -> dict:
    """Decay profiles of the top eigenfunctions of the (order, order)
    matrix A on ``spec`` against a baseline of ratios.

    Each of the top_k eigenfunctions gets a percentile rank, in [0, 100],
    of its REF_GAMMA ratio within ``baseline``, for instance
    ``haar_baseline(spec, trials, seed)``; the report's ``trials`` is
    ``len(baseline)``.  An empty baseline, or a ``top_k`` that
    :func:`check_top_k` refuses, ranks nothing and raises ValueError.
    """
    if len(baseline) == 0:
        raise ValueError("decay_comparison needs a non-empty baseline")
    top_k = check_top_k(top_k)
    if np.shape(A) != (spec.order, spec.order):
        raise GroupMismatch(f"expected a {spec.order} x {spec.order} matrix, got {np.shape(A)}")
    values, columns = hermitian_eigen(A)
    if abs(values[0]) <= 1e-8:
        raise DegenerateSpectrum(f"dominant eigenvalue {float(values[0])} is negligible")
    k = min(top_k, len(values))
    # tied: another eigenvalue's modulus is within 1e-10 * lead; the moduli
    # are sorted, so the nearest other one is a neighbour
    moduli = np.abs(values)
    near = np.diff(moduli) >= -1e-10 * moduli[0]
    ties = (np.append(False, near) | np.append(near, False))[:k].tolist()
    if REF_GAMMA not in gammas:
        gammas = tuple(gammas) + (REF_GAMMA,)
    top = np.stack([eigenvector(spec, columns[:, i]).values for i in range(k)])
    norms, ratios = decay_profiles(spec, top, gammas)
    v = ratios[:, list(gammas).index(REF_GAMMA), None]
    rank = np.count_nonzero(baseline < v, axis=1) + 0.5 * np.count_nonzero(baseline == v, axis=1)
    profiles = [[{"gamma": float(g), "norm": float(n), "ratio": float(r)}
                 for g, n, r in zip(gammas, ns, rs)] for ns, rs in zip(norms, ratios)]
    return {
        "eigenvalues": values[:k].tolist(),
        "profiles": profiles,
        "percentiles": (100.0 * rank / len(baseline)).tolist(),
        "ties": ties,
        "ref_gamma": float(REF_GAMMA),
        "trials": len(baseline),
    }
