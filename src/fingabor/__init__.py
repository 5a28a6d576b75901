"""Time-frequency analysis on finite abelian groups.

Groups are products of cyclic factors with a distinguished subgroup; on
top of them the package builds translation/modulation operators, the
windowed Fourier transform, mixed quasi-norms and modulation norms,
quasi-lattice frame systems, phase-space quantization, localization
operators, and an eigensolver used to study spectral decay.

Importing the package sets one BLAS thread, before numpy loads: when
numpy is not yet imported and none of ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` is in the environment, it
sets ``OPENBLAS_NUM_THREADS=1``. This suits groups up to order 64, where
every product is small: there a second OpenBLAS thread mostly spins,
doubling the CPU time of a run for the same wall time. From order 256
on, the second thread pays: on two cores one thread makes a run's wall
time 13-23% longer at order 256 and 49-59% longer at order 1024 (see
the README), so set ``OPENBLAS_NUM_THREADS`` to the core count for such
runs. A thread variable the caller set is left as it is. Once numpy is
loaded its BLAS has read its thread count, so nothing is set then.
Child processes inherit the variable.
"""
import os
import sys

if "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
del os, sys

from .group import (
    EmptyGroup,
    GroupError,
    GroupMismatch,
    GroupSpec,
    NonDivisor,
    TableLimit,
    coset_representatives,
    dual_spec,
    make_group,
    phase_spec,
)
from .signal import (
    PhaseFunction,
    Signal,
    convolve,
    convolve_phase,
    fourier,
    indicator,
    inner,
    inner_phase,
    inverse_fourier,
    modulate,
    norm_l2,
    subgroup_indicator,
    tf_shift,
    translate,
)
from .tfa import (
    rihaczek,
    stft,
    window_constant,
)
from .norms import (
    Exponents,
    NonPositiveExponent,
    Weight,
    convolution_relation_probe,
    modulation_norm,
    polynomial_weight,
    rihaczek_continuity_probe,
)
from .gabor import (
    GaborSystem,
    NotAFrame,
    QuasiLattice,
    analysis,
    discrete_modnorm,
    dual_window,
    frame_operator,
    gabor_system,
    lattice_from_points,
    quasi_lattice,
    synthesis,
)
from .operators import (
    gabor_matrix,
    gabor_matrix_closed_form,
    kn_apply,
    kn_kernel,
    kn_matrix,
    loc_to_kn_symbol,
    localization_apply,
    localization_matrix,
)
from .spectral import (
    DegenerateSpectrum,
    NotHermitian,
    decay_comparison,
    decay_profiles,
    eigenvector,
    hermitian_eigen,
)

__version__ = "0.1.0"
