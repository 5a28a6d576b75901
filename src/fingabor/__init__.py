"""Time-frequency analysis on finite abelian groups.

Groups are products of cyclic factors with a distinguished subgroup; on
top of them the package builds translation/modulation operators, the
windowed Fourier transform, mixed quasi-norms and modulation norms,
quasi-lattice frame systems, phase-space quantization, localization
operators, and an eigensolver used to study spectral decay.
"""
from .group import (
    DualElement,
    EmptyGroup,
    GroupElement,
    GroupError,
    GroupMismatch,
    GroupSpec,
    NonDivisor,
    character,
    coset_representatives,
    dual_spec,
    make_group,
    phase_spec,
)
from .signal import (
    PhaseFunction,
    Signal,
    constant,
    convolve,
    convolve_phase,
    delta,
    fourier,
    indicator,
    inner,
    inner_phase,
    inverse_fourier,
    modulate,
    norm_l2,
    subgroup_indicator,
    tensor,
    tf_shift,
    translate,
    zeros,
)
from .tfa import (
    gaussian_window,
    moyal_residual,
    rihaczek,
    stft,
    window_constant,
)
from .norms import (
    Exponents,
    NonPositiveExponent,
    Weight,
    inclusion_check,
    mixed_quasi_norm,
    modulation_norm,
    polynomial_weight,
)
from .gabor import (
    DualWindowMismatch,
    NotAFrame,
    QuasiLattice,
    analysis,
    discrete_modnorm,
    dual_window,
    expansion_residual,
    frame_bounds,
    frame_operator,
    lattice_from_points,
    quasi_lattice,
    representative_independence_residual,
    synthesis,
)
from .operators import (
    OperatorMatrix,
    convolution_relation_probe,
    gabor_matrix,
    gabor_matrix_closed_form,
    kn_apply,
    kn_kernel,
    kn_matrix,
    loc_to_kn_symbol,
    localization_apply,
    localization_matrix,
    rihaczek_continuity_probe,
)
from .spectral import (
    DegenerateSpectrum,
    EigenPair,
    NotHermitian,
    decay_comparison,
    decay_profile,
    hermitian_eigen,
)

__version__ = "0.1.0"
