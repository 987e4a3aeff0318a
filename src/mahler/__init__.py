"""Random real polynomials weighted by a power of the Mahler measure.

A numerical library for the Pfaffian point process formed by the roots:
skew-orthogonal polynomial families, finite-N 2x2 matrix kernels and
correlation functions, six scaling/unscaled limit kernels, exact
expected root counts, the star-body volume identity, and a
Metropolis ball-walk sampler for Monte-Carlo validation.
"""

from .errors import (
    ConditioningError,
    DomainError,
    InfiniteValueError,
    IntegrabilityError,
    MahlerError,
    NotAntisymmetricError,
    OddDimensionError,
    PairingError,
    PoleError,
    QuadratureError,
    ResidualError,
)
from .kernel import (
    EnsembleParams,
    KernelValue2x2,
    PointConfig,
    correlation,
    expected_counts,
    expected_in_exact,
    expected_out_exact,
    intensity_complex,
    intensity_real,
    kappa_n,
    matrix_kernel,
    pfaffian,
    sum_k,
)
from .limits import (
    LimitKernelSpec,
    assemble_matrix,
    a_disk,
    a_outside,
    a_xi,
    b_outside,
    convergence_report,
    dad_disk,
    disk_handle,
    dsn_limit,
    full_report,
    k_zeta,
    kappa_xi,
    outside_handle,
    xi_handle,
)
from .mc import (
    RootSet,
    SamplerConfig,
    mahler_measure,
    roots_classify,
    sample,
)
from .polys import (
    PolyCoeffs,
    ZeroReport,
    eps_poly,
    p_eval,
    p_poly,
    pi_pair,
    s_norm,
    weight,
    zero_check,
)
from .volume import (
    GramMatrix,
    bilinear,
    chern_vaaler_f,
    gram_matrix,
    gram_pf,
    monomial_moment,
    skew_moment,
    volume_ball,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
