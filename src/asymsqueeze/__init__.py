"""Asymmetric two-mode squeezed vacuum toolkit.

Covariance matrix, Wigner and characteristic functions, logarithmic
negativity, CHSH nonlocality and teleportation fidelity of the two-parameter
squeezed vacuum, each closed form cross-checked by a truncated-Fock-space
oracle.  All public functions are pure and thread-safe.
"""

__version__ = "0.1.0"

from .bell import (
    TSIRELSON_BOUND,
    BellSetting,
    BellValue,
    bell_from_wigner,
    bell_function,
    maximize_bell,
)
from .errors import (
    CutoffTooSmallError,
    InvalidCovarianceError,
    QuadratureDomainError,
    ValidationError,
    VerificationError,
)
from .fock import (
    FockState2,
    build_state_exponential,
    cf_numeric,
    covariance_numeric,
    log_negativity_numeric,
    phase_space,
    wigner_numeric,
)
from .gaussian import (
    SYMPLECTIC_FORM,
    CovarianceMatrix,
    PhasePoint,
    log_negativity,
)
from .state import (
    GAMMA_MAX,
    LAMBDA_MAX,
    Coefficients,
    SqueezeParams,
    cf_closed,
    coefficients,
    coefficients_grid,
    covariance,
    enhanced_squeezing,
    fock_amplitudes,
    heisenberg_transform,
    log_negativity_closed,
    variances,
    wigner_closed,
)
from .teleport import (
    Coherent,
    Fidelity,
    InputState,
    SqueezedVacuum,
    cf_input,
    fidelity_coherent_closed,
    fidelity_difference,
    fidelity_quadrature,
    fidelity_squeezed_closed,
)
