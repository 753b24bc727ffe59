"""Certified numerical bounds for Toeplitz operators with Blaschke symbols.

The package computes two-sided brackets for the operator norm of T_B, the
analytic projection of multiplication by the conjugate of a finite Blaschke
product B. Upper bounds come from an oscillation functional evaluated by
adaptive quadrature; lower bounds come from explicit interpolation witnesses
whose norms are certified, not estimated. The extremal ray construction
reproduces the growth 1 + 2n of the supremum over degree-n symbols.
"""

import numpy as np

from .circle_quad import (
    DEFAULT_LAMBDA_SPEC,
    DEFAULT_SPEC,
    LambdaResult,
    QuadratureSpec,
    integrate_circle,
    lambda_functional,
)
from .disk_core import (
    BlaschkeProduct,
    CirclePoint,
    boundary_values,
    eval_blaschke,
    pseudohyperbolic_distance,
)
from .errors import (
    InvalidConfiguration,
    NotStrictlyFeasible,
    NumericalBreakdown,
    PointCollision,
    RepeatedZero,
    ToeplitzBoundsError,
    ToleranceNotMet,
)
from .omega_bounds import (
    LowerBoundCertificate,
    NormBracket,
    RayConfiguration,
    StudyResult,
    StudyRow,
    bracket_norm,
    certify_lower_bound,
    closed_form_functional,
    ideal_limit,
    omega_convergence_study,
    study_to_csv,
    study_to_json,
)
from .pick_interp import (
    InterpolantCertificate,
    InterpolationProblem,
    construct_interpolant,
    minimal_level,
    pick_feasible,
    pick_matrix,
)
from .toeplitz_op import (
    RationalFunction,
    apply_toeplitz_contour,
    apply_toeplitz_residue,
    lemma1_upper_bound,
)

__all__ = [
    "BlaschkeProduct",
    "CirclePoint",
    "DEFAULT_LAMBDA_SPEC",
    "DEFAULT_SPEC",
    "InterpolantCertificate",
    "InterpolationProblem",
    "InvalidConfiguration",
    "LambdaResult",
    "LowerBoundCertificate",
    "NormBracket",
    "NotStrictlyFeasible",
    "NumericalBreakdown",
    "PointCollision",
    "QuadratureSpec",
    "RationalFunction",
    "RayConfiguration",
    "RepeatedZero",
    "StudyResult",
    "StudyRow",
    "ToeplitzBoundsError",
    "ToleranceNotMet",
    "apply_toeplitz_contour",
    "apply_toeplitz_residue",
    "boundary_values",
    "bracket_norm",
    "certify_lower_bound",
    "closed_form_functional",
    "construct_interpolant",
    "eval_blaschke",
    "ideal_limit",
    "integrate_circle",
    "lambda_functional",
    "lemma1_upper_bound",
    "minimal_level",
    "omega_convergence_study",
    "pick_feasible",
    "pick_matrix",
    "pseudohyperbolic_distance",
    "study_to_csv",
    "study_to_json",
]

__version__ = "0.1.0"

# One freed 8 MB block raises glibc's malloc mmap threshold to 8 MB and its trim
# threshold to 16 MB, so boundary sweeps reuse heap pages instead of faulting in
# fresh ones; sweeps over 1 MB (next to near-circle zeros) would be mapped per call.
# It tunes glibc only and does nothing on other allocators. The page-fault tests
# of Lambda and of the Pick construction pin what it buys.
np.empty(1 << 20)
