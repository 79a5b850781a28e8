"""Numerical laboratory for the Ricci flow of invariant metrics on compact
homogeneous spaces with one or two irreducible isotropy summands."""

__version__ = "0.1.0"

from .blowup import RescaledState, SolitonLimit, rescale_at, soliton_limit
from .classify import (
    BehaviorReport,
    Outcome,
    Prediction,
    RegimeLabel,
    SingularType,
    classify_trajectory,
    predicted_report,
    regime_of,
)
from .einstein import (
    CriticalDirections,
    EinsteinSet,
    ScalarZeroDirections,
    critical_directions,
    einstein_roots,
    einstein_scale_constants,
    scalar_zero_directions,
)
from .errors import *  # noqa: F401,F403 - the exception vocabulary
from .flow import (
    Direction,
    IntegrationOptions,
    IrreducibleFlow,
    MetricState,
    Termination,
    Trajectory,
    curvature_proxy,
    first_integral,
    integrate,
    irreducible_flow,
    rhs_general,
    rhs_two,
    scalar_curvature,
)
from .spaces import (
    Coefficients,
    GeneralSpace,
    Kind,
    MaxCoeffs,
    NonMaxCoeffs,
    TwoSummandSpace,
    ValidationReport,
    catalog,
    derive_coeffs,
    dump_space,
    get_space,
    load_space,
    make_space,
    space_from_dict,
    space_to_dict,
    sphere,
    validate,
)
