"""Billiards inside cones: conserved quantities, the C2 pathological cone,
and the elliptic-cone reflection bound."""

from .errors import (
    C2CheckFailure,
    ConstructionError,
    ConvexityFailure,
    DomainError,
    GrazingError,
    ReplayFailure,
    TangencyWarning,
    Termination,
)
from .geometry import (
    CircularSection,
    GeneralCone,
    OrientedLine,
    alpha_theta_residuals,
    angle_between,
    angular_momenta,
    cone_step_precise,
    line_distance_sq,
    projected_distance_sq,
    reflect_direction,
    simulate_wedge,
    unit,
    wedge_reflection_count,
)
from .elliptic import (
    EllipticCone,
    IntegralPair,
    TrajectoryLog,
    caustic_tangency_residual,
    first_integrals,
    h_identity_residual,
    integral_pair,
    min_vertex_angle,
    next_intersection,
    poisson_bracket_residual,
    reflection_bound,
    run,
    run_random,
    sample_start,
)
from .spiral import (
    NormalFrame,
    SpiralParams,
    SpiralTrajectory,
    TailTable,
    delta,
    k0,
    normal_w,
    shared_tail_table,
    sigma,
    theta,
    theta_tail,
    xi,
)
from .curve import (
    ArcPatch,
    PolarCurve,
    bump,
    build_curve,
    c2_check_at_zero,
    circle_polar,
    replay,
    sign_change_census,
)
from .ndim import (
    LiftedSection,
    embedded_reflection_check,
    negdef_check,
)

__version__ = "0.1.0"
