"""Holonomy maps on matrix Lie groups and gauge-potential reconstruction.

The library evaluates holonomy maps from connection fields by parallel
transport (or in closed form for commuting groups), recovers local gauge
potentials and the connection 1-form from holonomies alone, and verifies
the round trip through curvature, gauge-covariance and transport checks.
"""

from .lie_core import (
    MULTIPLICATIVE_REALS,
    SU2,
    U1,
    AlgebraElement,
    FarFromIdentity,
    GroupElement,
    GroupName,
    GroupSpec,
    SpecMismatch,
    algebra_element_from_json,
    element_to_json,
    exp_map,
    gln,
    group_distance,
    group_element_from_json,
    log_map,
    project_to_algebra,
    project_to_group,
    su2_basis,
)
from .path_algebra import (
    EndpointMismatch,
    LoopAtBase,
    NotMonotone,
    PathFamily,
    PathNd,
    ReparametrizedPath,
    Segment,
    axis_dogleg_family,
    compose_paths,
    constant_path,
    contract,
    invert_path,
    loop_from_json,
    loop_to_json,
    path_from_json,
    path_to_json,
    piecewise_power_map,
    power_map,
    radial_family,
    random_polygon_loop,
    random_polyline,
    reconstruction_loop,
    reparametrize,
    straight_segment,
    thin_reduce,
)
from .holonomy import (
    AxiomReport,
    BasepointMismatch,
    ConnectionField,
    DimMismatch,
    HolonomyMap,
    IntegrationError,
    audit_axioms,
    check_axiom1,
    check_axiom2,
    check_axiom3,
    eval_holonomy,
    transport_along,
)
from .reconstruction import (
    FdConfig,
    GridSpec,
    PotentialField,
    RoundTripReport,
    StepTooLarge,
    TrivializedCurve,
    connection_form_action,
    curvature,
    gauge_transform_potential,
    horizontal_transport,
    potential_grid_csv,
    reconstruct_potential,
    round_trip_report,
    transition_function,
)
from .presets import Preset, get_preset, iter_presets

__version__ = "0.1.0"
