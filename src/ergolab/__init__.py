"""Exact recurrence experiments for cylinder cascades, special flows and windings.

The package detects and samples the recurrence phenomena of zero-mean
cocycles over circle rotations and interval exchanges: exact zero Birkhoff
sums, near-returns, simultaneous zero/near events, vanishing orbit
integrals of special flows and torus windings, first-return (induced)
statistics, excess-probability decay and skew-product orbits — all on a
192-bit guarded fixed-point grid so that every reported zero is exact and
every comparison is either certain or an explicit precision error.
"""
from .angles import AngleSpec, ContinuedFraction, cf_convergents, continued_fraction, parse_angle
from .cocycles import (
    IntegralProfile,
    PhaseFunction,
    StepCocycle,
    TrigPolynomial,
    birkhoff_sums,
    integral_profile,
    orbit_integral,
    winding_integral,
    winding_zero_times,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    ErgolabError,
    PrecisionExhaustedError,
    RationalAngleWarning,
    ResonantFrequencyError,
    ReturnBudgetError,
    RowLimitError,
    ZeroValueStartError,
)
from .experiments import (
    ExperimentConfig,
    RunManifest,
    check_run_directory,
    list_presets,
    preset_config,
    run_experiment,
    validate_config,
)
from .fixedpoint import SCALE, Cmp, FixedReal, Walls, circle_distance, guarded_compare
from .induced import (
    DEFAULT_RETURN_BUDGET,
    InducedSample,
    InducedStats,
    induce_point,
    induced_statistics,
)
from .recurrence import (
    ReturnRecord,
    Returns,
    TargetSet,
    find_zero_sums,
    flow_zero_near_returns,
    flow_zero_set_returns,
    joint_zero_returns,
    near_returns,
    sublinearity_estimate,
)
from .skew import ProductState, SkewOrbitStats, SkewSystem, orbit_statistics
from .stats import (
    decimal_string,
    dkw_epsilon,
    mean_and_se,
)
from .systems import (
    CircleRotation,
    IntervalExchange,
    Roof,
    SpecialFlowState,
    TorusPoint,
    TorusWinding,
    flow_distance,
    special_flow_step,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSpec",
    "BudgetExceededError",
    "CircleRotation",
    "Cmp",
    "ConfigError",
    "ContinuedFraction",
    "DEFAULT_RETURN_BUDGET",
    "ErgolabError",
    "ExperimentConfig",
    "FixedReal",
    "InducedSample",
    "InducedStats",
    "IntegralProfile",
    "IntervalExchange",
    "PhaseFunction",
    "PrecisionExhaustedError",
    "ProductState",
    "RationalAngleWarning",
    "ResonantFrequencyError",
    "ReturnBudgetError",
    "ReturnRecord",
    "Returns",
    "Roof",
    "RowLimitError",
    "RunManifest",
    "SCALE",
    "SkewOrbitStats",
    "SkewSystem",
    "SpecialFlowState",
    "StepCocycle",
    "TargetSet",
    "TorusPoint",
    "TorusWinding",
    "TrigPolynomial",
    "Walls",
    "ZeroValueStartError",
    "birkhoff_sums",
    "cf_convergents",
    "check_run_directory",
    "circle_distance",
    "continued_fraction",
    "decimal_string",
    "dkw_epsilon",
    "find_zero_sums",
    "flow_distance",
    "flow_zero_near_returns",
    "flow_zero_set_returns",
    "guarded_compare",
    "induce_point",
    "induced_statistics",
    "integral_profile",
    "joint_zero_returns",
    "list_presets",
    "mean_and_se",
    "near_returns",
    "orbit_integral",
    "orbit_statistics",
    "parse_angle",
    "preset_config",
    "run_experiment",
    "special_flow_step",
    "sublinearity_estimate",
    "validate_config",
    "winding_integral",
    "winding_zero_times",
]
