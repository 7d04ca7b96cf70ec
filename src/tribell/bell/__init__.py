"""Bell-operator evaluation, optimization and closed-form bounds."""

from .bounds import (
    NS99_MIXED_FAMILIES,
    bound_b1_b3,
    bound_b2,
    bound_b4,
    bound_b5,
    chsh_pure_max,
    ns99_ghz_diagonal_max,
    ns99_mixed_bound,
    visibility_threshold,
)
from .operators import (
    CLASSICAL_BOUND,
    N_PARTIES,
    TERMS,
    BellKind,
    MeasurementScenario,
    behavior_operator_value,
    correlation_tensors,
    correlator,
    make_batched_value,
    operator_value,
)
from .optimize import (
    OptimizeOptions,
    ViolationReport,
    optimize_operator,
)

__all__ = [
    "BellKind",
    "CLASSICAL_BOUND",
    "MeasurementScenario",
    "NS99_MIXED_FAMILIES",
    "N_PARTIES",
    "OptimizeOptions",
    "TERMS",
    "ViolationReport",
    "behavior_operator_value",
    "bound_b1_b3",
    "bound_b2",
    "bound_b4",
    "bound_b5",
    "chsh_pure_max",
    "correlation_tensors",
    "correlator",
    "make_batched_value",
    "ns99_ghz_diagonal_max",
    "ns99_mixed_bound",
    "operator_value",
    "optimize_operator",
    "visibility_threshold",
]
