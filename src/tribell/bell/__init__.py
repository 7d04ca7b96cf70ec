"""Bell-operator evaluation, optimization and closed-form bounds."""

from .bounds import (
    X_STATE_MAXIMUM,
    bound_b1_b3,
    bound_b2,
    bound_b4,
    bound_b5,
    chsh_pure_max,
    is_real_x_state,
    ns99_x_max,
    svetlichny_x_max,
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
    "N_PARTIES",
    "OptimizeOptions",
    "TERMS",
    "ViolationReport",
    "X_STATE_MAXIMUM",
    "behavior_operator_value",
    "bound_b1_b3",
    "bound_b2",
    "bound_b4",
    "bound_b5",
    "chsh_pure_max",
    "correlation_tensors",
    "correlator",
    "is_real_x_state",
    "make_batched_value",
    "ns99_x_max",
    "operator_value",
    "optimize_operator",
    "svetlichny_x_max",
    "visibility_threshold",
]
