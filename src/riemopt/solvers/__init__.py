from .core import (
    CSV_COLUMNS,
    GRADIENT_TOLERANCE,
    MAX_ITER,
    MAX_TIME,
    NONFINITE,
    STEP_COLLAPSE,
    USER_STOP,
    IterationRecord,
    RunResult,
    SolverOptions,
    history_to_csv,
)
from .descent import conjugate_gradient, steepest_descent
from .trust_regions import (
    TCG_BOUNDARY,
    TCG_MAX_INNER,
    TCG_NEGATIVE_CURVATURE,
    TCG_RESIDUAL,
    tcg_subsolver,
    trust_regions,
)

__all__ = [
    "SolverOptions",
    "IterationRecord",
    "RunResult",
    "history_to_csv",
    "CSV_COLUMNS",
    "steepest_descent",
    "conjugate_gradient",
    "trust_regions",
    "tcg_subsolver",
    "GRADIENT_TOLERANCE",
    "MAX_ITER",
    "MAX_TIME",
    "USER_STOP",
    "STEP_COLLAPSE",
    "NONFINITE",
    "TCG_RESIDUAL",
    "TCG_NEGATIVE_CURVATURE",
    "TCG_BOUNDARY",
    "TCG_MAX_INNER",
]
