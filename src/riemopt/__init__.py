"""riemopt: smooth optimization on Riemannian manifolds.

Manifold geometry descriptors, derivative-based solvers (steepest descent,
nonlinear CG, trust regions), derivative-correctness diagnostics, and a
max-cut application built on the fixed-rank elliptope relaxation.
"""

from .manifolds import (
    ManifoldDescriptor,
    elliptope_factory,
    euclidean_factory,
    fixed_rank_factory,
    grassmann_factory,
    oblique_factory,
    product_factory,
    rotations_factory,
    spectrahedron_factory,
    sphere_factory,
    stiefel_factory,
)
from .problem import (
    CacheStore,
    ProblemDef,
    approx_hessian_fd,
    check_problem,
    get_cost,
    get_gradient,
    get_hessian,
    hessian_at,
)
from .solvers import (
    IterationRecord,
    RunResult,
    SolverOptions,
    conjugate_gradient,
    history_to_csv,
    shared_stopping,
    steepest_descent,
    tcg_subsolver,
    trust_regions,
)
from .diagnostics import (
    SlopeReport,
    check_gradient,
    check_hessian,
    export_slope_csv,
    fit_loglog_slope,
)

__version__ = "0.1.0"

__all__ = [
    "ManifoldDescriptor",
    "sphere_factory",
    "oblique_factory",
    "stiefel_factory",
    "grassmann_factory",
    "rotations_factory",
    "fixed_rank_factory",
    "elliptope_factory",
    "spectrahedron_factory",
    "euclidean_factory",
    "product_factory",
    "ProblemDef",
    "CacheStore",
    "get_cost",
    "get_gradient",
    "get_hessian",
    "hessian_at",
    "approx_hessian_fd",
    "check_problem",
    "SolverOptions",
    "IterationRecord",
    "RunResult",
    "steepest_descent",
    "conjugate_gradient",
    "trust_regions",
    "tcg_subsolver",
    "shared_stopping",
    "history_to_csv",
    "SlopeReport",
    "check_gradient",
    "check_hessian",
    "export_slope_csv",
    "fit_loglog_slope",
]
