"""Backward parabolic equations on a box with homogeneous Dirichlet walls and
a non-local terminal condition, solved by Picard iteration on the terminal
value, with Monte-Carlo path verification and an analytic contraction bound."""

from .coefficients import (
    CoefficientBounds,
    CoefficientSet,
    EllipticityReport,
    bounds,
    validate,
)
from .exprdsl import EvalError, Expr, ExprError, evaluate, parse
from .fixedpoint import (
    FeedbackMatrix,
    FixedPointDivergence,
    FixedPointReport,
    NonlocalProblem,
    NonlocalSolution,
    assemble_feedback_matrix,
    solve_nonlocal,
    solve_nonlocal_direct,
)
from .grid import (
    Domain,
    Grid,
    GridError,
    SpaceField,
    SpaceTimeField,
    field_to_csv,
    make_grid,
    sup_norm,
)
from .montecarlo import (
    ComparisonRow,
    ConfinementBound,
    McEstimate,
    PathConfig,
    compare_mc_pde,
    confinement_bound,
    confinement_probability,
    feynman_kac,
)
from .nonlocal_ops import (
    Convex,
    InitialValue,
    KernelEntries,
    NonlocalValidationError,
    PointInTime,
    SpaceTimeKernel,
    TimeKernel,
    TwoPoint,
    kernel_from_csv,
)
from .stepper import CauchyProblem, SolveOutput, solve_terminal

__version__ = "0.1.0"

__all__ = [
    "CauchyProblem",
    "CoefficientBounds",
    "CoefficientSet",
    "ComparisonRow",
    "ConfinementBound",
    "Convex",
    "Domain",
    "EllipticityReport",
    "EvalError",
    "Expr",
    "ExprError",
    "FeedbackMatrix",
    "FixedPointDivergence",
    "FixedPointReport",
    "Grid",
    "GridError",
    "InitialValue",
    "KernelEntries",
    "McEstimate",
    "NonlocalProblem",
    "NonlocalSolution",
    "NonlocalValidationError",
    "PathConfig",
    "PointInTime",
    "SolveOutput",
    "SpaceField",
    "SpaceTimeField",
    "SpaceTimeKernel",
    "TimeKernel",
    "TwoPoint",
    "assemble_feedback_matrix",
    "bounds",
    "compare_mc_pde",
    "confinement_bound",
    "confinement_probability",
    "evaluate",
    "feynman_kac",
    "field_to_csv",
    "kernel_from_csv",
    "make_grid",
    "parse",
    "solve_nonlocal",
    "solve_nonlocal_direct",
    "solve_terminal",
    "sup_norm",
    "validate",
]
