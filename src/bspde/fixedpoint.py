"""Picard iteration on the terminal value for the non-local problem, plus a
dense direct solve used as a desk-scale oracle.

The terminal condition u(.,T) = terminal_rhs + (non-local functional of u)
is the affine fixed point Phi = r + Q Phi of the terminal map, where
r = terminal_rhs + G(source response), Q Phi = G(terminal response of Phi)
and G is the validated non-local map.  Picard iterates the map, the feedback
matrix is Q applied to each basis field, and the direct solve solves
(I - Q) Phi = r with it; all three evaluate the map through `_TerminalMap`.
Because G is a discrete contraction composed with a max-principle-bounded
solve, the iteration converges geometrically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid import Grid, GridError, SpaceField, SpaceTimeField, sup_norm
from .nonlocal_ops import NonlocalSpec, _compile
from .stepper import source_response, terminal_response

DENSE_CAP = 2000  # most interior nodes the dense feedback matrix is built for


class FixedPointDivergence(RuntimeError):
    """Residual ratios stayed >= 1 for five consecutive iterations."""

    def __init__(self, message: str, report: "FixedPointReport"):
        super().__init__(message)
        self.report = report


@dataclass
class FixedPointReport:
    iterations: int
    residuals: tuple[float, ...]
    ratios: tuple[float, ...]
    converged: bool
    bc_residual: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class NonlocalSolution:
    u: SpaceTimeField
    terminal: SpaceField
    report: FixedPointReport


class _TerminalMap:
    """The affine terminal map Phi -> r + Q Phi on interior values.  The
    coupling is compiled and the source response swept once; `q` is the only
    place that applies Q.  Without source and terminal_rhs, r is zero."""

    def __init__(
        self,
        grid: Grid,
        coeffs,
        spec: NonlocalSpec,
        source: SpaceTimeField | None = None,
        terminal_rhs: SpaceField | None = None,
    ):
        self.grid, self.coeffs, self.compiled = grid, coeffs, _compile(spec, grid)
        zeros = np.zeros(grid.interior_shape)
        self.u_src = source_response(grid, coeffs, source) if source is not None else None
        self.terminal_rhs = terminal_rhs.values if terminal_rhs is not None else zeros
        self.r = self.terminal_rhs + (self.compiled.apply(self.u_src).values if source is not None else zeros)

    def q(self, phi: np.ndarray) -> np.ndarray:
        """Q phi: one terminal sweep from phi, then one coupling application."""
        return self.compiled.apply(terminal_response(self.grid, self.coeffs, SpaceField(self.grid, phi))).values

    def solution(self, phi: np.ndarray, residuals=(), ratios=(), converged: bool = True) -> NonlocalSolution:
        """The solution for terminal value phi: its terminal response plus the
        source response, with the boundary-condition residual recomputed
        independently of how phi was found."""
        terminal_field = SpaceField(self.grid, phi)
        u_term = terminal_response(self.grid, self.coeffs, terminal_field)
        u = u_term if self.u_src is None else SpaceTimeField(self.grid, self.u_src.values + u_term.values)
        bc = u.values[-1] - self.compiled.apply(u).values - self.terminal_rhs
        report = FixedPointReport(
            iterations=len(residuals),
            residuals=tuple(residuals),
            ratios=tuple(ratios),
            converged=converged,
            bc_residual=float(np.max(np.abs(bc))) if bc.size else 0.0,
        )
        return NonlocalSolution(u=u, terminal=terminal_field, report=report)


def solve_nonlocal(
    grid: Grid,
    coeffs,
    source: SpaceTimeField | None,
    terminal_rhs: SpaceField,
    spec: NonlocalSpec,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> NonlocalSolution:
    """Picard iteration starting from Phi_0 = terminal_rhs.

    Each iteration is one evaluation of the fixed-point map.  Convergence is
    declared when the iterate difference drops to tol; the first iteration may
    declare it only for the exactly-zero fixed point, so any nonzero problem
    gets at least one confirming pass.  The boundary-condition residual of the
    assembled solution is recomputed independently and reported.  Raises
    FixedPointDivergence after five consecutive non-contracting ratios; hitting
    max_iter returns an unconverged report instead.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    fmap = _TerminalMap(grid, coeffs, spec, source, terminal_rhs)

    phi = terminal_rhs.values
    residuals: list[float] = []
    ratios: list[float] = []
    converged = False
    for m in range(1, max_iter + 1):
        phi_new = fmap.r + fmap.q(phi)
        res = float(np.max(np.abs(phi_new - phi)))
        residuals.append(res)
        if m >= 2 and residuals[-2] > 0:
            ratios.append(res / residuals[-2])
            if len(ratios) >= 5 and all(r >= 1.0 for r in ratios[-5:]):
                report = FixedPointReport(m, tuple(residuals), tuple(ratios), False, float("nan"))
                raise FixedPointDivergence(
                    "fixed-point iteration is not contracting (five consecutive "
                    "residual ratios >= 1); the discrete non-local operator norm "
                    "likely reaches 1",
                    report,
                )
        phi = phi_new
        if res <= tol and (m >= 2 or (res == 0.0 and not np.any(phi))):
            converged = True
            break

    return fmap.solution(phi, residuals, ratios, converged)


@dataclass
class FeedbackMatrix:
    """Dense matrix of Phi -> nonlocal(terminal response of Phi) over interior nodes."""

    matrix: np.ndarray
    sup_norm: float  # max absolute row sum


def assemble_feedback_matrix(grid: Grid, coeffs, spec: NonlocalSpec) -> FeedbackMatrix:
    """Column j is Q applied to the j-th canonical basis field.

    Refuses grids with more than DENSE_CAP interior nodes; the matrix is dense.
    """
    n = grid.n_interior
    if n > DENSE_CAP:
        raise GridError(f"{n} interior nodes exceed the dense-matrix cap {DENSE_CAP}")
    fmap = _TerminalMap(grid, coeffs, spec)
    Q = np.empty((n, n))
    basis = np.zeros(grid.interior_shape)
    flat = basis.ravel()
    for j in range(n):
        flat[j] = 1.0
        Q[:, j] = fmap.q(basis).ravel()  # the sweep copies basis into its own levels
        flat[j] = 0.0
    return FeedbackMatrix(matrix=Q, sup_norm=float(np.max(np.sum(np.abs(Q), axis=1))))


def solve_nonlocal_direct(
    grid: Grid,
    coeffs,
    source: SpaceTimeField | None,
    terminal_rhs: SpaceField,
    spec: NonlocalSpec,
) -> NonlocalSolution:
    """Solve (I - Q) Phi = r of the terminal map by dense elimination on the
    feedback matrix Q; the oracle counterpart of solve_nonlocal."""
    fmap = _TerminalMap(grid, coeffs, spec, source, terminal_rhs)
    fm = assemble_feedback_matrix(grid, coeffs, spec)
    try:
        phi = np.linalg.solve(np.eye(grid.n_interior) - fm.matrix, fmap.r.ravel())
    except np.linalg.LinAlgError as e:
        raise RuntimeError(
            f"I minus the feedback matrix is numerically singular (its sup norm is "
            f"{fm.sup_norm:.6g}, so an operator with norm >= 1 slipped through validation)"
        ) from e
    return fmap.solution(phi.reshape(grid.interior_shape))
