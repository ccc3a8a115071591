"""Backward-in-time implicit finite differences on the box.

Marches t from the terminal level down to 0, each step solving
(I - dt*A_h(t_k)) u^k = u^{k+1} + dt*source^k.  With u = 0 outside the
interior nodes and e_a the unit step along axis a, A_h at node p is

    sum_a [ (b_aa/h_a^2 + max(f_a, 0)/h_a) u(p + e_a)
          + (b_aa/h_a^2 + max(-f_a, 0)/h_a) u(p - e_a)
          - (2 b_aa/h_a^2 + |f_a|/h_a) u(p) ]
    + b_12/(2 h_1 h_2) [u(p+e_1+e_2) + u(p-e_1-e_2) - u(p+e_1-e_2) - u(p-e_1+e_2)]
    + lam u(p),

i.e. central second differences for the diagonal diffusion, the 4-point
cross stencil for the mixed term (2-D only), first-order upwind for the
drift, and the zeroth-order coefficient on the diagonal.  With no mixed term
and lam <= 0 the system matrix is an M-matrix, so the discrete solution obeys
the maximum principle sup|u| <= sup|terminal| + duration*sup|source|.

Nodes are numbered lexicographically (last axis fastest), so each stencil
offset is a fixed flat offset and the matrix is banded, with half-bandwidth
w = 1 in 1-D and w = m2 + 1 in 2-D (m2 interior nodes along axis 2).  It goes
straight into LAPACK band storage, is LU-factored with dgbtrf once per
distinct level of a sweep (once per sweep unless a coefficient depends on t)
and solved per step with dgbtrs; each step's sup-norm residual |rhs - A x|
comes from the same bands.  For n nodes a factorisation costs O(n w^2) time
and (3w + 1) n doubles (1.5 MB at 41 x 41, but about 400 MB at 257 x 257,
where a Krylov solve needs O(n)), and a step costs O(n w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .coefficients import CoefficientSet
from .grid import Grid, SpaceField, SpaceTimeField, sup_norm


class LinearSolveError(RuntimeError):
    pass


@dataclass
class SolveDiagnostics:
    monotone: bool
    worst_positive_offdiag: float  # of (I - dt*A_h); 0 when the scheme is monotone
    max_principle_slack: float  # bound minus achieved sup; negative = violated
    max_linear_residual: float


@dataclass
class SolveOutput:
    u: SpaceTimeField  # levels 0..level
    diagnostics: SolveDiagnostics


def _span(k: int, n: int) -> tuple[slice, slice]:
    """Rows p and columns p + k of the entries on flat diagonal k of an n x n matrix."""
    return slice(max(-k, 0), n - max(k, 0)), slice(max(k, 0), n + min(k, 0))


class _System:
    """(I - dt*A_h) at one time level, LU-factored in LAPACK band storage."""

    def __init__(self, grid: Grid, coeffs: CoefficientSet, t: float):
        shape = grid.interior_shape
        n = grid.n_interior
        dt = grid.dt
        pts = grid.interior_points()
        b = coeffs.b_at(pts, t).reshape(shape + (grid.dim, grid.dim))
        f = coeffs.f_at(pts, t).reshape(shape + (grid.dim,))
        diag_A = coeffs.lam_at(pts, t).reshape(shape)
        # offset -> A-coefficient array (value multiplying u at node+offset)
        stencil = {}
        for a, h in enumerate(grid.hx):
            e = np.eye(grid.dim, dtype=int)[a]
            baa = b[..., a, a] / h**2
            stencil[tuple(e)] = baa + np.maximum(f[..., a], 0.0) / h
            stencil[tuple(-e)] = baa + np.maximum(-f[..., a], 0.0) / h
            diag_A = diag_A - 2.0 * baa - np.abs(f[..., a]) / h
        if grid.dim == 2:
            cross = b[..., 0, 1] / (2.0 * grid.hx[0] * grid.hx[1])
            stencil.update({(1, 1): cross, (-1, -1): cross, (1, -1): -cross, (-1, 1): -cross})

        strides = [int(np.prod(shape[a + 1 :])) for a in range(grid.dim)]
        # flat offset k -> row-indexed entries M[p, p + k], zero where node p lacks that neighbour
        self.bands = {0: (1.0 - dt * diag_A).ravel()}
        worst = 0.0
        for off, coef in stencil.items():
            has = tuple(slice(max(0, -o), m - max(0, o)) for o, m in zip(off, shape))
            vals = -dt * coef[has]
            if not vals.size:
                continue  # no node has this neighbour; its flat offset may be another one's
            worst = max(worst, float(np.max(vals)))
            band = np.zeros(shape)
            band[has] = vals
            k = int(np.dot(off, strides))
            self.bands[k] = self.bands.get(k, 0.0) + band.ravel()  # distinct offsets may share k
        self.worst_positive_offdiag = worst

        self.w = max(abs(k) for k in self.bands)
        ab = np.zeros((3 * self.w + 1, n), order="F")
        for k, entries in self.bands.items():
            rows, cols = _span(k, n)
            ab[2 * self.w - k, cols] = entries[rows]
        self.lu, self.piv, info = dgbtrf(ab, self.w, self.w, overwrite_ab=1)
        if info != 0:
            raise LinearSolveError(f"singular system at t = {t:.6g} (dgbtrf info {info})")

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        x, info = dgbtrs(self.lu, self.w, self.w, rhs, self.piv)
        r = rhs.copy()
        for k, entries in self.bands.items():
            rows, cols = _span(k, rhs.size)
            r[rows] -= entries[rows] * x[cols]
        res = float(np.max(np.abs(r)))
        if info != 0 or not np.isfinite(res):
            raise LinearSolveError(f"banded linear solve failed (dgbtrs info {info}, residual {res})")
        return x, res


def solve_terminal(
    grid: Grid,
    coeffs: CoefficientSet,
    source: SpaceTimeField | None = None,
    terminal: SpaceField | None = None,
    level: int | None = None,
) -> SolveOutput:
    """March the backward problem from time level `level` (default nt) to 0.

    source may be None (zero) or a space-time field covering levels 0..level;
    terminal None means zero terminal data.  Returns the solution on levels
    0..level together with monotonicity / maximum-principle diagnostics.
    """
    s = grid.nt if level is None else int(level)
    if not 0 < s <= grid.nt:
        raise ValueError(f"terminal level must be in 1..{grid.nt}, got {s}")
    if terminal is None:
        terminal = SpaceField.zeros(grid)
    if source is not None and source.n_levels < s + 1:
        raise ValueError("source field does not cover levels 0..level")

    shape = grid.interior_shape
    u = np.empty((s + 1,) + shape)
    u[s] = terminal.values
    worst_offdiag = 0.0
    max_resid = 0.0
    system = None
    time_dep = coeffs.is_time_dependent
    for k in range(s - 1, -1, -1):
        if system is None or time_dep:
            system = _System(grid, coeffs, grid.dt * k)
            worst_offdiag = max(worst_offdiag, system.worst_positive_offdiag)
        rhs = u[k + 1].ravel().copy()
        if source is not None:
            rhs += grid.dt * source.values[k].ravel()
        x, resid = system.solve(rhs)
        max_resid = max(max_resid, resid)
        u[k] = x.reshape(shape)

    out = SpaceTimeField(grid, u)
    duration = grid.dt * s
    bound = sup_norm(terminal) + duration * (sup_norm(source) if source is not None else 0.0)
    diags = SolveDiagnostics(
        monotone=worst_offdiag <= 0.0,
        worst_positive_offdiag=worst_offdiag,
        max_principle_slack=bound - sup_norm(out),
        max_linear_residual=max_resid,
    )
    return SolveOutput(u=out, diagnostics=diags)


def source_response(grid: Grid, coeffs: CoefficientSet, source: SpaceTimeField) -> SpaceTimeField:
    """Backward solve with zero terminal data (response to the source alone)."""
    return solve_terminal(grid, coeffs, source=source).u


def terminal_response(grid: Grid, coeffs: CoefficientSet, terminal: SpaceField) -> SpaceTimeField:
    """Backward solve with zero source (response to the terminal data alone)."""
    return solve_terminal(grid, coeffs, terminal=terminal).u
