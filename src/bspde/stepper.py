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
straight into LAPACK band storage and is LU-factored with dgbtrf.  When no
coefficient depends on t the system is the same at every level: it is
assembled and factored once per (grid, coefficients), and the last such
factor is kept, so repeated sweeps of one problem reuse it.  Otherwise each
level is assembled once per (grid, coefficients) and its bands are kept for
every later sweep of the same problem (the last problem's levels are kept);
only the bands that are nonzero at some node are stored, which is 3 doubles
per node per level in 1-D, 5 in 2-D without a mixed term and 9 with one.
The LU is still computed per level per sweep, since keeping every level's
factor would hold (3w + 1) doubles per node per level.

Each step is one dgbtrs call on one right-hand side.  The sup-norm residual
|rhs - A x| is checked once per run of steps that share a factor (the whole
sweep, or one level), from the same bands.  For n nodes a factorisation
costs O(n w^2) time and (3w + 1) n doubles (1.5 MB at 41 x 41, but about
400 MB at 257 x 257, where a Krylov solve needs O(n)), and a step costs
O(n w).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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


class _Level(NamedTuple):
    """(I - dt*A_h) at one time level, assembled but not factored."""

    bands: dict[int, np.ndarray]  # flat offset k -> row-indexed entries M[p, p + k]
    w: int  # half-bandwidth of the stencil, whichever bands are stored
    worst_positive_offdiag: float


def _assemble(grid: Grid, coeffs: CoefficientSet, t: float) -> _Level:
    """(I - dt*A_h) at time t, every band of the stencil included."""
    shape = grid.interior_shape
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
    bands = {0: (1.0 - dt * diag_A).ravel()}
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
        bands[k] = bands.get(k, 0.0) + band.ravel()  # distinct offsets may share k
    return _Level(bands, max(abs(k) for k in bands), worst)


class _System:
    """(I - dt*A_h) at one time level, LU-factored in LAPACK band storage."""

    def __init__(self, grid: Grid, coeffs: CoefficientSet, t: float):
        self._factor(_assemble(grid, coeffs, t), grid.n_interior, t)

    @classmethod
    def from_level(cls, level: _Level, n: int, t: float) -> _System:
        """Factor an assembled level of n nodes at time t."""
        system = cls.__new__(cls)
        system._factor(level, n, t)
        return system

    def _factor(self, level: _Level, n: int, t: float) -> None:
        self.bands, self.w, self.worst_positive_offdiag = level
        ab = np.zeros((3 * self.w + 1, n), order="F")
        # (entries, rows, cols) per band, in band order, for the residual
        self._terms = []
        for k, entries in self.bands.items():
            rows, cols = _span(k, n)
            ab[2 * self.w - k, cols] = entries[rows]
            self._terms.append((entries[rows], rows, cols))
        self.lu, self.piv, info = dgbtrf(ab, self.w, self.w, overwrite_ab=1)
        if info != 0:
            raise LinearSolveError(f"singular system at t = {t:.6g} (dgbtrf info {info})")
        # the factor may be shared through _factored; dgbtrs only reads it
        self.lu.flags.writeable = False
        self.piv.flags.writeable = False

    def solve(self, b: np.ndarray) -> None:
        """Overwrite b (a contiguous float64 vector, so LAPACK works on it in
        place) with the solution x of M x = b."""
        _, info = dgbtrs(self.lu, self.w, self.w, b, self.piv, overwrite_b=1)
        if info != 0:
            raise LinearSolveError(f"banded linear solve failed (dgbtrs info {info})")

    def residual(self, rhs: np.ndarray, x: np.ndarray) -> float:
        """sup |rhs - M x| over a block of steps, one step per row."""
        r = rhs.copy()
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: reported below
            for entries, rows, cols in self._terms:
                r[:, rows] -= entries * x[:, cols]
        res = float(np.max(np.abs(r)))
        if not np.isfinite(res):
            raise LinearSolveError(f"banded linear solve failed (residual {res})")
        return res


@functools.lru_cache(maxsize=1)
def _factored(grid: Grid, coeffs: CoefficientSet) -> _System:
    """The system of t-independent coefficients, the same at every level.
    Keyed on the values of the frozen grid and coefficient set."""
    return _System(grid, coeffs, 0.0)


@functools.lru_cache(maxsize=1)
def _levels(grid: Grid, coeffs: CoefficientSet) -> list[_Level | None]:
    """The level store of t-dependent coefficients: entry k is the level at
    t = k dt once a sweep has assembled it, else None.  Keyed on the values
    of the frozen grid and coefficient set."""
    return [None] * grid.nt


def _stored(levels: list[_Level | None], grid: Grid, coeffs: CoefficientSet, k: int) -> _Level:
    """Level k from the store, assembled on first use with its all-zero bands
    dropped (the mixed-term bands when b12 = 0 everywhere)."""
    level = levels[k]
    if level is None:
        full = _assemble(grid, coeffs, grid.dt * k)
        bands = {j: e for j, e in full.bands.items() if np.any(e)}
        # every later sweep shares these through _System.bands and _terms
        for e in bands.values():
            e.flags.writeable = False
        level = levels[k] = full._replace(bands=bands)
    return level


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

    n = grid.n_interior
    u = np.empty((s + 1, n))
    u[s] = terminal.values.ravel()
    # rhs of step k: u^{k+1} + dt*source^k
    src = None if source is None else grid.dt * source.values[:s].reshape(s, n)
    worst_offdiag = 0.0
    max_resid = 0.0
    # runs of levels lo..hi-1 that share one system, last run first
    time_dep = coeffs.is_time_dependent
    runs = ((k, k + 1) for k in range(s - 1, -1, -1)) if time_dep else [(0, s)]
    levels = _levels(grid, coeffs) if time_dep else None  # looked up once: hashing is not free
    for lo, hi in runs:
        if not time_dep:
            system = _factored(grid, coeffs)
        else:
            system = _System.from_level(_stored(levels, grid, coeffs, lo), n, grid.dt * lo)
        worst_offdiag = max(worst_offdiag, system.worst_positive_offdiag)
        for k in range(hi - 1, lo - 1, -1):
            if src is None:
                u[k] = u[k + 1]
            else:
                np.add(u[k + 1], src[k], out=u[k])
            system.solve(u[k])
        rhs = u[lo + 1 : hi + 1] if src is None else u[lo + 1 : hi + 1] + src[lo:hi]
        max_resid = max(max_resid, system.residual(rhs, u[lo:hi]))

    out = SpaceTimeField(grid, u.reshape((s + 1,) + grid.interior_shape))
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
