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
straight into LAPACK band storage and is LU-factored with dgbtrf.  dgbtrf
and dgbtrs are loaded from scipy's compiled wrappers alone (`_band_lu`),
because the public `scipy.linalg.lapack` import runs the whole `scipy.linalg`
package import: about 85 modules, 0.1 s and 25 MB, most of `import bspde.cli`.

A sweep solves one `CauchyProblem`: coefficients on a grid, and a source
and terminal data on that grid.

Every Picard iteration, feedback-matrix column and oracle solve sweeps the
same problem again, so the last (grid, coefficients) problem keeps one
store.  It has one slot per distinct level: one when no coefficient depends
on t, since the system is then the same at every level, else nt.  A slot
keeps its assembled level, with only the bands that are nonzero at some
node: 3 doubles per node in 1-D, 5 in 2-D without a mixed term and 9 with
one.  The store also keeps the factor of the last slot it served, (3w + 1)
doubles per node (on a 33 x 33 grid with nt = 40: 1.5 MB of levels and a
0.75 MB factor).  So a t-independent problem is factored once per process,
and a t-dependent sweep factors every level.

Each step is one dgbtrs call on one right-hand side.  The sup-norm residual
|rhs - A x| is checked once per run of steps that share a factor (the whole
sweep, or one level), from the same bands.  For n nodes a factorisation
costs O(n w^2) time and (3w + 1) n doubles (1.5 MB at 41 x 41, but about
400 MB at 257 x 257, where a Krylov solve needs O(n)), and a step costs
O(n w).
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from typing import NamedTuple

import numpy as np

from .coefficients import CoefficientSet
from .grid import Grid, SpaceField, SpaceTimeField, sup_norm


def _band_lu():
    """dgbtrf and dgbtrs from scipy.linalg._flapack, loaded from its file and
    registered under its name, so a later `import scipy.linalg` reuses it.  The
    module has lived at scipy/linalg/_flapack<extension suffix> from scipy 1.10
    to 1.17; where that file is missing or does not load, the public import
    serves the same routines."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        # find_spec locates the scipy package without importing it
        roots = getattr(importlib.util.find_spec("scipy"), "submodule_search_locations", None) or []
        files = (os.path.join(root, "linalg", "_flapack" + suffix) for root in roots for suffix in EXTENSION_SUFFIXES)
        path = next((f for f in files if os.path.isfile(f)), None)
        try:
            if path is None:
                raise ImportError(f"no {name} file")
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except (ImportError, OSError):
            from scipy.linalg.lapack import dgbtrf, dgbtrs

            return dgbtrf, dgbtrs
        sys.modules[name] = module
    return sys.modules[name].dgbtrf, sys.modules[name].dgbtrs


dgbtrf, dgbtrs = _band_lu()


class LinearSolveError(RuntimeError):
    pass


class SolutionRangeError(LinearSolveError):
    """A solve from finite data overflowed: the data are too large for doubles."""


@dataclass(frozen=True)
class CauchyProblem:
    """The backward problem on a grid: coefficients, and a source and
    terminal data on that grid (None is zero)."""

    grid: Grid
    coeffs: CoefficientSet
    source: SpaceTimeField | None = None
    terminal: SpaceField | None = None

    def __post_init__(self):
        for name, f in (("source", self.source), ("terminal", self.terminal)):
            if f is not None and f.grid != self.grid:
                raise ValueError(f"the {name} field lies on another grid")


@dataclass
class SolveDiagnostics:
    monotone: bool
    worst_positive_offdiag: float  # of (I - dt*A_h); 0 when the scheme is monotone
    # bound minus achieved sup, negative = violated; None when the bound overflows
    max_principle_slack: float | None
    max_linear_residual: float


@dataclass
class SolveOutput:
    u: SpaceTimeField  # levels 0..nt
    diagnostics: SolveDiagnostics


def _span(k: int, n: int) -> tuple[slice, slice]:
    """Rows p and columns p + k of the entries on flat diagonal k of an n x n matrix."""
    return slice(max(-k, 0), n - max(k, 0)), slice(max(k, 0), n + min(k, 0))


class _Level(NamedTuple):
    """(I - dt*A_h) at one time level, assembled but not factored."""

    bands: dict[int, np.ndarray]  # flat offset k -> row-indexed entries M[p, p + k], read-only
    w: int  # half-bandwidth of the stencil, whichever bands are stored
    worst_positive_offdiag: float


def _assemble(grid: Grid, coeffs: CoefficientSet, t: float) -> _Level:
    """(I - dt*A_h) at time t, without the bands that are zero at every node
    (the mixed-term bands when b12 = 0 everywhere)."""
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
    # every sweep that the store serves shares these through _System.bands and _terms
    kept = {k: e for k, e in bands.items() if np.any(e)}
    for e in kept.values():
        if not np.isfinite(e).all():  # a sweep assembles with overflow warnings off
            raise LinearSolveError(f"the step matrix at t = {t:.6g} is not finite")
        e.flags.writeable = False
    return _Level(kept, max(abs(k) for k in bands), worst)


class _System:
    """(I - dt*A_h) at one time level, LU-factored in LAPACK band storage."""

    def __init__(self, level: _Level, n: int, t: float):
        """Factor an assembled level of n nodes at time t."""
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
        # the store may serve the factor to many sweeps; dgbtrs only reads it
        self.lu.flags.writeable = False
        self.piv.flags.writeable = False

    def solve(self, b: np.ndarray) -> None:
        """Overwrite b (a contiguous float64 vector, so LAPACK works on it in
        place) with the solution x of M x = b."""
        _, info = dgbtrs(self.lu, self.w, self.w, b, self.piv, overwrite_b=1)
        if info != 0:
            raise LinearSolveError(f"banded linear solve failed (dgbtrs info {info})")

    def residual(self, rhs: np.ndarray, x: np.ndarray, *data: np.ndarray) -> float:
        """sup |rhs - M x| over a block of steps, one step per row, where rhs
        is computed from the arrays `data`, one row per step as well.  Should
        M x overflow, x being near the float range, it is computed again as
        2**e sup |2**-e rhs - M 2**-e x| with sup |2**-e x| in [0.5, 1),
        which is exact for normal doubles.  A step whose data are finite and
        whose x is not, the rhs or the solve having overflowed, raises
        SolutionRangeError."""
        res = self._sup_residual(rhs, x)
        if not np.isfinite(res) and np.isfinite(x).all():
            e = math.frexp(float(np.max(np.abs(x))))[1]
            with np.errstate(over="ignore"):
                res = float(np.ldexp(self._sup_residual(np.ldexp(rhs, -e), np.ldexp(x, -e)), e))
        if not np.isfinite(res):
            finite_data = np.logical_and.reduce([np.isfinite(d).all(axis=1) for d in data])
            if np.any(~np.isfinite(x).all(axis=1) & finite_data):
                raise SolutionRangeError("a backward step from finite data overflows: the data are too large")
            raise LinearSolveError(f"banded linear solve failed (residual {res})")
        return res

    def _sup_residual(self, rhs: np.ndarray, x: np.ndarray) -> float:
        """sup |rhs - M x| as computed: inf or nan once M x overflows."""
        r = rhs.copy()
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: reported by residual
            for entries, rows, cols in self._terms:
                r[:, rows] -= entries * x[:, cols]
        return float(np.max(np.abs(r)))


class _Store:
    """The systems of one (grid, coefficients) problem: slot j is the level at
    t = j dt, and the only slot when no coefficient depends on t."""

    def __init__(self, grid: Grid, coeffs: CoefficientSet):
        self.grid, self.coeffs = grid, coeffs
        self.slots: list[_Level | None] = [None] * (grid.nt if coeffs.is_time_dependent else 1)
        self.last: tuple[int, _System] | None = None  # the slot served last, factored

    def system(self, j: int) -> _System:
        """Slot j factored, assembled on first use and factored unless it was
        the slot served last."""
        if self.last is None or self.last[0] != j:
            t = self.grid.dt * j
            if self.slots[j] is None:
                self.slots[j] = _assemble(self.grid, self.coeffs, t)
            self.last = (j, _System(self.slots[j], self.grid.n_interior, t))
        return self.last[1]


@functools.lru_cache(maxsize=1)
def _store(grid: Grid, coeffs: CoefficientSet) -> _Store:
    """The store of the last problem swept, keyed on the values of the frozen
    grid and coefficient set."""
    return _Store(grid, coeffs)


def solve_terminal(problem: CauchyProblem) -> SolveOutput:
    """March the backward problem from the terminal level nt down to 0.

    Returns the solution on levels 0..nt together with monotonicity /
    maximum-principle diagnostics.
    """
    grid, coeffs, source = problem.grid, problem.coeffs, problem.source
    terminal = problem.terminal if problem.terminal is not None else SpaceField.zeros(grid)

    nt, n = grid.nt, grid.n_interior
    u = np.empty((nt + 1, n))
    u[nt] = terminal.values.ravel()
    raw = None if source is None else source.values[:nt].reshape(nt, n)
    worst_offdiag = 0.0
    max_resid = 0.0
    store = _store(grid, coeffs)  # looked up once: hashing is not free
    # runs of levels lo..hi-1 that share one slot (slot lo), last run first
    width = nt if len(store.slots) == 1 else 1
    # an rhs that overflows from finite data is reported by residual
    with np.errstate(over="ignore", invalid="ignore"):
        # rhs of step k: u^{k+1} + dt*source^k
        src = None if raw is None else grid.dt * raw
        for hi in range(nt, 0, -width):
            lo = hi - width
            system = store.system(lo)
            worst_offdiag = max(worst_offdiag, system.worst_positive_offdiag)
            for k in range(hi - 1, lo - 1, -1):
                if src is None:
                    u[k] = u[k + 1]
                else:
                    np.add(u[k + 1], src[k], out=u[k])
                system.solve(u[k])
            prev = u[lo + 1 : hi + 1]
            if src is None:
                max_resid = max(max_resid, system.residual(prev, u[lo:hi], prev))
            else:
                max_resid = max(max_resid, system.residual(prev + src[lo:hi], u[lo:hi], prev, raw[lo:hi]))

    out = SpaceTimeField(grid, u.reshape((nt + 1,) + grid.interior_shape))
    bound = sup_norm(terminal) + grid.dt * nt * (sup_norm(source) if source is not None else 0.0)
    diags = SolveDiagnostics(
        monotone=worst_offdiag <= 0.0,
        worst_positive_offdiag=worst_offdiag,
        max_principle_slack=bound - sup_norm(out) if math.isfinite(bound) else None,
        max_linear_residual=max_resid,
    )
    return SolveOutput(u=out, diagnostics=diags)
