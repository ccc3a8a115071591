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
on t, since the system is then the same at every level, else nt.  The store
assembles every slot when it is built, a chunk of levels at a time
(`grid.sample_levels`): one evaluation of b, f and lam per chunk, at every
interior node of every level in it, each with its own t.  Each band is one
read-only (nslots, n) array whose row j is slot j's entries.  A band is
kept when it is nonzero at some node of some slot, and holds zeros at a slot
where it is zero at every node: 3 doubles per node and slot in 1-D, 5 in
2-D without a mixed term and 9 with one.  `grid.MAX_SOLVE_DOUBLES` counts
these with the solution and the factor, and a store over the limit is
refused before anything is allocated.  The store also keeps the factor of
the last slot it served, (3w + 1) doubles per node (on a 33 x 33 grid with
nt = 40: 1.5 MB of bands and a 0.75 MB factor).  So a t-independent problem
is factored once per process, and a t-dependent sweep factors every level.

The half-bandwidth w stays m2 + 1 in 2-D when no mixed term is stored, and
the outermost stored band is m2 from the diagonal: on the 33 x 33 grid,
dgbtrf with kl = ku = 31 instead of 32 left its blocked path, 0.35 -> 0.52
ms per factor, for the same bits of the solution.

Each step is one dgbtrs call on one right-hand side.  The sup-norm residual
|rhs - M x| is checked once per sweep, over every step, each step against
the bands of its own slot (in chunks of steps, as the levels are
assembled).  For n nodes a factorisation costs O(n w^2) time and
(3w + 1) n doubles (1.5 MB at 41 x 41, but about 400 MB at 257 x 257, where
a Krylov solve needs O(n)), and a step costs O(n w).
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .coefficients import CoefficientSet
from .exprdsl import Num
from .grid import Grid, SpaceField, SpaceTimeField, level_chunks, sample_levels, sup_norm


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


def _bands(grid: Grid, coeffs: CoefficientSet, pts: np.ndarray, t) -> tuple[dict[int, np.ndarray], float]:
    """(I - dt*A_h) at nlev levels, from the interior points `pts` of every
    level, level-major, and their times t: flat offset k -> (nlev, n) entries
    M[p, p + k] of each level, zero where node p lacks that neighbour, for
    every k that some node has, and the largest off-diagonal entry."""
    nlev = len(pts) // grid.n_interior
    shape = (nlev,) + grid.interior_shape
    dt = grid.dt
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

    strides = [int(np.prod(grid.interior_shape[a + 1 :])) for a in range(grid.dim)]
    bands = {0: (1.0 - dt * diag_A).reshape(nlev, -1)}
    worst = 0.0
    for off, coef in stencil.items():
        has = (slice(None),) + tuple(slice(max(0, -o), m - max(0, o)) for o, m in zip(off, grid.interior_shape))
        vals = -dt * coef[has]
        if not vals.size:
            continue  # no node has this neighbour; its flat offset may be another one's
        worst = max(worst, float(np.max(vals)))
        band = np.zeros(shape)
        band[has] = vals
        k = int(np.dot(off, strides))
        bands[k] = bands.get(k, 0.0) + band.reshape(nlev, -1)  # distinct offsets may share k
    return bands, worst


class _System:
    """One level of a store, LU-factored in LAPACK band storage."""

    def __init__(self, ab: np.ndarray, w: int, t: float):
        """Factor the band storage ab (overwritten) of the level at time t."""
        self.w = w
        self.lu, self.piv, info = dgbtrf(ab, w, w, overwrite_ab=1)
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


class _Store:
    """The step matrices of one (grid, coefficients) problem, assembled when
    the store is built: slot j is the level at t = j dt, and the only slot
    when no coefficient depends on t."""

    def __init__(self, grid: Grid, coeffs: CoefficientSet):
        """Assemble every slot, or refuse (GridError) a store that the solve
        could not hold with its solution and factor, before any allocation.
        A slot whose matrix is not finite is refused with the time of the
        highest such slot, the one a sweep meets first."""
        self.grid, self.n = grid, grid.n_interior
        self.nslots = grid.nt if coeffs.is_time_dependent else 1
        # the bands that the stencil can fill: 3 in 1-D, 5 in 2-D, 9 with a mixed entry
        mixed = grid.dim == 2 and not coeffs.b[0][1] == coeffs.b[1][0] == Num(0.0)
        grid.check_solve_size(self.nslots * (2 * grid.dim + 1 + 4 * mixed) * self.n)
        pts, times = grid.interior_points(), grid.dt * np.arange(self.nslots)
        stored: dict[int, np.ndarray] = {}  # k -> (nslots, n), allocated when k is first nonzero
        finite = np.ones(self.nslots, dtype=bool)
        self.worst_positive_offdiag = 0.0  # of (I - dt*A_h), over every slot
        with np.errstate(over="ignore", invalid="ignore"):  # a matrix that is not finite is refused below
            for levels, (bands, worst) in sample_levels(pts, times, functools.partial(_bands, grid, coeffs)):
                self.worst_positive_offdiag = max(self.worst_positive_offdiag, worst)
                for k, e in bands.items():
                    rows = np.any(e, axis=1)  # a level keeps only the bands nonzero at some node, NaN included
                    if rows.any():
                        if k not in stored:
                            stored[k] = np.zeros((self.nslots, self.n))
                        stored[k][levels.start : levels.stop][rows] = e[rows]
                        finite[levels.start : levels.stop] &= np.isfinite(e).all(axis=1)
        if not finite.all():
            t = self.grid.dt * int(np.flatnonzero(~finite)[-1])
            raise LinearSolveError(f"the step matrix at t = {t:.6g} is not finite")
        # every chunk has the stencil's flat offsets: w is the widest, whichever bands are stored, and the
        # stored bands, which every sweep that the store serves shares, keep their order for the residual
        self.w = max(abs(k) for k in bands)
        self.bands = {k: stored[k] for k in bands if k in stored}
        self.spans = {k: _span(k, self.n) for k in self.bands}
        for e in self.bands.values():
            e.flags.writeable = False
        self.last: tuple[int, _System] | None = None  # the slot served last, factored

    def system(self, j: int) -> _System:
        """Slot j factored, unless it was the slot served last."""
        if self.last is None or self.last[0] != j:
            w = self.w
            ab = np.zeros((3 * w + 1, self.n), order="F")
            for k, entries in self.bands.items():
                rows, cols = self.spans[k]
                ab[2 * w - k, cols] = entries[j, rows]
            self.last = (j, _System(ab, w, self.grid.dt * j))
        return self.last[1]

    def residual(self, u: np.ndarray, src: np.ndarray | None, raw: np.ndarray | None) -> float:
        """sup |rhs - M x| over every step of a sweep, each against the bands
        of its own slot: step k has x = u[k] and rhs = u[k + 1] + src[k] (src
        = dt * raw, the source).  The steps are taken a chunk at a time, the
        last chunk first, as the sweep meets them."""
        sup = 0.0
        for levels in reversed(level_chunks(len(u) - 1, self.n)):
            lo, hi = levels.start, levels.stop
            x, prev = u[lo:hi], u[lo + 1 : hi + 1]
            rhs = prev if src is None else prev + src[lo:hi]
            r = self._abs_residual(rhs, x, slice(lo, hi) if self.nslots > 1 else slice(0, 1))
            chunk = float(np.max(r))
            if not math.isfinite(chunk):
                data = (prev,) if raw is None else (prev, raw[lo:hi])
                chunk = self._rescaled(rhs, x, r, levels, *data)
            sup = max(sup, chunk)
        return sup

    def _rescaled(self, rhs: np.ndarray, x: np.ndarray, r: np.ndarray, levels: range, *data: np.ndarray) -> float:
        """sup |rhs - M x| over a chunk of steps where |r| = |rhs - M x| is not
        finite somewhere, `data` being the arrays rhs is computed from, one row
        per step.  Where M x overflows, x being near the float range, a step
        is computed again as 2**e sup |2**-e rhs - M 2**-e x| with
        sup |2**-e x| in [0.5, 1) for that step, which is exact for normal
        doubles.  A step whose data are finite and whose x is not, the rhs or
        the solve having overflowed, raises SolutionRangeError."""
        res = np.max(r, axis=1)
        redo = ~np.isfinite(res) & np.isfinite(x).all(axis=1)
        if redo.any():
            e = np.frexp(np.max(np.abs(x[redo]), axis=1))[1][:, None]
            slots = np.arange(levels.start, levels.stop)[redo] if self.nslots > 1 else slice(0, 1)
            with np.errstate(over="ignore"):
                scaled = self._abs_residual(np.ldexp(rhs[redo], -e), np.ldexp(x[redo], -e), slots)
                res[redo] = np.ldexp(np.max(scaled, axis=1), e[:, 0])
        sup = float(np.max(res))
        if not math.isfinite(sup):
            finite_data = np.logical_and.reduce([np.isfinite(d).all(axis=1) for d in data])
            if np.any(~np.isfinite(x).all(axis=1) & finite_data):
                raise SolutionRangeError("a backward step from finite data overflows: the data are too large")
            raise LinearSolveError(f"banded linear solve failed (residual {sup})")
        return sup

    def _abs_residual(self, rhs: np.ndarray, x: np.ndarray, slots) -> np.ndarray:
        """|rhs - M x| as computed, one row per step, row i against the bands
        of slot slots[i]: inf or nan once M x overflows."""
        r = rhs.copy()
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: reported by residual
            for k, entries in self.bands.items():
                rows, cols = self.spans[k]
                r[:, rows] -= entries[slots, rows] * x[:, cols]
        return np.abs(r)


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
    store = _store(grid, coeffs)  # looked up once, as hashing is not free; built or refused before any allocation
    terminal = problem.terminal if problem.terminal is not None else SpaceField.zeros(grid)

    nt, n = grid.nt, grid.n_interior
    u = np.empty((nt + 1, n))
    u[nt] = terminal.values.ravel()
    raw = None if source is None else source.values[:nt].reshape(nt, n)
    # an rhs that overflows from finite data is reported by residual
    with np.errstate(over="ignore", invalid="ignore"):
        # rhs of step k: u^{k+1} + dt*source^k
        src = None if raw is None else grid.dt * raw
        t_dependent = store.nslots > 1
        system = None if t_dependent else store.system(0)
        for k in range(nt - 1, -1, -1):
            if t_dependent:
                system = store.system(k)
            if src is None:
                u[k] = u[k + 1]
            else:
                np.add(u[k + 1], src[k], out=u[k])
            system.solve(u[k])
        max_resid = store.residual(u, src, raw)

    out = SpaceTimeField(grid, u.reshape((nt + 1,) + grid.interior_shape))
    bound = sup_norm(terminal) + grid.dt * nt * (sup_norm(source) if source is not None else 0.0)
    worst_offdiag = store.worst_positive_offdiag
    diags = SolveDiagnostics(
        monotone=worst_offdiag <= 0.0,
        worst_positive_offdiag=worst_offdiag,
        max_principle_slack=bound - sup_norm(out) if math.isfinite(bound) else None,
        max_linear_residual=max_resid,
    )
    return SolveOutput(u=out, diagnostics=diags)
