"""Operator data: diffusion matrix b, drift f, zeroth-order lam, gradient
weights beta, with uniform-ellipticity validation and the square-root
decomposition 2b = sum beta_i beta_i^T + sum btilde_j btilde_j^T that the
path simulator drives its noise with.

Entries are either plain numbers or exprdsl expressions in (x[,x2], t);
evaluation is pointwise and vectorized over node arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .exprdsl import EvalError, Expr, Num, free_variables, parse
from .grid import Grid

_BOUNDARY_ZERO_TOL = 1e-12  # |beta| allowed on the wall (floating-point zero)


class CoefficientError(ValueError):
    pass


def as_entry(v) -> Expr:
    """Normalize a number, expression string, or Expr into an Expr."""
    if isinstance(v, Expr):
        return v
    if isinstance(v, str):
        return parse(v)
    if isinstance(v, (int, float, np.integer, np.floating)):
        return Num(float(v))
    raise CoefficientError(f"coefficient entry must be a number, string, or Expr, got {type(v)!r}")


def _eval_entry(entry: Expr, env: dict, shape) -> np.ndarray:
    try:
        val = entry.eval(env)
    except EvalError as e:
        raise CoefficientError(f"coefficient evaluation failed: {e}") from e
    return np.broadcast_to(np.asarray(val, dtype=float), shape)


def _point_env(points: np.ndarray, t: float) -> dict:
    """Environment binding x/x1[/x2],t for an (npts, dim) position array."""
    dim = points.shape[1]
    env = {"t": t, "x1": points[:, 0]}
    if dim == 1:
        env["x"] = points[:, 0]
    else:
        env["x2"] = points[:, 1]
    return env


@dataclass(frozen=True)
class CoefficientSet:
    """Diffusion b (n x n, symmetric), drift f (n-vector), zeroth-order lam
    (scalar, <= 0), and N gradient-weight vectors beta_i vanishing on the wall."""

    dim: int
    b: tuple[tuple[Expr, ...], ...]
    f: tuple[Expr, ...]
    lam: Expr
    beta: tuple[tuple[Expr, ...], ...] = field(default_factory=tuple)

    @classmethod
    def create(cls, dim: int, b, f=None, lam=0.0, beta=()) -> "CoefficientSet":
        """Build from numbers / expression strings.

        b may be a scalar (isotropic), an n-vector (diagonal), or an n x n
        nested sequence; f defaults to zero; beta is a list of n-vectors.
        """
        if dim not in (1, 2):
            raise CoefficientError(f"dim must be 1 or 2, got {dim}")
        if isinstance(b, (int, float, str, Expr)):
            rows = [[b if i == j else 0.0 for j in range(dim)] for i in range(dim)]
        else:
            rows = [list(r) if isinstance(r, (list, tuple)) else [r] for r in b]
            if len(rows) == dim and all(len(r) == 1 for r in rows) and dim > 1:
                # n-vector: diagonal matrix
                rows = [[rows[i][0] if i == j else 0.0 for j in range(dim)] for i in range(dim)]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise CoefficientError(f"b must be {dim}x{dim}")
        f = [0.0] * dim if f is None else (list(f) if isinstance(f, (list, tuple)) else [f])
        if len(f) != dim:
            raise CoefficientError(f"f must have {dim} components")
        beta_rows = []
        for bi in beta:
            vec = list(bi) if isinstance(bi, (list, tuple)) else [bi]
            if len(vec) != dim:
                raise CoefficientError(f"each beta_i must have {dim} components")
            beta_rows.append(tuple(as_entry(v) for v in vec))
        return cls(
            dim=dim,
            b=tuple(tuple(as_entry(v) for v in r) for r in rows),
            f=tuple(as_entry(v) for v in f),
            lam=as_entry(lam),
            beta=tuple(beta_rows),
        )

    @property
    def n_beta(self) -> int:
        return len(self.beta)

    # ---- vectorized pointwise evaluation --------------------------------

    def b_at(self, points: np.ndarray, t: float) -> np.ndarray:
        """(npts, n, n) diffusion matrices, symmetrized from the stored entries."""
        env = _point_env(points, t)
        npts, n = points.shape[0], self.dim
        out = np.empty((npts, n, n))
        for i in range(n):
            for j in range(n):
                out[:, i, j] = _eval_entry(self.b[i][j], env, (npts,))
        return 0.5 * (out + np.transpose(out, (0, 2, 1)))

    def f_at(self, points: np.ndarray, t: float) -> np.ndarray:
        env = _point_env(points, t)
        npts = points.shape[0]
        out = np.empty((npts, self.dim))
        for i in range(self.dim):
            out[:, i] = _eval_entry(self.f[i], env, (npts,))
        return out

    def lam_at(self, points: np.ndarray, t: float) -> np.ndarray:
        return np.array(_eval_entry(self.lam, _point_env(points, t), (points.shape[0],)))

    def beta_at(self, points: np.ndarray, t: float) -> np.ndarray:
        """(N, npts, n) gradient-weight vectors."""
        env = _point_env(points, t)
        npts = points.shape[0]
        out = np.empty((self.n_beta, npts, self.dim))
        for k, vec in enumerate(self.beta):
            for i in range(self.dim):
                out[k, :, i] = _eval_entry(vec[i], env, (npts,))
        return out

    @property
    def lam_is_zero(self) -> bool:
        return isinstance(self.lam, Num) and self.lam.value == 0.0

    def _entries(self) -> Iterator[Expr]:
        return itertools.chain(*self.b, self.f, (self.lam,), *self.beta)

    @property
    def is_constant(self) -> bool:
        return all(isinstance(e, Num) for e in self._entries())

    @property
    def is_time_dependent(self) -> bool:
        return any("t" in free_variables(e) for e in self._entries())


def _sym_eig_range(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) eigenvalue per symmetric matrix in an (npts, n, n) stack."""
    n = mats.shape[-1]
    if n == 1:
        v = mats[:, 0, 0]
        return v, v
    a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
    mean = 0.5 * (a + c)
    r = np.sqrt((0.5 * (a - c)) ** 2 + b**2)
    return mean - r, mean + r


def _beta_outer_sum(coeffs: CoefficientSet, points: np.ndarray, t: float) -> np.ndarray:
    """sum_i beta_i beta_i^T at each point, (npts, n, n); zero matrix when N = 0."""
    npts, n = points.shape[0], coeffs.dim
    acc = np.zeros((npts, n, n))
    if coeffs.n_beta:
        bs = coeffs.beta_at(points, t)  # (N, npts, n)
        acc = np.einsum("kpi,kpj->pij", bs, bs)
    return acc


def _all_nodes(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """All grid nodes (boundary included) and a boolean boundary mask."""
    axes = [grid.axis_coords(a, interior_only=False) for a in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    on_boundary = np.zeros(pts.shape[0], dtype=bool)
    for a in range(grid.dim):
        on_boundary |= np.isclose(pts[:, a], grid.domain.lo[a]) | np.isclose(pts[:, a], grid.domain.hi[a])
    return pts, on_boundary


@dataclass(frozen=True)
class EllipticityReport:
    """Outcome of sampling the uniform-ellipticity margin over the grid.

    delta = min over sampled (x, t) of the smallest eigenvalue of
    b - 1/2 sum_i beta_i beta_i^T; the set is usable iff delta > 0, lam <= 0
    everywhere, and every beta_i vanishes on the wall.
    """

    delta: float
    argmin_point: tuple[float, ...]
    argmin_time: float
    violated: bool
    issues: tuple[str, ...] = ()


def validate(coeffs: CoefficientSet, grid: Grid) -> EllipticityReport:
    if coeffs.dim != grid.dim:
        raise CoefficientError(f"coefficient dim {coeffs.dim} != grid dim {grid.dim}")
    pts, on_boundary = _all_nodes(grid)
    delta = np.inf
    arg_pt: tuple[float, ...] = tuple(pts[0])
    arg_t = 0.0
    issues: list[str] = []
    lam_max = -np.inf
    beta_wall_max = 0.0
    beta_sup = 0.0
    for t in grid.times():
        mats = coeffs.b_at(pts, t) - 0.5 * _beta_outer_sum(coeffs, pts, t)
        lo, _ = _sym_eig_range(mats)
        k = int(np.argmin(lo))
        if lo[k] < delta:
            delta = float(lo[k])
            arg_pt = tuple(float(c) for c in pts[k])
            arg_t = float(t)
        lam_max = max(lam_max, float(np.max(coeffs.lam_at(pts, t))))
        if coeffs.n_beta:
            bs = coeffs.beta_at(pts, t)
            beta_sup = max(beta_sup, float(np.max(np.abs(bs))))
            beta_wall_max = max(beta_wall_max, float(np.max(np.abs(bs[:, on_boundary, :]), initial=0.0)))
    if not np.isfinite(delta):
        issues.append("ellipticity sampling produced non-finite values")
    if delta <= 0:
        issues.append(
            f"uniform ellipticity violated: margin delta = {delta:.6g} "
            f"at x = {arg_pt}, t = {arg_t:.6g}"
        )
    if lam_max > 0:
        issues.append(f"zeroth-order coefficient must be <= 0, found max {lam_max:.6g}")
    if beta_wall_max > _BOUNDARY_ZERO_TOL * max(1.0, beta_sup):
        issues.append(f"beta must vanish on the boundary, found |beta| = {beta_wall_max:.6g} there")
    return EllipticityReport(
        delta=float(delta),
        argmin_point=arg_pt,
        argmin_time=arg_t,
        violated=bool(issues),
        issues=tuple(issues),
    )


def _spd_sqrt(mats: np.ndarray) -> np.ndarray:
    """Symmetric positive square root of an (npts, n, n) SPD stack (n <= 2)."""
    n = mats.shape[-1]
    if n == 1:
        v = mats[:, 0, 0]
        if np.any(v <= 0):
            raise CoefficientError("residual diffusion is not positive definite")
        return np.sqrt(v)[:, None, None]
    a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
    det = a * c - b * b
    tr = a + c
    if np.any(det <= 0) or np.any(tr <= 0):
        raise CoefficientError("residual diffusion is not positive definite")
    s = np.sqrt(det)
    denom = np.sqrt(tr + 2.0 * s)
    out = mats.copy()
    out[:, 0, 0] += s
    out[:, 1, 1] += s
    return out / denom[:, None, None]


@dataclass(frozen=True)
class DiffusionDecomposition:
    """Extra noise columns btilde_j completing 2b = sum beta beta^T + sum btilde btilde^T.

    `sampled` holds the columns at every grid node/time level (for the
    reconstruction check); `columns_at` re-evaluates them at arbitrary
    positions for the path simulator.
    """

    coeffs: CoefficientSet
    grid: Grid
    sampled: np.ndarray  # (nt+1, n_nodes, n, M) with M = n
    max_residual: float

    @property
    def n_columns(self) -> int:
        return self.coeffs.dim

    def columns_at(self, points: np.ndarray, t: float) -> np.ndarray:
        """(npts, n, M) square-root columns at arbitrary (strictly evaluable) points."""
        resid = 2.0 * self.coeffs.b_at(points, t) - _beta_outer_sum(self.coeffs, points, t)
        return _spd_sqrt(resid)


def decompose(coeffs: CoefficientSet, grid: Grid) -> DiffusionDecomposition:
    """Square-root columns of 2b - sum beta beta^T at every node/time level.

    Requires a validated set (delta > 0); raises if the residual matrix fails
    to be positive definite at any sample.
    """
    pts, _ = _all_nodes(grid)
    cols = np.empty((grid.nt + 1, pts.shape[0], coeffs.dim, coeffs.dim))
    max_resid = 0.0
    for k, t in enumerate(grid.times()):
        resid = 2.0 * coeffs.b_at(pts, t) - _beta_outer_sum(coeffs, pts, t)
        root = _spd_sqrt(resid)
        cols[k] = root
        recon = np.einsum("pik,pjk->pij", root, root) + _beta_outer_sum(coeffs, pts, t)
        max_resid = max(max_resid, float(np.max(np.abs(2.0 * coeffs.b_at(pts, t) - recon))))
    return DiffusionDecomposition(coeffs=coeffs, grid=grid, sampled=cols, max_residual=max_resid)


class CoefficientBounds(NamedTuple):
    sup_f1: float
    c_beta: float
    delta_qv: float


def bounds(coeffs: CoefficientSet, grid: Grid) -> CoefficientBounds:
    """Grid-sampled envelope constants of the quadratic variation.

    sup_f1 is the sup of |first drift component|; c_beta and delta_qv are the
    largest and smallest eigenvalues of 2b over all samples.
    """
    pts, _ = _all_nodes(grid)
    sup_f1 = 0.0
    c_beta = -np.inf
    delta_qv = np.inf
    for t in grid.times():
        sup_f1 = max(sup_f1, float(np.max(np.abs(coeffs.f_at(pts, t)[:, 0]))))
        lo, hi = _sym_eig_range(2.0 * coeffs.b_at(pts, t))
        delta_qv = min(delta_qv, float(np.min(lo)))
        c_beta = max(c_beta, float(np.max(hi)))
    return CoefficientBounds(sup_f1=sup_f1, c_beta=c_beta, delta_qv=delta_qv)
