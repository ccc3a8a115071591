"""Operator data: diffusion matrix b, drift f, zeroth-order lam, gradient
weights beta, with uniform-ellipticity validation and the square-root
decomposition 2b = sum beta_i beta_i^T + sum btilde_j btilde_j^T that the
path simulator drives its noise with.  The columns btilde_j are the symmetric
positive root of the residual 2b - sum beta_i beta_i^T, one closed form
(`_spd_root`) on flat arrays of its entries: `noise_root` forms the entries,
and `apply_noise` applies them to a path step's draws directly, with no
(npts, n, n) stack.  Each b entry is evaluated in its own shape, so an entry
that does not read x (a number, say) stays one value through the root; the
path engine forms the root of a set with no beta and no entry that reads x
once per step time, or once per call when no entry reads t either.

Entries are either plain numbers or exprdsl expressions of the variables
`exprdsl.bind` gives; evaluation is pointwise and vectorized over positions.
The wall, where every beta_i must vanish, is read from the node index.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .exprdsl import EvalError, Expr, Num, bind, free_variables, parse
from .grid import Grid, level_chunks, level_points, sample_levels

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


def _own_values(entry: Expr, env: dict) -> np.ndarray:
    """An entry's values in their own shape: (npts,) if it reads x, else (1,)."""
    try:
        val = entry.eval(env)
    except EvalError as e:
        raise CoefficientError(f"coefficient evaluation failed: {e}") from e
    return np.atleast_1d(np.asarray(val, dtype=float))


def _eval_entry(entry: Expr, env: dict, shape) -> np.ndarray:
    return np.broadcast_to(_own_values(entry, env), shape)


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
        env = bind(points.T, t)
        npts, n = points.shape[0], self.dim
        out = np.empty((npts, n, n))
        for i in range(n):
            for j in range(n):
                out[:, i, j] = _eval_entry(self.b[i][j], env, (npts,))
        return 0.5 * (out + np.transpose(out, (0, 2, 1)))

    def f_at(self, points: np.ndarray, t: float) -> np.ndarray:
        env = bind(points.T, t)
        npts = points.shape[0]
        out = np.empty((npts, self.dim))
        for i in range(self.dim):
            out[:, i] = _eval_entry(self.f[i], env, (npts,))
        return out

    def lam_at(self, points: np.ndarray, t: float) -> np.ndarray:
        return np.array(_eval_entry(self.lam, bind(points.T, t), (points.shape[0],)))

    def beta_at(self, points: np.ndarray, t: float) -> np.ndarray:
        """(N, npts, n) gradient-weight vectors."""
        env = bind(points.T, t)
        npts = points.shape[0]
        out = np.empty((self.n_beta, npts, self.dim))
        for k, vec in enumerate(self.beta):
            for i in range(self.dim):
                out[k, :, i] = _eval_entry(vec[i], env, (npts,))
        return out

    def f_lam_at(self, points: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """f, (npts, n), and lam, (npts,), at the points of a path step, each
        with 1 in place of npts where none of its entries reads x; f_at and
        lam_at give the same values in full shape."""
        env = bind(points.T, t)
        f = np.stack(np.broadcast_arrays(*(_own_values(e, env) for e in self.f)), axis=-1)
        return f, _own_values(self.lam, env)

    def noise_root(self, points: np.ndarray, t: float) -> tuple[np.ndarray | None, tuple[np.ndarray, ...]]:
        """The gradient weights at points, (N, npts, n), or None when N = 0,
        and the entries of the symmetric positive root of the residual
        diffusion 2b - sum_i beta_i beta_i^T there, b symmetrized: (r00,) in
        1-D, (r00, r01, r11) in 2-D, each of shape (npts,), or (1,) when
        N = 0 and none of the b entries it is formed from reads x."""
        env = bind(points.T, t)
        b = [[_own_values(e, env) for e in row] for row in self.b]
        bs = self.beta_at(points, t) if self.n_beta else None

        def resid(i, j):
            r = 2.0 * (b[i][i] if i == j else 0.5 * (b[i][j] + b[j][i]))
            if bs is not None:  # the sum of products over beta that einsum("kpi,kpj->pij") forms
                r = r - sum(bs[k, :, i] * bs[k, :, j] for k in range(self.n_beta))
            return r

        if self.dim == 1:
            return bs, _spd_root(resid(0, 0))
        return bs, _spd_root(resid(0, 0), resid(0, 1), resid(1, 1))

    def noise_at(self, points: np.ndarray, t: float, draws: np.ndarray) -> list[np.ndarray]:
        """The noise of one path step at points per unit sqrt(dt), from one row
        of standard normals per point (`apply_noise` of `noise_root`)."""
        return self.apply_noise(self.noise_root(points, t), draws)

    def apply_noise(self, root: tuple, draws: np.ndarray) -> list[np.ndarray]:
        """The noise of one path step per unit sqrt(dt) from the `noise_root`
        at its points and one row of standard normals per point: draws[:, N:]
        drive the columns btilde_j and draws[:, :N] the beta_i.  Returns the
        btilde term, then (N > 0) the beta term, each (npts, n); the root's
        entries are applied to the draws in the order of the product of the
        root matrix and draws[:, N:], and no (npts, n, n) stack is built."""
        N = self.n_beta
        bs, r = root
        d = draws[:, N:]
        if self.dim == 1:
            terms = [r[0][:, None] * d]
        else:
            r00, r01, r11 = r
            terms = [np.stack([r00 * d[:, 0] + r01 * d[:, 1], r01 * d[:, 0] + r11 * d[:, 1]], axis=-1)]
        if N:
            terms.append(np.einsum("knd,nk->nd", bs, draws[:, :N]))
        return terms

    @property
    def lam_is_zero(self) -> bool:
        return isinstance(self.lam, Num) and self.lam.value == 0.0

    def _entries(self) -> Iterator[Expr]:
        return itertools.chain(*self.b, self.f, (self.lam,), *self.beta)

    @property
    def is_time_dependent(self) -> bool:
        return any("t" in free_variables(e) for e in self._entries())

    @property
    def reads_x(self) -> bool:
        return any(free_variables(e) - {"t"} for e in self._entries())


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


def _samples(coeffs: CoefficientSet, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All grid nodes in lexicographic order, the mask of those on the wall
    (index 0 or n - 1 on some axis), and the times to sample: every level
    when an entry reads t, else t = 0 alone, as every level is then alike."""
    pts = np.stack([m.ravel() for m in grid.mesh(interior_only=False)], axis=-1)
    on_wall = np.ones(grid.nx, dtype=bool)
    on_wall[(slice(1, -1),) * grid.dim] = False
    times = grid.times()
    return pts, on_wall.ravel(), times if coeffs.is_time_dependent else times[:1]


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

    def raise_if_violated(self) -> None:
        """Raise CoefficientError with the issues, joined by '; ', if the set is violated."""
        if self.violated:
            raise CoefficientError("; ".join(self.issues))


class CoefficientBounds(NamedTuple):
    sup_f1: float
    c_beta: float
    delta_qv: float


@functools.lru_cache(maxsize=1)
def _survey(coeffs: CoefficientSet, grid: Grid) -> tuple[EllipticityReport, CoefficientBounds]:
    """The ellipticity report and the envelope bounds from one pass over the
    samples; keyed on the values of the frozen coefficient set and grid.  A
    coefficient that is not finite at a sample is an issue of the report,
    named with the first such (x, t); so is the implicit step dt*A_h of the
    backward solver, whose matrix entries are at most
    1 + dt*(|lam| + sum_a 2|b_aa|/h_a^2 + |f_a|/h_a) in size.  The levels are
    evaluated in chunks (`grid.level_chunks`, `grid.sample_levels`), and each
    reduction is taken per level and folded in level order, so every number,
    NaN passed over included, is the one a loop over single levels gives."""
    if coeffs.dim != grid.dim:
        raise CoefficientError(f"coefficient dim {coeffs.dim} != grid dim {grid.dim}")
    pts, on_wall, times = _samples(coeffs, grid)
    npts = len(pts)
    delta, arg_pt, arg_t = np.inf, tuple(pts[0]), 0.0
    lam_max, beta_wall_max, beta_sup = -np.inf, 0.0, 0.0
    sup_f1, c_beta, delta_qv = 0.0, -np.inf, np.inf
    non_finite: dict[str, tuple] = {}  # quantity -> first (x, t) where it is not finite

    def sample(levels):
        p, t = level_points(pts, times, levels)
        return coeffs.b_at(p, t), coeffs.beta_at(p, t), coeffs.lam_at(p, t), coeffs.f_at(p, t)

    def fold(pick, acc, per_level):
        return functools.reduce(pick, per_level.tolist(), acc)

    # an overflow is reported as an issue below, not as a numpy warning
    with np.errstate(all="ignore"):
        chunks = level_chunks(len(times), npts)
        for levels, (b, bs, lam, f) in sample_levels(chunks, sample):
            nlev = len(levels)  # b is (nlev * npts, n, n), level-major; bs is (N, nlev * npts, n)
            # (the einsum of N = 0 is the zero matrix)
            step = np.abs(lam)
            for a, h in enumerate(grid.hx):
                step = step + 2 * np.abs(b[:, a, a]) / (h * h) + np.abs(f[:, a]) / h
            quantities = (
                ("coefficient b", b),
                ("coefficient f", f),
                ("coefficient lam", lam),
                ("coefficient beta", np.moveaxis(bs, 0, 1)),
                ("implicit step dt*A_h", grid.dt * step),
            )
            for name, vals in quantities:
                bad = ~np.isfinite(vals.reshape(len(b), -1)).all(axis=1)
                if name not in non_finite and bad.any():
                    i = int(np.argmax(bad))
                    non_finite[name] = (tuple(float(c) for c in pts[i % npts]), float(times[levels[i // npts]]))
            lo, _ = _sym_eig_range(b - 0.5 * np.einsum("kpi,kpj->pij", bs, bs))
            lo = lo.reshape(nlev, npts)
            for j, k in enumerate(np.argmin(lo, axis=1).tolist()):
                if lo[j, k] < delta:
                    delta = float(lo[j, k])
                    arg_pt = tuple(float(c) for c in pts[k])
                    arg_t = float(times[levels[j]])
            lam_max = fold(max, lam_max, np.max(lam.reshape(nlev, npts), axis=1))
            bs = np.abs(bs.reshape(len(bs), nlev, npts, grid.dim))
            beta_sup = fold(max, beta_sup, np.max(bs, axis=(0, 2, 3), initial=0.0))
            beta_wall_max = fold(max, beta_wall_max, np.max(bs[:, :, on_wall, :], axis=(0, 2, 3), initial=0.0))
            sup_f1 = fold(max, sup_f1, np.max(np.abs(f[:, 0]).reshape(nlev, npts), axis=1))
            lo, hi = _sym_eig_range(2.0 * b)
            delta_qv = fold(min, delta_qv, np.min(lo.reshape(nlev, npts), axis=1))
            c_beta = fold(max, c_beta, np.max(hi.reshape(nlev, npts), axis=1))
    if len(non_finite) > 1:  # a coefficient that is not finite is the cause of a step that is not
        non_finite.pop("implicit step dt*A_h", None)
    issues = [f"{name} is not finite at x = {x}, t = {t:.6g}" for name, (x, t) in non_finite.items()]
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
    report = EllipticityReport(float(delta), arg_pt, arg_t, violated=bool(issues), issues=tuple(issues))
    return report, CoefficientBounds(sup_f1=sup_f1, c_beta=c_beta, delta_qv=delta_qv)


def validate(coeffs: CoefficientSet, grid: Grid) -> EllipticityReport:
    return _survey(coeffs, grid)[0]


def bounds(coeffs: CoefficientSet, grid: Grid) -> CoefficientBounds:
    """Grid-sampled envelope constants of the quadratic variation.

    sup_f1 is the sup of |first drift component|; c_beta and delta_qv are the
    largest and smallest eigenvalues of 2b over all samples.
    """
    return _survey(coeffs, grid)[1]


def _spd_root(a: np.ndarray, b: np.ndarray | None = None, c: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Entries of the symmetric positive square root of the SPD matrices
    [[a, b], [b, c]], given entry by entry as (npts,) arrays, in closed form:
    with s = sqrt(ac - b^2) and d = sqrt(a + c + 2s) the root is
    [[a + s, b], [b, c + s]] / d.  In 1-D (a alone) it is sqrt(a)."""
    if b is None:
        if np.any(a <= 0):
            raise CoefficientError("residual diffusion is not positive definite")
        return (np.sqrt(a),)
    det = a * c - b * b
    tr = a + c
    if np.any(det <= 0) or np.any(tr <= 0):
        raise CoefficientError("residual diffusion is not positive definite")
    s = np.sqrt(det)
    d = np.sqrt(tr + 2.0 * s)
    return (a + s) / d, b / d, (c + s) / d
