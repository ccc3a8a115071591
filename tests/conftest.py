"""Shared builders for randomized batteries (all seeded, no global state), the
coupling report and checks of the non-local tests, the stack references of the
noise decomposition, and a fixture that empties the per-problem caches before
every test."""

from __future__ import annotations

import numpy as np
import pytest

from bspde import (
    CoefficientSet,
    Convex,
    Domain,
    Grid,
    InitialValue,
    KernelEntries,
    PointInTime,
    SpaceField,
    SpaceTimeField,
    SpaceTimeKernel,
    TimeKernel,
    TwoPoint,
    cli,
    coefficients,
    make_grid,
    stepper,
)
from bspde.coefficients import CoefficientError
from bspde.nonlocal_ops import _Compiled, _compile


def validate_spec(spec, grid: Grid) -> _Compiled:
    """The coupling compiled on grid, which reports its horizon `theta`, norm
    bound and snap distances; raises NonlocalValidationError when it breaks a rule."""
    return _compile(spec, grid)


def apply_nonlocal(spec, u: SpaceTimeField) -> SpaceField:
    """The coupling `spec` applied to u with its validated discrete weights."""
    return _compile(spec, u.grid).apply(u)


def truncation_check(spec, u: SpaceTimeField, theta: float | None = None) -> bool:
    """True iff the coupling gives bit-identical results on u and on u zeroed
    strictly after theta (default: the coupling's own validated horizon)."""
    c = _compile(spec, u.grid)
    k_theta = c.max_level if theta is None else u.grid.nearest_level(theta)[0]
    cut = u.values.copy()
    cut[k_theta + 1 :] = 0.0
    return bool(np.array_equal(c.apply(u).values, c.apply(SpaceTimeField(u.grid, cut)).values))


@pytest.fixture(autouse=True)
def _empty_caches():
    """No test sees a stepper store, coefficient survey or kernel CSV reading
    that an earlier test left behind."""
    stepper._store.cache_clear()
    coefficients._survey.cache_clear()
    cli._kernel.cache_clear()


@pytest.fixture
def unit_grid_1d() -> Grid:
    return make_grid(Domain((0.0,), (1.0,)), 21, 20, 1.0)


def random_field(rng: np.random.Generator, grid: Grid, scale: float = 1.0) -> SpaceField:
    return SpaceField(grid, rng.uniform(-scale, scale, grid.interior_shape))


def random_st_field(rng: np.random.Generator, grid: Grid, scale: float = 1.0) -> SpaceTimeField:
    return SpaceTimeField(grid, rng.uniform(-scale, scale, (grid.nt + 1,) + grid.interior_shape))


def random_coeffs_1d(rng: np.random.Generator, allow_time_dep: bool = True) -> CoefficientSet:
    """A validated-by-construction 1-D set: b bounded away from 0, lam <= 0,
    optional drift and a boundary-vanishing beta kept well inside the
    ellipticity budget."""
    b0 = rng.uniform(0.05, 0.5)
    if allow_time_dep and rng.random() < 0.3:
        b = f"{b0} + {b0 * 0.4}*sin(3*t)"
    elif rng.random() < 0.3:
        b = f"{b0}*(1 + 0.5*x*(1-x))"
    else:
        b = b0
    if rng.random() < 0.5:
        f = rng.uniform(-1.0, 1.0)
        if allow_time_dep and rng.random() < 0.3:
            f = f"{f}*cos(2*t)"
    else:
        f = 0.0
    lam = -rng.uniform(0.0, 1.0) if rng.random() < 0.7 else 0.0
    beta = []
    if rng.random() < 0.4:
        # sup |c*x*(1-x)| = c/4, so b - beta^2/2 >= 0.6*b0 - c^2/32 stays positive
        c = rng.uniform(0.0, np.sqrt(b0))
        beta = [[f"{c}*x*(1-x)"]]
    return CoefficientSet.create(1, b=b, f=f, lam=lam, beta=beta)


def dense_entries(k: np.ndarray) -> KernelEntries:
    """Every entry of a dense (levels, n, n) kernel, zeros included, in C order."""
    level, source, target = np.indices(k.shape).reshape(3, -1)
    return KernelEntries(level, source, target, k.ravel())


def random_spec(rng: np.random.Generator, grid: Grid, max_bound: float = 0.8, depth: int = 0):
    """A non-local spec valid on `grid` with norm bound <= max_bound."""
    kinds = ["initial", "point", "two", "tkernel", "stkernel"]
    if depth == 0:
        kinds.append("convex")
    kind = kinds[rng.integers(len(kinds))]
    if kind == "initial":
        return InitialValue(weight=float(rng.uniform(-max_bound, max_bound)))
    if kind == "point":
        lvl = int(rng.integers(0, grid.nt))  # strictly before the terminal level
        return PointInTime(weight=float(rng.uniform(-max_bound, max_bound)), t1=lvl * grid.dt)
    if kind == "two":
        a = rng.uniform(-1, 1, 2)
        a *= max_bound * rng.uniform(0.2, 1.0) / np.sum(np.abs(a))
        l1, l2 = rng.integers(0, grid.nt, 2)
        return TwoPoint(float(a[0]), l1 * grid.dt, float(a[1]), l2 * grid.dt)
    if kind == "tkernel":
        lvl = int(rng.integers(1, grid.nt))
        theta = lvl * grid.dt
        vals = rng.uniform(-1, 1, lvl + 1)
        spec = TimeKernel(theta=theta, kernel=np.column_stack([grid.times()[: lvl + 1], vals]))
        bound = _compile(spec, grid).norm_bound
        target = max_bound * rng.uniform(0.2, 1.0)
        vals = vals * (target / bound if bound > 0 else 0.0)
        return TimeKernel(theta=theta, kernel=np.column_stack([grid.times()[: lvl + 1], vals]))
    if kind == "stkernel":
        lvl = int(rng.integers(1, min(grid.nt, 8)))
        n = grid.n_interior
        k = rng.uniform(-1, 1, (lvl + 1, n, n))
        spec = SpaceTimeKernel(theta=lvl * grid.dt, kernel=dense_entries(k))
        bound = _compile(spec, grid).norm_bound
        target = max_bound * rng.uniform(0.2, 1.0)
        return SpaceTimeKernel(theta=lvl * grid.dt, kernel=dense_entries(k * (target / bound)))
    # convex of two parts; total weight <= 1 keeps the combined bound <= max_bound
    w = rng.uniform(0.2, 0.5, 2)
    parts = tuple(random_spec(rng, grid, max_bound=max_bound, depth=1) for _ in range(2))
    return Convex(weights=(float(w[0]), float(w[1])), parts=parts)


def reference_outer(coeffs, pts, t):
    """(npts, n, n) sum_i beta_i beta_i^T at the points, by einsum."""
    acc = np.zeros((pts.shape[0], coeffs.dim, coeffs.dim))
    if coeffs.n_beta:
        bs = coeffs.beta_at(pts, t)
        acc = np.einsum("kpi,kpj->pij", bs, bs)
    return acc


def reference_spd_sqrt(mats):
    """Symmetric positive square root of an (npts, n, n) SPD stack (n <= 2),
    formed on the stack itself, as a reference for the closed form that the
    path engine applies entry by entry."""
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
