"""Property tests on small 1-D problems with lam <= 0 and a coupling of norm
bound at most 0.9.  Uniqueness: Picard iteration and the dense direct solve
of the same fixed point find the same solution, both satisfy the non-local
terminal condition, and the solution's coupling reads nothing after its
horizon.  Linearity: the solution of a combination of data is the same
combination of solutions.  The discrete maximum principle: every backward
solve is monotone and bounded by its data, and a monotone non-local solution
keeps criterion 8's a-priori bound.
Kernel entries: a space-time kernel's entries apply as the dense kernel they
set."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bspde import (
    CauchyProblem,
    CoefficientSet,
    Convex,
    Domain,
    InitialValue,
    KernelEntries,
    NonlocalProblem,
    PointInTime,
    SpaceField,
    SpaceTimeField,
    SpaceTimeKernel,
    TimeKernel,
    TwoPoint,
    confinement_bound,
    make_grid,
    solve_nonlocal,
    solve_nonlocal_direct,
    solve_terminal,
    sup_norm,
    validate,
)

from bspde.nonlocal_ops import _compile
from conftest import dense_entries, truncation_check, validate_spec

MAX_BOUND = 0.9
# ||Q|| <= 0.9 shrinks the Picard residual by 0.9 per iteration at least:
# 0.9**300 < 1e-13 takes a residual of order 1 below tol
MAX_ITER = 300
DERANDOMIZED = dict(derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def grids(draw):
    nx = draw(st.integers(4, 9))
    nt = draw(st.integers(3, 10))
    T = draw(st.floats(0.25, 1.0))
    return make_grid(Domain((0.0,), (1.0,)), nx, nt, T)


@st.composite
def coefficient_sets(draw):
    """Constant, x- or t-dependent b, f and lam with lam <= 0, and an optional
    beta that vanishes on the wall inside the ellipticity budget."""
    b0 = draw(st.floats(0.05, 0.5))
    b = draw(st.sampled_from([repr(b0), f"{b0!r} + {0.4 * b0!r}*sin(3*t)", f"{b0!r}*(1 + 0.5*x*(1-x))"]))
    f0 = draw(st.floats(-1.0, 1.0))
    f = draw(st.sampled_from([repr(f0), f"{f0!r}*cos(2*t)", f"{f0!r}*x"]))
    l0 = draw(st.floats(0.0, 1.0))
    lam = draw(st.sampled_from([repr(-l0), f"-{l0!r}*(1 + x)", f"-{l0!r}*(1 + sin(t))^2"]))
    beta = []
    if draw(st.booleans()):
        # sup |c*x*(1-x)| = c/4, so b - beta^2/2 >= 0.6*b0 - c^2/32 > 0
        beta = [[f"{draw(st.floats(0.0, np.sqrt(b0)))!r}*x*(1-x)"]]
    return CoefficientSet.create(1, b=b, f=f, lam=lam, beta=beta)


def _level_time(draw, grid, lo=0):
    """A time that snaps to a level in [lo, nt - 1], up to 0.4 steps above it."""
    return (draw(st.integers(lo, grid.nt - 1)) + draw(st.floats(0.0, 0.4))) * grid.dt


def _scaled(make, grid, bound):
    """make(scale) with the scale that gives it norm bound `bound`; make(1),
    a kernel of absolute value at most 1 read before T <= 1, passes validation."""
    raw = validate_spec(make(1.0), grid).norm_bound
    return make(bound / raw) if raw > 0 else make(0.0)


@st.composite
def basic_couplings(draw, grid, bound):
    """One of the five couplings that are not combinations, with norm bound at most `bound`."""
    kind = draw(st.sampled_from(["initial", "point", "two", "tkernel", "stkernel"]))
    if kind == "initial":
        return InitialValue(draw(st.floats(-bound, bound)))
    if kind == "point":
        return PointInTime(draw(st.floats(-bound, bound)), _level_time(draw, grid))
    if kind == "two":
        w = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(2)])
        w = w * (bound / max(np.sum(np.abs(w)), 1.0))
        return TwoPoint(float(w[0]), _level_time(draw, grid), float(w[1]), _level_time(draw, grid))
    theta = _level_time(draw, grid, lo=1)
    levels = grid.nearest_level(theta)[0] + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "stkernel":
        k = rng.uniform(-1.0, 1.0, (levels, grid.n_interior, grid.n_interior))
        return _scaled(lambda c: SpaceTimeKernel(theta, dense_entries(c * k)), grid, bound)
    form = draw(st.sampled_from(["number", "expression", "samples"]))
    if form == "number":
        return _scaled(lambda c: TimeKernel(theta, c), grid, bound)
    if form == "expression":
        return _scaled(lambda c: TimeKernel(theta, f"{c!r}*exp(-t)*cos(3*t)"), grid, bound)
    # distinct sample times in any order, spanning the levels read
    times = rng.permutation(np.linspace(0.0, theta, draw(st.integers(2, 6))))
    values = rng.uniform(-1.0, 1.0, len(times))
    return _scaled(lambda c: TimeKernel(theta, np.column_stack([times, c * values])), grid, bound)


@st.composite
def couplings(draw, grid):
    """Any of the six coupling types, a convex combination of 1-3 parts."""
    if draw(st.booleans()):
        return draw(basic_couplings(grid, MAX_BOUND))
    n = draw(st.integers(1, 3))
    w = np.array([draw(st.floats(0.1, 1.0)) for _ in range(n)])
    w = w * (draw(st.floats(0.2, 1.0)) / np.sum(w))
    parts = tuple(draw(basic_couplings(grid, MAX_BOUND)) for _ in range(n))
    return Convex(weights=tuple(float(v) for v in w), parts=parts)


@st.composite
def problems(draw):
    grid = draw(grids())
    coeffs = draw(coefficient_sets())
    spec = draw(couplings(grid))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terminal = SpaceField(grid, rng.uniform(-1.0, 1.0, grid.interior_shape))
    source = None
    if draw(st.booleans()):
        source = SpaceTimeField(grid, rng.uniform(-1.0, 1.0, (grid.nt + 1,) + grid.interior_shape))
    return grid, coeffs, spec, source, terminal


@settings(max_examples=200, **DERANDOMIZED)
@given(problems())
def test_picard_and_the_direct_solve_find_the_one_solution(problem):
    grid, coeffs, spec, source, terminal = problem
    assert not validate(coeffs, grid).violated
    assert validate_spec(spec, grid).norm_bound <= MAX_BOUND * (1 + 1e-12)
    nonlocal_problem = NonlocalProblem(CauchyProblem(grid, coeffs, source, terminal), spec)
    picard = solve_nonlocal(nonlocal_problem, tol=1e-12, max_iter=MAX_ITER)
    direct = solve_nonlocal_direct(nonlocal_problem)
    assert picard.report.converged
    assert np.max(np.abs(picard.u.values - direct.u.values)) <= 1e-9
    assert picard.report.bc_residual <= 1e-9
    assert direct.report.bc_residual <= 1e-9
    assert truncation_check(spec, picard.u)
    assert truncation_check(spec, direct.u)


def _picard(grid, coeffs, spec, source, terminal):
    """solve_nonlocal, stopped at 1e-12 relative to the data's sup norm."""
    scale = max(sup_norm(terminal), sup_norm(source) if source is not None else 0.0)
    nonlocal_problem = NonlocalProblem(CauchyProblem(grid, coeffs, source, terminal), spec)
    sol = solve_nonlocal(nonlocal_problem, tol=1e-12 * (scale or 1.0), max_iter=MAX_ITER)
    assert sol.report.converged
    return sol.u.values


WEIGHTS = st.floats(-2.0, -0.1) | st.just(0.0) | st.floats(0.1, 2.0)


@settings(max_examples=120, **DERANDOMIZED)
@given(problems(), WEIGHTS, WEIGHTS, st.integers(0, 2**32 - 1))
def test_the_solution_is_linear_in_the_data(problem, a, b, seed):
    grid, coeffs, spec, source1, terminal1 = problem
    rng = np.random.default_rng(seed)
    terminal2 = SpaceField(grid, rng.uniform(-1.0, 1.0, grid.interior_shape))
    source2 = SpaceTimeField(grid, rng.uniform(-1.0, 1.0, (grid.nt + 1,) + grid.interior_shape))
    s1 = np.zeros_like(source2.values) if source1 is None else source1.values
    u1 = _picard(grid, coeffs, spec, source1, terminal1)
    u2 = _picard(grid, coeffs, spec, source2, terminal2)
    source = SpaceTimeField(grid, a * s1 + b * source2.values)
    terminal = SpaceField(grid, a * terminal1.values + b * terminal2.values)
    u = _picard(grid, coeffs, spec, source, terminal)
    scale = abs(a) * np.max(np.abs(u1)) + abs(b) * np.max(np.abs(u2))
    assert np.max(np.abs(u - (a * u1 + b * u2))) <= 1e-9 * scale


@settings(max_examples=200, **DERANDOMIZED)
@given(problems())
def test_every_backward_solve_obeys_the_maximum_principle(problem):
    grid, coeffs, _, source, terminal = problem
    diagnostics = solve_terminal(CauchyProblem(grid, coeffs, source=source, terminal=terminal)).diagnostics
    assert diagnostics.monotone
    assert diagnostics.max_principle_slack >= -1e-12


@settings(max_examples=100, **DERANDOMIZED)
@given(problems())
def test_a_monotone_solution_keeps_the_a_priori_bound(problem):
    """Criterion 8: sup|u| <= [T + (1 + T)/(1 - sqrt(nu))] (sup|source| + sup|data|),
    nu the confinement bound over the gap T - theta after the coupling's horizon."""
    grid, coeffs, spec, source, terminal = problem
    assume(solve_terminal(CauchyProblem(grid, coeffs)).diagnostics.monotone)
    nonlocal_problem = NonlocalProblem(CauchyProblem(grid, coeffs, source, terminal), spec)
    sol = solve_nonlocal(nonlocal_problem, tol=1e-12, max_iter=MAX_ITER)
    T = grid.T
    nu = confinement_bound(coeffs, grid, T - validate_spec(spec, grid).theta).nu
    data = (sup_norm(source) if source is not None else 0.0) + sup_norm(terminal)
    assert sup_norm(sol.u) <= (T + (1 + T) / (1 - math.sqrt(nu))) * data


def _dense_weights(spec, grid):
    """The space-time kernels of spec as one dense (levels, n, n) weight array,
    folded as the entries are (trapezoid weight times k times the cell
    volume); convex parts scale and add, repeated entries add."""
    n = grid.n_interior
    if isinstance(spec, Convex):
        parts = [w * _dense_weights(part, grid) for w, part in zip(spec.weights, spec.parts)]
        out = np.zeros((max(len(p) for p in parts), n, n))
        for p in parts:
            out[: len(p)] += p
        return out
    if not isinstance(spec, SpaceTimeKernel):
        return np.zeros((0, n, n))
    levels = grid.nearest_level(spec.theta)[0] + 1
    k = np.zeros((levels, n, n))
    np.add.at(k, tuple(spec.kernel[:3]), spec.kernel.value)
    trapezoid = np.full(levels, grid.dt)
    trapezoid[[0, -1]] = 0.5 * grid.dt
    return trapezoid[:, None, None] * k * grid.cell_volume


@st.composite
def kernel_entries(draw, grid, form, level=None):
    """A space-time kernel on `grid` of norm bound at most 1, read up to
    `level` (drawn when None): every entry in (level, y, x) order or only
    some of them ("ordered"), the same shuffled, or with some entries listed
    twice ("repeated")."""
    if level is None:
        level = draw(st.integers(1, grid.nt - 1))
    theta = (level + draw(st.floats(0.0, 0.4))) * grid.dt
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # |k| <= 1/2, listed at most twice, over t <= T <= 1 and y in (0, 1): bound <= 1
    entries = dense_entries(rng.uniform(-0.5, 0.5, (level + 1, grid.n_interior, grid.n_interior)))
    size = len(entries.value)
    keep = np.flatnonzero(rng.random(size) < draw(st.sampled_from([1.0, 0.5, 0.1])))
    if form == "shuffled":
        keep = rng.permutation(keep)
    if form == "repeated":
        keep = rng.permutation(np.concatenate([keep, rng.choice(size, size // 2 + 1, replace=False)]))
    return SpaceTimeKernel(theta, KernelEntries(*(a[keep] for a in entries)))


@settings(max_examples=200, **DERANDOMIZED)
@given(st.data(), grids(), st.sampled_from(["ordered", "shuffled", "repeated", "convex"]))
def test_kernel_entries_apply_as_the_dense_kernel(data, grid, form):
    """_Compiled.apply on entries against einsum on the dense kernel they set:
    bit-equal for one kernel in (level, y, x) order, and within 1e-14 of the
    sum of |terms| per target when the entries are summed in another order:
    shuffled, repeated, or a convex combination of two kernels with different
    level counts (and a level-weight part)."""
    if form == "convex":
        low = data.draw(st.integers(1, grid.nt - 2))
        high = data.draw(st.integers(low + 1, grid.nt - 1))
        parts = [data.draw(kernel_entries(grid, f, lvl)) for f, lvl in (("ordered", low), ("shuffled", high))]
        w = data.draw(st.floats(0.1, 0.8))
        spec = Convex((w, 0.8 - w, 0.2), (*data.draw(st.permutations(parts)), InitialValue(0.5)))
    else:
        spec = data.draw(kernel_entries(grid, form))
    compiled = _compile(spec, grid)
    u = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, (grid.nt + 1, grid.n_interior))
    dense = _dense_weights(spec, grid)
    levels = compiled.max_level + 1
    expected = compiled.level_weights[:levels] @ u[:levels] + np.einsum("kyx,ky->x", dense, u[: len(dense)])
    got = compiled.apply(SpaceTimeField(grid, u)).values
    if form == "ordered":
        assert got.tobytes() == expected.tobytes()
    else:
        scale = np.abs(compiled.level_weights[:levels]) @ np.abs(u[:levels])
        scale += np.einsum("kyx,ky->x", np.abs(dense), np.abs(u[: len(dense)]))
        assert np.all(np.abs(got - expected) <= 1e-14 * scale)
