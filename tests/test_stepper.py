import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrf, dgbtrs

import bspde
from bspde import (
    CauchyProblem,
    CoefficientSet,
    Domain,
    InitialValue,
    NonlocalProblem,
    SpaceField,
    SpaceTimeField,
    assemble_feedback_matrix,
    make_grid,
    solve_nonlocal,
    solve_terminal,
    stepper,
    sup_norm,
)
from bspde.nonlocal_ops import _compile
from bspde.grid import GridError
from bspde.stepper import LinearSolveError, SolutionRangeError, _span, _store
from conftest import random_coeffs_1d, random_field, random_st_field


def heat_coeffs(b=0.1, lam=0.0, f=0.0):
    return CoefficientSet.create(1, b=b, f=f, lam=lam)


def _dense_step_matrix(g, c, t):
    """(I - dt*A_h) built node by node from the stencil in the stepper docstring."""
    nodes = list(np.ndindex(g.interior_shape))  # lexicographic, like interior_points()
    index = {p: i for i, p in enumerate(nodes)}
    pts = g.interior_points()
    b, f, lam = c.b_at(pts, t), c.f_at(pts, t), c.lam_at(pts, t)
    A = np.zeros((len(nodes), len(nodes)))
    for i, p in enumerate(nodes):

        def add(offset, value):
            q = tuple(pa + oa for pa, oa in zip(p, offset))
            if q in index:  # u = 0 off the interior
                A[i, index[q]] += value

        for a, h in enumerate(g.hx):
            e = tuple(int(j == a) for j in range(g.dim))
            add(e, b[i, a, a] / h**2 + max(f[i, a], 0.0) / h)
            add(tuple(-ea for ea in e), b[i, a, a] / h**2 + max(-f[i, a], 0.0) / h)
            A[i, i] -= 2.0 * b[i, a, a] / h**2 + abs(f[i, a]) / h
        if g.dim == 2:
            cross = b[i, 0, 1] / (2.0 * g.hx[0] * g.hx[1])
            for offset, sign in (((1, 1), 1), ((-1, -1), 1), ((1, -1), -1), ((-1, 1), -1)):
                add(offset, sign * cross)
        A[i, i] += lam[i]
    return np.eye(len(nodes)) - g.dt * A


def _one_step_problem(nx):
    """A one-step grid with nx nodes (an int in 1-D, a pair in 2-D) and
    coefficients whose drift changes sign across the box, with b12 != 0 in 2-D."""
    if isinstance(nx, int):
        g = make_grid(Domain((0.0,), (1.0,)), nx, 1, 0.3)
        return g, CoefficientSet.create(1, b="0.1 + 0.05*x", f="3*x - 1.5", lam="-0.5 - x")
    g = make_grid(Domain((0.0, -1.0), (1.0, 1.0)), nx, 1, 0.3)
    b = [[0.2, "0.05 + 0.03*x2"], ["0.05 + 0.03*x2", 0.15]]
    return g, CoefficientSet.create(2, b=b, f=["2 - 4*x1", "x2"], lam=-0.7)


@pytest.mark.parametrize("nx", [3, 12, (3, 3), (3, 9), (9, 3), (5, 4), (6, 9)])
def test_one_step_against_dense(nx):
    # one backward step (nt=1) against a dense solve; drift changes sign across
    # the box and b12 != 0, so stride order, row-end wrap-around and flat-offset
    # collisions on thin grids all show up as mismatches
    rng = np.random.default_rng(5)
    g, c = _one_step_problem(nx)
    src, term = random_st_field(rng, g), random_field(rng, g)
    out = solve_terminal(CauchyProblem(g, c, source=src, terminal=term))
    M = _dense_step_matrix(g, c, 0.0)
    expect = np.linalg.solve(M, term.values.ravel() + g.dt * src.values[0].ravel())
    assert np.max(np.abs(out.u.values[0].ravel() - expect)) <= 1e-12
    assert out.diagnostics.max_linear_residual <= 1e-12
    offdiag = M[~np.eye(M.shape[0], dtype=bool)]
    assert out.diagnostics.worst_positive_offdiag == np.max(offdiag, initial=0.0)


def test_singular_system_raises():
    g = make_grid(Domain((0.0,), (1.0,)), 3, 1, 0.5)
    c = CoefficientSet.create(1, b=0.0, lam=2.0)  # 1 - dt*lam = 0 at the one interior node
    with pytest.raises(LinearSolveError):
        solve_terminal(CauchyProblem(g, c))


def test_zero_problem_gives_zero():
    g = make_grid(Domain((0.0,), (1.0,)), 21, 10, 1.0)
    out = solve_terminal(CauchyProblem(g, heat_coeffs()))
    assert sup_norm(out.u) == 0.0


def test_eigenmode_decay_1d():
    # separation of variables: terminal sin(pi x) decays by exp(-b pi^2 T)
    g = make_grid(Domain((0.0,), (1.0,)), 201, 400, 1.0)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    out = solve_terminal(CauchyProblem(g, heat_coeffs(b=0.1), terminal=term))
    amp = sup_norm(out.u.level(0))
    assert amp == pytest.approx(math.exp(-0.1 * math.pi**2), rel=0.01)
    assert out.u.level(g.nt).values == pytest.approx(term.values)  # exact terminal


def test_eigenmode_with_zeroth_order_discount():
    g = make_grid(Domain((0.0,), (1.0,)), 201, 400, 1.0)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    out = solve_terminal(CauchyProblem(g, heat_coeffs(b=0.1, lam=-1.0), terminal=term))
    amp = sup_norm(out.u.level(0))
    assert amp == pytest.approx(math.exp(-0.1 * math.pi**2) * math.exp(-1.0), rel=0.01)


def test_a_constant_source_reaches_the_steady_state():
    # long horizon with unit source: -b u'' = 1, so u = 5 x (1 - x) at b = 0.1
    g = make_grid(Domain((0.0,), (1.0,)), 51, 100, 20.0)
    src = SpaceTimeField(g, np.ones((g.nt + 1,) + g.interior_shape))
    u = solve_terminal(CauchyProblem(g, heat_coeffs(b=0.1), source=src)).u
    xs = g.axis_coords(0)
    assert np.max(np.abs(u.values[0] - 5 * xs * (1 - xs))) <= 0.02 * 1.25
    assert sup_norm(u.level(0)) == pytest.approx(1.25, rel=0.02)


def test_source_zero_gives_zero():
    g = make_grid(Domain((0.0,), (1.0,)), 11, 5, 1.0)
    src = SpaceTimeField.zeros(g)
    assert sup_norm(solve_terminal(CauchyProblem(g, heat_coeffs(), source=src)).u) == 0.0


def test_linearity_1d():
    rng = np.random.default_rng(9)
    g = make_grid(Domain((0.0,), (1.0,)), 17, 12, 1.0)
    c = random_coeffs_1d(rng)
    for _ in range(10):
        p1, p2 = random_st_field(rng, g), random_st_field(rng, g)
        F1, F2 = random_field(rng, g), random_field(rng, g)
        a, b = rng.uniform(-2, 2, 2)
        combo = solve_terminal(
            CauchyProblem(
                g,
                c,
                source=SpaceTimeField(g, a * p1.values + b * p2.values),
                terminal=SpaceField(g, a * F1.values + b * F2.values),
            )
        ).u
        u1 = solve_terminal(CauchyProblem(g, c, source=p1, terminal=F1)).u
        u2 = solve_terminal(CauchyProblem(g, c, source=p2, terminal=F2)).u
        assert np.max(np.abs(combo.values - a * u1.values - b * u2.values)) <= 1e-10


def test_operator_split_is_the_full_solve():
    rng = np.random.default_rng(10)
    g = make_grid(Domain((0.0,), (1.0,)), 17, 12, 1.0)
    c = random_coeffs_1d(rng)
    src = random_st_field(rng, g)
    term = random_field(rng, g)
    full = solve_terminal(CauchyProblem(g, c, source=src, terminal=term)).u
    split = solve_terminal(CauchyProblem(g, c, source=src)).u.values
    split += solve_terminal(CauchyProblem(g, c, terminal=term)).u.values
    assert np.max(np.abs(full.values - split)) <= 1e-10


def test_max_principle_battery_1d():
    # monotone stencil (upwind drift, lam <= 0): sup|u| <= sup|terminal| + T sup|source|
    rng = np.random.default_rng(42)
    for _ in range(200):
        nx = int(rng.integers(9, 33))
        nt = int(rng.integers(5, 30))
        T = float(rng.uniform(0.3, 2.0))
        g = make_grid(Domain((0.0,), (1.0,)), nx, nt, T)
        c = random_coeffs_1d(rng)
        src = random_st_field(rng, g, scale=rng.uniform(0.1, 3.0))
        term = random_field(rng, g, scale=rng.uniform(0.1, 3.0))
        out = solve_terminal(CauchyProblem(g, c, source=src, terminal=term))
        assert out.diagnostics.monotone
        bound = sup_norm(term) + T * sup_norm(src)
        assert sup_norm(out.u) <= bound + 1e-12
        # terminal response alone contracts the sup norm
        assert sup_norm(solve_terminal(CauchyProblem(g, c, terminal=term)).u) <= sup_norm(term) + 1e-12


def test_max_principle_2d():
    rng = np.random.default_rng(43)
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (11, 13), 8, 1.0)
    c = CoefficientSet.create(2, b=[0.2, 0.1], f=[0.4, -0.3], lam=-0.2)
    for _ in range(10):
        src = random_st_field(rng, g)
        term = random_field(rng, g)
        out = solve_terminal(CauchyProblem(g, c, source=src, terminal=term))
        assert out.diagnostics.monotone
        assert sup_norm(out.u) <= sup_norm(term) + g.T * sup_norm(src) + 1e-12


def test_manufactured_2d_mixed_derivative_exact():
    # u = (1 + t/2) x1(1-x1) x2(1-x2) is quadratic per axis and linear in t:
    # every stencil and the time step are exact, so the solve must reproduce it
    b11, b22, b12, lam = 0.2, 0.3, 0.08, -0.5
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (17, 13), 8, 1.0)
    c = CoefficientSet.create(2, b=[[b11, b12], [b12, b22]], lam=lam)

    def uex(x1, x2, t):
        return (1 + t / 2) * x1 * (1 - x1) * x2 * (1 - x2)

    def rhs(x1, x2, t):
        u = uex(x1, x2, t)
        uxx = -2 * (1 + t / 2) * x2 * (1 - x2)
        uyy = -2 * (1 + t / 2) * x1 * (1 - x1)
        uxy = (1 + t / 2) * (1 - 2 * x1) * (1 - 2 * x2)
        ut = 0.5 * x1 * (1 - x1) * x2 * (1 - x2)
        return -ut - (b11 * uxx + b22 * uyy + 2 * b12 * uxy + lam * u)

    src = SpaceTimeField.from_function(g, rhs)
    term = SpaceField.from_function(g, lambda x1, x2: uex(x1, x2, g.T))
    out = solve_terminal(CauchyProblem(g, c, source=src, terminal=term))
    exact = SpaceTimeField.from_function(g, uex)
    assert np.max(np.abs(out.u.values - exact.values)) <= 1e-9
    assert not out.diagnostics.monotone  # mixed term flagged
    assert out.diagnostics.worst_positive_offdiag > 0


def test_product_eigenmode_2d():
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (41, 41), 200, 0.5)
    c = CoefficientSet.create(2, b=[0.1, 0.1])
    term = SpaceField.from_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    out = solve_terminal(CauchyProblem(g, c, terminal=term))
    assert sup_norm(out.u.level(0)) == pytest.approx(math.exp(-0.2 * math.pi**2 * 0.5), rel=0.01)


def _richardson_order(f_drift: float) -> float:
    # same time grid throughout so only the spatial error enters the differences
    sols = []
    for nx in (26, 51, 101):
        g = make_grid(Domain((0.0,), (1.0,)), nx, 200, 1.0)
        c = heat_coeffs(b=0.1, f=f_drift)
        term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
        sols.append(solve_terminal(CauchyProblem(g, c, terminal=term)).u.values[0])
    d1 = np.max(np.abs(sols[0] - sols[1][1::2]))
    d2 = np.max(np.abs(sols[1] - sols[2][1::2]))
    return float(np.log2(d1 / d2))


@pytest.mark.parametrize("which", ["terminal", "source"])
def test_data_on_another_grid_is_refused(which):
    # the same interior shape and levels on a box twice as wide: every sweep,
    # non-local solve and path estimate would read it as if on g
    g, wide = (make_grid(Domain((0.0,), (hi,)), 11, 10, 1.0) for hi in (1.0, 2.0))
    field = SpaceField(wide, np.ones(9)) if which == "terminal" else SpaceTimeField(wide, np.ones((11, 9)))
    with pytest.raises(ValueError, match=f"the {which} field lies on another grid"):
        CauchyProblem(g, CoefficientSet.create(1, b=0.1), **{which: field})


def test_grid_convergence_order_central():
    assert _richardson_order(0.0) >= 1.8


def test_grid_convergence_order_upwind():
    # drift strong enough that the first-order upwind error dominates at desk scale
    assert _richardson_order(2.0) >= 0.9


def test_time_dependent_coefficients_run():
    g = make_grid(Domain((0.0,), (1.0,)), 21, 20, 1.0)
    c = CoefficientSet.create(1, b="0.1 + 0.05*sin(3*t)", f="0.2*cos(t)", lam="-0.1*(1+t)")
    term = SpaceField.from_function(g, lambda x: x * (1 - x))
    out = solve_terminal(CauchyProblem(g, c, terminal=term))
    assert out.diagnostics.monotone
    assert sup_norm(out.u) <= sup_norm(term) + 1e-12


class ReferenceLevel(NamedTuple):
    bands: dict  # flat offset k -> row-indexed entries M[p, p + k]
    w: int  # half-bandwidth of the stencil, whichever bands are kept
    worst_positive_offdiag: float


def reference_level(g, c, t) -> ReferenceLevel:
    """(I - dt*A_h) at time t alone, the reference for the store, which
    assembles chunks of levels: the coefficients evaluated at t, one number,
    and only the bands that are nonzero at some node of this level, in
    stencil order."""
    shape = g.interior_shape
    pts = g.interior_points()
    b = c.b_at(pts, t).reshape(shape + (g.dim, g.dim))
    f = c.f_at(pts, t).reshape(shape + (g.dim,))
    diag_A = c.lam_at(pts, t).reshape(shape)
    stencil = {}
    for a, h in enumerate(g.hx):
        e = np.eye(g.dim, dtype=int)[a]
        baa = b[..., a, a] / h**2
        stencil[tuple(e)] = baa + np.maximum(f[..., a], 0.0) / h
        stencil[tuple(-e)] = baa + np.maximum(-f[..., a], 0.0) / h
        diag_A = diag_A - 2.0 * baa - np.abs(f[..., a]) / h
    if g.dim == 2:
        cross = b[..., 0, 1] / (2.0 * g.hx[0] * g.hx[1])
        stencil.update({(1, 1): cross, (-1, -1): cross, (1, -1): -cross, (-1, 1): -cross})
    strides = [int(np.prod(shape[a + 1 :])) for a in range(g.dim)]
    bands = {0: (1.0 - g.dt * diag_A).ravel()}
    worst = 0.0
    for off, coef in stencil.items():
        has = tuple(slice(max(0, -o), m - max(0, o)) for o, m in zip(off, shape))
        vals = -g.dt * coef[has]
        if not vals.size:
            continue
        worst = max(worst, float(np.max(vals)))
        band = np.zeros(shape)
        band[has] = vals
        k = int(np.dot(off, strides))
        bands[k] = bands.get(k, 0.0) + band.ravel()
    return ReferenceLevel({k: e for k, e in bands.items() if np.any(e)}, max(abs(k) for k in bands), worst)


def _band_storage(level, n):
    """The LAPACK band storage of an assembled level of n nodes."""
    w = level.w
    ab = np.zeros((3 * w + 1, n), order="F")
    for k, entries in level.bands.items():
        rows, cols = _span(k, n)
        ab[2 * w - k, cols] = entries[rows]
    return ab


def _fresh_system(g, c, t):
    """The level at time t and its LU factor lu, piv, from scipy's public
    dgbtrf: no solve code of the stepper."""
    level = reference_level(g, c, t)
    lu, piv, info = dgbtrf(_band_storage(level, g.n_interior), level.w, level.w)
    assert info == 0
    return level, lu, piv


def _reference_sweep(g, c, terminal, source=None):
    """The per-step sweep: a fresh system per level (one per sweep when no
    coefficient depends on t), a fresh rhs per step, one dgbtrs and that
    step's residual over the bands in their order; where M x overflows, the
    step's residual is 2**e sup |2**-e rhs - M 2**-e x|, sup |2**-e x| in [0.5, 1)."""
    shape = g.interior_shape
    u = np.empty((g.nt + 1,) + shape)
    u[g.nt] = terminal.values
    worst = 0.0
    resids = []  # per step, from level nt - 1 down to 0
    lu = None

    def sup_residual(rhs, x):
        r = rhs.copy()
        for j, entries in level.bands.items():
            rows, cols = _span(j, rhs.size)
            r[rows] -= entries[rows] * x[cols]
        return float(np.max(np.abs(r)))

    for k in range(g.nt - 1, -1, -1):
        if lu is None or c.is_time_dependent:
            level, lu, piv = _fresh_system(g, c, g.dt * k)
            worst = max(worst, level.worst_positive_offdiag)
        rhs = u[k + 1].ravel().copy()
        if source is not None:
            rhs += g.dt * source.values[k].ravel()
        x, info = dgbtrs(lu, level.w, level.w, rhs, piv)
        assert info == 0
        with np.errstate(over="ignore", invalid="ignore"):
            res = sup_residual(rhs, x)
            if not math.isfinite(res):
                e = math.frexp(float(np.max(np.abs(x))))[1]
                res = float(np.ldexp(sup_residual(np.ldexp(rhs, -e), np.ldexp(x, -e)), e))
        resids.append(res)
        u[k] = x.reshape(shape)
    return u, worst, resids


def _assert_matches_reference(g, c, terminal, source=None):
    out = solve_terminal(CauchyProblem(g, c, source=source, terminal=terminal))
    u, worst, resids = _reference_sweep(g, c, source=source, terminal=terminal)
    assert out.u.values.tobytes() == u.tobytes()
    assert out.diagnostics.worst_positive_offdiag == worst
    assert out.diagnostics.max_linear_residual == max(resids)
    return resids


C1_CONST = CoefficientSet.create(1, b="0.1 + 0.05*x", f="3*x - 1.5", lam="-0.5 - x")
C1_TIME = CoefficientSet.create(1, b="0.1 + 0.05*sin(3*t)", f="2*x - 1 + t", lam="-0.1*(1+t)")
C2_CONST = CoefficientSet.create(2, b=[[0.2, "0.05 + 0.03*x2"], ["0.05 + 0.03*x2", 0.15]], f=["2 - 4*x1", "x2"], lam=-0.7)
C2_TIME = CoefficientSet.create(2, b=["0.2 + 0.1*t", "0.1 + 0.05*x1"], f=["0.4*cos(t)", "-0.3"], lam="-0.2*t")


@pytest.mark.parametrize(
    "nx,nt,coeffs,with_source,restart",
    [
        (23, 30, C1_CONST, False, None),
        (23, 30, C1_CONST, True, 17),
        (23, 30, C1_TIME, True, None),
        (23, 30, C1_TIME, False, 9),
        ((9, 7), 12, C2_CONST, True, None),
        ((9, 7), 12, C2_CONST, False, 5),
        ((6, 9), 12, C2_TIME, True, 7),
        ((6, 9), 12, C2_TIME, False, None),
    ],
)
def test_sweep_matches_the_per_step_reference(nx, nt, coeffs, with_source, restart):
    rng = np.random.default_rng(11)
    lo, hi = ((0.0,), (1.0,)) if coeffs.dim == 1 else ((0.0, -1.0), (1.0, 1.0))
    g = make_grid(Domain(lo, hi), nx, nt, 0.8)
    src = random_st_field(rng, g) if with_source else None
    term = random_field(rng, g)
    _assert_matches_reference(g, coeffs, source=src, terminal=term)
    if restart is not None:
        # the sweep restarted from its level `restart` is the sweep of the grid that ends there
        u = solve_terminal(CauchyProblem(g, coeffs, source=src, terminal=term)).u.values[: restart + 1]
        short = make_grid(g.domain, nx, restart, restart * g.dt)
        short_src = None if src is None else SpaceTimeField(short, src.values[: restart + 1])
        again = solve_terminal(CauchyProblem(short, coeffs, short_src, SpaceField(short, u[-1]))).u.values
        assert np.max(np.abs(again - u)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("coeffs", [C1_CONST, C2_CONST])
def test_sweep_residual_is_the_max_over_every_step(coeffs):
    # zero terminal data and a source pulse at one middle level: the largest
    # step residual is neither the first step's nor the last one's
    rng = np.random.default_rng(14)
    lo, hi = ((0.0,), (1.0,)) if coeffs.dim == 1 else ((0.0, -1.0), (1.0, 1.0))
    g = make_grid(Domain(lo, hi), 11 if coeffs.dim == 1 else (7, 6), 16, 4.0)
    pulse = np.zeros((g.nt + 1,) + g.interior_shape)
    pulse[8] = 1e3 * random_field(rng, g).values
    resids = _assert_matches_reference(g, coeffs, source=SpaceTimeField(g, pulse), terminal=SpaceField.zeros(g))
    assert max(resids) > max(resids[0], resids[-1])


def test_factor_cache_is_keyed_on_values():
    def problem():
        return make_grid(Domain((0.0,), (1.0,)), 17, 12, 1.0), CoefficientSet.create(1, b="0.1 + 0.05*x", f=0.3)

    (g1, c1), (g2, c2) = problem(), problem()
    assert g1 is not g2 and c1 is not c2
    term = random_field(np.random.default_rng(12), g1)
    first = solve_terminal(CauchyProblem(g1, c1, terminal=term))
    second = solve_terminal(CauchyProblem(g2, c2, terminal=term))
    info = _store.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert first.u.values.tobytes() == second.u.values.tobytes()


def test_factor_cache_never_serves_another_coefficient_set():
    rng = np.random.default_rng(13)
    g = make_grid(Domain((0.0,), (1.0,)), 19, 15, 1.0)
    sets = [C1_CONST, heat_coeffs(b=0.2, f=-1.0, lam=-0.3), C1_TIME]
    terms = [random_field(rng, g) for _ in sets]
    for i in (0, 1, 0, 0, 1, 1, 2, 0, 2, 2, 1):
        _assert_matches_reference(g, sets[i], terminal=terms[i])


def _count_dgbtrf(monkeypatch) -> list:
    """Patch the stepper's dgbtrf to record the node count of every factorisation."""
    calls = []

    def spy(ab, *args, **kwargs):
        calls.append(ab.shape[1])
        return dgbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(stepper, "dgbtrf", spy)
    return calls


def test_store_factors_a_problem_once_or_each_level_once_per_sweep(monkeypatch):
    rng = np.random.default_rng(18)
    g = make_grid(Domain((0.0,), (1.0,)), 9, 12, 1.0)
    calls = _count_dgbtrf(monkeypatch)
    # t-independent: one factor serves every sweep, every feedback-matrix column included
    src, term = random_st_field(rng, g), random_field(rng, g)
    solve_terminal(CauchyProblem(g, C1_CONST, source=src, terminal=term))
    solve_nonlocal(NonlocalProblem(CauchyProblem(g, C1_CONST, src, term), InitialValue(weight=0.5)))
    solve_terminal(CauchyProblem(g, C1_CONST, terminal=term))
    fm = assemble_feedback_matrix(NonlocalProblem(CauchyProblem(g, C1_CONST), InitialValue(weight=0.5)))
    assert fm.matrix.shape == (g.n_interior, g.n_interior)
    assert calls == [g.n_interior]
    # t-dependent: each sweep factors every level, once
    calls.clear()
    for _ in range(3):
        solve_terminal(CauchyProblem(g, C1_TIME, terminal=term))
    assert len(calls) == 3 * g.nt


@pytest.mark.parametrize("nx,coeffs", [(9, C1_TIME), ((6, 9), C2_TIME)], ids=["1d", "2d"])
def test_every_factorisation_of_a_store_writes_into_its_one_band_storage(monkeypatch, nx, coeffs):
    lo, hi = ((0.0,), (1.0,)) if coeffs.dim == 1 else ((0.0, -1.0), (1.0, 1.0))
    g = make_grid(Domain(lo, hi), nx, 12, 0.8)
    term = random_field(np.random.default_rng(25), g)
    factored = []  # kept alive, so that distinct storages have distinct addresses

    def spy(ab, *args, **kwargs):
        lu, piv, info = dgbtrf(ab, *args, **kwargs)
        assert np.shares_memory(lu, ab)  # factored in place
        factored.append(ab)
        return lu, piv, info

    monkeypatch.setattr(stepper, "dgbtrf", spy)
    for _ in range(2):
        _assert_matches_reference(g, coeffs, terminal=term)
    assert len(factored) == 2 * g.nt
    addresses = {ab.ctypes.data for ab in factored}
    assert len(addresses) == 1
    assert addresses == {_store(g, coeffs).ab.ctypes.data}


@pytest.mark.parametrize("coeffs,refused,t", [(C1_CONST, 1, "0"), (C1_TIME, 3, "0.6")], ids=["constant-in-t", "time"])
def test_a_refused_factorisation_leaves_no_slot_factored(monkeypatch, coeffs, refused, t):
    # the spy refuses factorisation number `refused` of the store: the storage
    # is left as filled, with valid pivots, so a slot taken for factored would solve
    g = make_grid(Domain((0.0,), (1.0,)), 9, 12, 0.8)
    term = random_field(np.random.default_rng(26), g)
    calls = []

    def spy(ab, *args, **kwargs):
        calls.append(ab.shape[1])
        if len(calls) == refused:
            return ab, np.arange(1, ab.shape[1] + 1, dtype=np.int32), 1
        return dgbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(stepper, "dgbtrf", spy)
    with pytest.raises(LinearSolveError, match=rf"^singular system at t = {t} \(dgbtrf info 1\)$"):
        solve_terminal(CauchyProblem(g, coeffs, terminal=term))
    assert _store(g, coeffs).factored is None
    _assert_matches_reference(g, coeffs, terminal=term)


@pytest.mark.parametrize("coeffs", [heat_coeffs(), C1_TIME])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_terminal_raises(coeffs, bad):
    g = make_grid(Domain((0.0,), (1.0,)), 11, 6, 1.0)
    term = SpaceField.zeros(g)
    term.values[4] = bad  # past SpaceField's own check
    with pytest.raises(LinearSolveError):
        solve_terminal(CauchyProblem(g, coeffs, terminal=term))


@pytest.mark.parametrize("coeffs", [heat_coeffs(), C1_TIME])
@pytest.mark.parametrize("T, terminal", [(1.0, 1.7e308), (10.0, 0.0)])
def test_an_rhs_that_overflows_from_finite_data_is_a_range_error(coeffs, T, terminal):
    # nt = 2: the first step's rhs terminal + dt*source overflows, through dt*source alone when dt = 5;
    # a numpy warning would fail this suite
    g = make_grid(Domain((0.0,), (1.0,)), 9, 2, T)
    term = SpaceField(g, np.full(g.interior_shape, terminal))
    src = SpaceTimeField(g, np.full((g.nt + 1,) + g.interior_shape, 1e308))
    with pytest.raises(SolutionRangeError, match="a backward step from finite data overflows: the data are too large"):
        solve_terminal(CauchyProblem(g, coeffs, source=src, terminal=term))


@pytest.mark.parametrize("coeffs", [heat_coeffs(), C1_TIME])
def test_non_finite_data_or_coefficients_are_not_a_range_error(coeffs):
    g = make_grid(Domain((0.0,), (1.0,)), 9, 2, 1.0)
    src = SpaceTimeField.zeros(g)
    src.values[1, 3] = np.inf  # past SpaceTimeField's own check
    with pytest.raises(LinearSolveError, match="residual") as err:
        solve_terminal(CauchyProblem(g, coeffs, source=src))
    assert not isinstance(err.value, SolutionRangeError)
    for b in ("exp(1000)", "0.1*exp(2000*t)"):
        with pytest.raises(LinearSolveError, match=r"the step matrix at t = \S+ is not finite"):
            solve_terminal(CauchyProblem(g, CoefficientSet.create(1, b=b), terminal=SpaceField.zeros(g)))


# b12 nonzero at every node, and (on the (6, 9) grid, t > 0) at the node
# (0.8, 0.75) alone, where only the (-1, -1) neighbour exists
C2_MIXED_TIME = CoefficientSet.create(
    2, b=[["0.2 + 0.1*t", "0.05 + 0.03*x2*cos(t)"], ["0.05 + 0.03*x2*cos(t)", 0.15]], f=["x1", "-0.3*t"], lam="-0.2*t"
)
C2_MIXED_ONE_NODE = CoefficientSet.create(
    2, b=[["0.2 + 0.1*t", "t*max(x1 - 0.7, 0)*max(x2 - 0.6, 0)"], ["t*max(x1 - 0.7, 0)*max(x2 - 0.6, 0)", 0.15]]
)


def _grid_2d(nx=(6, 9), nt=12, T=0.8):
    return make_grid(Domain((0.0, -1.0), (1.0, 1.0)), nx, nt, T)


def _count_b_at(monkeypatch) -> list:
    """Patch CoefficientSet.b_at to record the distinct times of every call
    (one per level of the chunk that it evaluates)."""
    calls = []
    real = CoefficientSet.b_at

    def spy(self, points, t):
        calls.append(np.unique(t).tolist())
        return real(self, points, t)

    monkeypatch.setattr(CoefficientSet, "b_at", spy)
    return calls


def test_level_store_serves_every_later_sweep(monkeypatch):
    def problem():
        return _grid_2d(), CoefficientSet.create(2, b=["0.2 + 0.1*t", "0.1 + 0.05*x1"], f=["0.4*cos(t)", "-0.3"], lam="-0.2*t")

    (g1, c1), (g2, c2) = problem(), problem()
    assert g1 is not g2 and c1 is not c2
    rng = np.random.default_rng(15)
    src, term = random_st_field(rng, g1), random_field(rng, g1)
    calls = _count_b_at(monkeypatch)
    first = solve_terminal(CauchyProblem(g1, c1, source=src, terminal=term))
    second = solve_terminal(CauchyProblem(g2, c2, source=src, terminal=term))
    # the first sweep assembles every level in one chunk of 12 x 28 points; the second, none again
    assert calls == [[g1.dt * k for k in range(g1.nt)]]
    assert (_store.cache_info().hits, _store.cache_info().misses) == (1, 1)
    u, worst, resids = _reference_sweep(g1, c1, source=src, terminal=term)
    for out in (first, second):
        assert out.u.values.tobytes() == u.tobytes()
        assert out.diagnostics.worst_positive_offdiag == worst
        assert out.diagnostics.max_linear_residual == max(resids)


def test_level_store_never_serves_another_problem():
    rng = np.random.default_rng(16)
    c_other = CoefficientSet.create(1, b="0.2 - 0.1*t*x", f="-1 + t", lam="-0.3*t")
    grids = [make_grid(Domain((0.0,), (1.0,)), 19, 15, 1.0), make_grid(Domain((0.0,), (1.0,)), 19, 15, 0.6)]
    problems = [(grids[0], C1_TIME), (grids[0], c_other), (grids[1], C1_TIME), (_grid_2d(), C2_TIME), (_grid_2d(nt=15), C2_TIME)]
    terms = [random_field(rng, g) for g, _ in problems]
    for i in (0, 1, 0, 2, 2, 0, 1, 1, 3, 4, 3, 0):
        g, c = problems[i]
        _assert_matches_reference(g, c, terminal=terms[i])


C2_DIAG = CoefficientSet.create(2, b=[0.2, "0.1 + 0.05*x1"], f=[0.4, -0.3], lam=-0.2)


@pytest.mark.parametrize(
    "coeffs,n_bands", [(C2_TIME, 5), (C2_MIXED_TIME, 9), (C2_MIXED_ONE_NODE, 6), (C2_DIAG, 5), (C2_CONST, 9)]
)
def test_level_store_keeps_every_band_that_is_nonzero_somewhere(coeffs, n_bands):
    rng = np.random.default_rng(17)
    g = _grid_2d()
    src, term = random_st_field(rng, g), random_field(rng, g)
    _assert_matches_reference(g, coeffs, source=src, terminal=term)
    _assert_matches_reference(g, coeffs, source=src, terminal=term)  # from the store
    store = _store(g, coeffs)
    assert store.nslots == (g.nt if coeffs.is_time_dependent else 1)
    assert len(store.bands) == n_bands
    for e in store.bands.values():
        assert e.shape == (store.nslots, g.n_interior)
        assert not e.flags.writeable  # shared by every sweep
    for j in range(1, store.nslots) or [0]:  # b12 of C2_MIXED_ONE_NODE vanishes at t = 0
        assert sum(bool(np.any(e[j])) for e in store.bands.values()) == n_bands
    assert store.w == g.interior_shape[1] + 1  # the stencil's, whichever bands are stored


# b, f and lam take powers of t, and f a power whose exponent reads t
C1_POWER_T = CoefficientSet.create(1, b="(0.2 + t)^3", f="x^(1 + t) - 0.5", lam="-(t^3)")
# not finite at t = 0.3 and t = 0.7 alone (exp(1000) at those levels, exp(-9000) at the next ones)
C1_TWO_BAD_LEVELS = CoefficientSet.create(
    1, b="0.1 + 0.01*x*(1 - x)*(exp(1e6*(0.001 - (t - 0.3)*(t - 0.3))) + exp(1e6*(0.001 - (t - 0.7)*(t - 0.7))))"
)
GRID_2D_BENCH = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 33, 40, 1.0)  # 961 nodes x 40 levels: 5 chunks
GRID_1D_LONG = make_grid(Domain((0.0,), (1.0,)), 23, 2000, 0.8)  # 21 nodes x 2000 levels: 6 chunks


def _assert_store_matches_the_per_level_reference(g, c):
    store = _store(g, c)
    levels = [reference_level(g, c, g.dt * j) for j in range(store.nslots)]
    zeros = np.zeros(g.n_interior).tobytes()
    for j, level in enumerate(levels):
        # the level's bands in its own order, every other stored band zero (+0.0) at this slot
        assert [k for k in store.bands if k in level.bands] == list(level.bands)
        for k, e in store.bands.items():
            assert e[j].tobytes() == (level.bands[k].tobytes() if k in level.bands else zeros)
        assert store.w == level.w
    assert set(store.bands) == set().union(*(level.bands for level in levels))
    assert store.worst_positive_offdiag == max([0.0] + [level.worst_positive_offdiag for level in levels])


C2_POWER_T = CoefficientSet.create(2, b=["(0.3 + t)^2", "0.1 + 0.05*x1"], f=["x1^(1 + t)", "-0.3"], lam=-0.2)
GRID_1D = make_grid(Domain((0.0,), (1.0,)), 23, 30, 0.8)


@pytest.mark.parametrize(
    "g,coeffs",
    [
        pytest.param(_grid_2d(), C2_TIME, id="2d-time"),
        pytest.param(_grid_2d(), C2_MIXED_TIME, id="2d-mixed-time"),
        pytest.param(_grid_2d(), C2_MIXED_ONE_NODE, id="2d-mixed-one-node"),
        pytest.param(_grid_2d(), C2_DIAG, id="2d-diagonal"),
        pytest.param(_grid_2d(), C2_CONST, id="2d-constant-in-t"),
        pytest.param(_grid_2d(), C2_POWER_T, id="2d-power-of-t"),
        pytest.param(GRID_1D, C1_TIME, id="1d-time"),
        pytest.param(GRID_1D, C1_POWER_T, id="1d-power-of-t"),
        pytest.param(GRID_2D_BENCH, C2_MIXED_TIME, id="2d-mixed-time-chunks"),
        pytest.param(GRID_2D_BENCH, C2_TIME, id="2d-time-chunks"),
        pytest.param(GRID_1D_LONG, C1_TIME, id="1d-time-chunks"),
    ],
)
def test_store_matches_the_per_level_reference(g, coeffs):
    _assert_store_matches_the_per_level_reference(g, coeffs)


def test_the_store_assembles_a_chunk_of_levels_per_evaluation(monkeypatch):
    calls = _count_b_at(monkeypatch)
    _store(GRID_2D_BENCH, C2_TIME)
    # 8192 // 961 = 8 levels per chunk, the level times each once and in order
    assert [len(times) for times in calls] == [8, 8, 8, 8, 8]
    assert sum(calls, []) == [GRID_2D_BENCH.dt * j for j in range(40)]
    calls.clear()
    _store(GRID_2D_BENCH, CoefficientSet.create(2, b="0.1 + 0.01*t^2"))
    assert [len(times) for times in calls] == [8, 8, 8, 8, 8]  # a power of t: the same chunks


@pytest.mark.parametrize("coeffs", [C1_TIME, C1_CONST, C2_TIME], ids=["1d-time", "1d-constant-in-t", "2d-time"])
def test_a_sweep_whose_residual_is_rescaled_matches_the_per_step_reference(coeffs):
    # data near the top of the float range: M x overflows at the steps near the terminal level
    lo, hi = ((0.0,), (1.0,)) if coeffs.dim == 1 else ((0.0, -1.0), (1.0, 1.0))
    g = make_grid(Domain(lo, hi), 23 if coeffs.dim == 1 else (6, 9), 30, 0.8)
    level = reference_level(g, coeffs, g.dt * (g.nt - 1))
    scale = np.finfo(float).max / (0.8 * np.max(level.bands[0]))
    term = SpaceField(g, scale * random_field(np.random.default_rng(24), g).values)
    with np.errstate(over="ignore"):
        assert np.isinf(level.bands[0] * term.values.ravel()).any()
    resids = _assert_matches_reference(g, coeffs, terminal=term)
    assert all(math.isfinite(r) for r in resids)


def test_the_step_matrix_error_names_the_highest_level_that_is_not_finite():
    g = make_grid(Domain((0.0,), (1.0,)), 2049, 10, 1.0)  # 2047 nodes x 10 levels: 4, 4 and 2 levels
    with pytest.raises(LinearSolveError, match=r"^the step matrix at t = 0.7 is not finite$"):
        solve_terminal(CauchyProblem(g, C1_TWO_BAD_LEVELS))


def test_a_level_store_too_large_for_the_size_rule_is_refused_before_any_allocation():
    # the solution and one factor fit (72.3M doubles); 1200 levels of 5 bands on 199 x 199 nodes do not
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 201, 1200, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(GridError) as err:
            solve_terminal(CauchyProblem(g, C2_TIME))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "nx = [201, 201] and nt = 1200 ask a solve to hold 3.1e+08 doubles, "
        "2.38e+08 of them in the level store, more than the limit of 2.68e+08"
    )
    assert peak < 2**20


def test_nonlocal_solve_matches_a_picard_loop_of_fresh_systems():
    rng = np.random.default_rng(19)
    g = make_grid(Domain((0.0,), (1.0,)), 23, 30, 0.8)
    spec = InitialValue(weight=0.6)
    src, rhs = random_st_field(rng, g), random_field(rng, g)
    sol = solve_nonlocal(NonlocalProblem(CauchyProblem(g, C1_TIME, src, rhs), spec), tol=1e-10)
    assert sol.report.converged and sol.report.iterations > 5

    def sweep(terminal, source=None):
        return SpaceTimeField(g, _reference_sweep(g, C1_TIME, terminal, source)[0])

    compiled = _compile(spec, g)
    u_src = sweep(SpaceField.zeros(g), src)
    src_term = compiled.apply(u_src).values
    phi = rhs.values
    for _ in range(sol.report.iterations):
        phi = rhs.values + src_term + compiled.apply(sweep(SpaceField(g, phi))).values
    u = u_src.values + sweep(SpaceField(g, phi)).values
    assert sol.u.values.tobytes() == u.tobytes()


# The stepper loads dgbtrf and dgbtrs from scipy.linalg._flapack's file, not
# through the scipy.linalg package import.  The checks below that need a
# fresh interpreter run one through _fresh.

SRC = str(Path(bspde.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """stdout of `code` run by a fresh interpreter that imports bspde from this tree."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_leaves_scipy_linalg_and_sparse_out():
    # either package import costs about 0.1 s of every CLI run; difflib, which
    # only a config with an unknown entry needs, adds about 128 KB of RSS, and
    # concurrent.futures, which only a path run needs, about 3 ms
    mods = json.loads(_fresh("import json, sys, bspde.cli; print(json.dumps(sorted(sys.modules)))"))
    assert "scipy.linalg._flapack" in mods
    assert "scipy.linalg" not in mods
    assert "scipy.sparse" not in mods
    assert "difflib" not in mods
    assert "concurrent.futures" not in mods


@pytest.mark.parametrize("nx", [12, (6, 9)])
def test_stepper_routines_match_scipy_lapack_bit_for_bit(nx):
    g, c = _one_step_problem(nx)
    level, n = reference_level(g, c, 0.0), g.n_interior
    w = level.w
    assert w == (1 if g.dim == 1 else g.interior_shape[1] + 1)
    ab = _band_storage(level, n)
    b = np.random.default_rng(23).uniform(-1.0, 1.0, n)
    ours = stepper.dgbtrf(ab.copy(order="F"), w, w)
    theirs = dgbtrf(ab.copy(order="F"), w, w)
    assert ours[2] == theirs[2] == 0
    assert ours[0].tobytes() == theirs[0].tobytes() and ours[1].tobytes() == theirs[1].tobytes()
    x_ours, info_ours = stepper.dgbtrs(ours[0], w, w, b, ours[1])
    x_theirs, info_theirs = dgbtrs(theirs[0], w, w, b, theirs[1])
    assert info_ours == info_theirs == 0
    assert x_ours.tobytes() == x_theirs.tobytes()


@pytest.mark.parametrize("order", ["bspde.stepper, scipy.linalg.lapack", "scipy.linalg.lapack, bspde.stepper"])
def test_one_flapack_module_whichever_is_imported_first(order):
    out = _fresh(
        f"import sys, {order}\n"
        "from bspde import stepper\n"
        "from scipy.linalg import lapack\n"
        "print(stepper.dgbtrf is lapack.dgbtrf, stepper.dgbtrs is lapack.dgbtrs)\n"
        "print(sys.modules['scipy.linalg._flapack'] is lapack._flapack)"
    )
    assert out.split() == ["True", "True", "True"]


# importlib patched before bspde is imported: the stepper's file lookup
# misses, finds a file that does not load (a scipy root {root} whose
# linalg/_flapack file is not a shared object), or (a programming error in the
# loader) gets no spec for the file it found
_LOOKUPS = {
    "direct": "",
    "missing": "importlib.util.find_spec = lambda name, package=None: None",
    "unloadable": """
import importlib.machinery
scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
scipy_spec.submodule_search_locations = [{root!r}]
importlib.util.find_spec = lambda name, package=None: scipy_spec
""",
    "no spec": "importlib.util.spec_from_file_location = lambda name, location: None",
}

_SOLVE = """
import hashlib
import numpy as np
from bspde import CauchyProblem, CoefficientSet, Domain, SpaceField, make_grid, solve_terminal, stepper
public = "scipy.linalg" in sys.modules  # imported only by the fallback
g = make_grid(Domain((0.0, -1.0), (1.0, 1.0)), (6, 9), 8, 0.5)
c = CoefficientSet.create(2, b=[[0.2, 0.05], [0.05, "0.15 + 0.05*t"]], f=["2 - 4*x1", "x2"], lam=-0.7)
out = solve_terminal(CauchyProblem(g, c, terminal=SpaceField(g, np.random.default_rng(7).uniform(-1, 1, g.interior_shape))))
from scipy.linalg import lapack
same = stepper.dgbtrf is lapack.dgbtrf and stepper.dgbtrs is lapack.dgbtrs
print(public, same, hashlib.sha256(out.u.values.tobytes()).hexdigest())
"""


def _solve_with_lookup(lookup: str, root: str = "") -> list[str]:
    return _fresh("import importlib.util, sys\n" + _LOOKUPS[lookup].format(root=root) + _SOLVE).split()


def test_public_import_serves_when_the_flapack_file_is_missing_or_unloadable(tmp_path):
    (tmp_path / "linalg").mkdir()
    (tmp_path / "linalg" / ("_flapack" + EXTENSION_SUFFIXES[0])).write_bytes(b"not a shared object")
    public, same, digest = _solve_with_lookup("direct")
    assert (public, same) == ("False", "True")
    for lookup in ("missing", "unloadable"):
        assert _solve_with_lookup(lookup, str(tmp_path)) == ["True", "True", digest]


def test_a_loader_fault_is_not_taken_for_a_missing_file():
    with pytest.raises(AssertionError, match="AttributeError"):
        _solve_with_lookup("no spec")
