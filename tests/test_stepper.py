import math

import numpy as np
import pytest

from bspde import (
    CoefficientSet,
    Domain,
    SpaceField,
    SpaceTimeField,
    make_grid,
    solve_terminal,
    source_response,
    sup_norm,
    terminal_response,
)
from bspde.stepper import LinearSolveError
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


@pytest.mark.parametrize("nx", [3, 12, (3, 3), (3, 9), (9, 3), (5, 4), (6, 9)])
def test_one_step_against_dense(nx):
    # one backward step (nt=1) against a dense solve; drift changes sign across
    # the box and b12 != 0, so stride order, row-end wrap-around and flat-offset
    # collisions on thin grids all show up as mismatches
    rng = np.random.default_rng(5)
    if isinstance(nx, int):
        g = make_grid(Domain((0.0,), (1.0,)), nx, 1, 0.3)
        c = CoefficientSet.create(1, b="0.1 + 0.05*x", f="3*x - 1.5", lam="-0.5 - x")
    else:
        g = make_grid(Domain((0.0, -1.0), (1.0, 1.0)), nx, 1, 0.3)
        c = CoefficientSet.create(
            2, b=[[0.2, "0.05 + 0.03*x2"], ["0.05 + 0.03*x2", 0.15]], f=["2 - 4*x1", "x2"], lam=-0.7
        )
    src, term = random_st_field(rng, g), random_field(rng, g)
    out = solve_terminal(g, c, source=src, terminal=term)
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
        solve_terminal(g, c)


def test_zero_problem_gives_zero():
    g = make_grid(Domain((0.0,), (1.0,)), 21, 10, 1.0)
    out = solve_terminal(g, heat_coeffs())
    assert sup_norm(out.u) == 0.0


def test_eigenmode_decay_1d():
    # separation of variables: terminal sin(pi x) decays by exp(-b pi^2 T)
    g = make_grid(Domain((0.0,), (1.0,)), 201, 400, 1.0)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    out = solve_terminal(g, heat_coeffs(b=0.1), terminal=term)
    amp = sup_norm(out.u.level(0))
    assert amp == pytest.approx(math.exp(-0.1 * math.pi**2), rel=0.01)
    assert out.u.level(g.nt).values == pytest.approx(term.values)  # exact terminal


def test_eigenmode_with_zeroth_order_discount():
    g = make_grid(Domain((0.0,), (1.0,)), 201, 400, 1.0)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    out = solve_terminal(g, heat_coeffs(b=0.1, lam=-1.0), terminal=term)
    amp = sup_norm(out.u.level(0))
    assert amp == pytest.approx(math.exp(-0.1 * math.pi**2) * math.exp(-1.0), rel=0.01)


def test_source_response_reaches_steady_state():
    # long horizon with unit source: -b u'' = 1, so u = 5 x (1 - x) at b = 0.1
    g = make_grid(Domain((0.0,), (1.0,)), 51, 100, 20.0)
    src = SpaceTimeField(g, np.ones((g.nt + 1,) + g.interior_shape))
    u = source_response(g, heat_coeffs(b=0.1), src)
    xs = g.axis_coords(0)
    assert np.max(np.abs(u.values[0] - 5 * xs * (1 - xs))) <= 0.02 * 1.25
    assert sup_norm(u.level(0)) == pytest.approx(1.25, rel=0.02)


def test_source_zero_gives_zero():
    g = make_grid(Domain((0.0,), (1.0,)), 11, 5, 1.0)
    src = SpaceTimeField.zeros(g)
    assert sup_norm(source_response(g, heat_coeffs(), src)) == 0.0


def test_linearity_1d():
    rng = np.random.default_rng(9)
    g = make_grid(Domain((0.0,), (1.0,)), 17, 12, 1.0)
    c = random_coeffs_1d(rng)
    for _ in range(10):
        p1, p2 = random_st_field(rng, g), random_st_field(rng, g)
        F1, F2 = random_field(rng, g), random_field(rng, g)
        a, b = rng.uniform(-2, 2, 2)
        combo = solve_terminal(
            g,
            c,
            source=SpaceTimeField(g, a * p1.values + b * p2.values),
            terminal=SpaceField(g, a * F1.values + b * F2.values),
        ).u
        u1 = solve_terminal(g, c, source=p1, terminal=F1).u
        u2 = solve_terminal(g, c, source=p2, terminal=F2).u
        assert np.max(np.abs(combo.values - a * u1.values - b * u2.values)) <= 1e-10


def test_operator_split_is_the_full_solve():
    rng = np.random.default_rng(10)
    g = make_grid(Domain((0.0,), (1.0,)), 17, 12, 1.0)
    c = random_coeffs_1d(rng)
    src = random_st_field(rng, g)
    term = random_field(rng, g)
    full = solve_terminal(g, c, source=src, terminal=term).u
    split = source_response(g, c, src).values + terminal_response(g, c, term).values
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
        out = solve_terminal(g, c, source=src, terminal=term)
        assert out.diagnostics.monotone
        bound = sup_norm(term) + T * sup_norm(src)
        assert sup_norm(out.u) <= bound + 1e-12
        # terminal response alone contracts the sup norm
        assert sup_norm(terminal_response(g, c, term)) <= sup_norm(term) + 1e-12


def test_max_principle_2d():
    rng = np.random.default_rng(43)
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (11, 13), 8, 1.0)
    c = CoefficientSet.create(2, b=[0.2, 0.1], f=[0.4, -0.3], lam=-0.2)
    for _ in range(10):
        src = random_st_field(rng, g)
        term = random_field(rng, g)
        out = solve_terminal(g, c, source=src, terminal=term)
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
    out = solve_terminal(g, c, source=src, terminal=term)
    exact = SpaceTimeField.from_function(g, uex)
    assert np.max(np.abs(out.u.values - exact.values)) <= 1e-9
    assert not out.diagnostics.monotone  # mixed term flagged
    assert out.diagnostics.worst_positive_offdiag > 0


def test_product_eigenmode_2d():
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (41, 41), 200, 0.5)
    c = CoefficientSet.create(2, b=[0.1, 0.1])
    term = SpaceField.from_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    out = solve_terminal(g, c, terminal=term)
    assert sup_norm(out.u.level(0)) == pytest.approx(math.exp(-0.2 * math.pi**2 * 0.5), rel=0.01)


def _richardson_order(f_drift: float) -> float:
    # same time grid throughout so only the spatial error enters the differences
    sols = []
    for nx in (26, 51, 101):
        g = make_grid(Domain((0.0,), (1.0,)), nx, 200, 1.0)
        c = heat_coeffs(b=0.1, f=f_drift)
        term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
        sols.append(solve_terminal(g, c, terminal=term).u.values[0])
    d1 = np.max(np.abs(sols[0] - sols[1][1::2]))
    d2 = np.max(np.abs(sols[1] - sols[2][1::2]))
    return float(np.log2(d1 / d2))


def test_grid_convergence_order_central():
    assert _richardson_order(0.0) >= 1.8


def test_grid_convergence_order_upwind():
    # drift strong enough that the first-order upwind error dominates at desk scale
    assert _richardson_order(2.0) >= 0.9


def test_time_dependent_coefficients_run():
    g = make_grid(Domain((0.0,), (1.0,)), 21, 20, 1.0)
    c = CoefficientSet.create(1, b="0.1 + 0.05*sin(3*t)", f="0.2*cos(t)", lam="-0.1*(1+t)")
    term = SpaceField.from_function(g, lambda x: x * (1 - x))
    out = solve_terminal(g, c, terminal=term)
    assert out.diagnostics.monotone
    assert sup_norm(out.u) <= sup_norm(term) + 1e-12


def test_level_argument_partial_horizon():
    g = make_grid(Domain((0.0,), (1.0,)), 21, 10, 1.0)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    out = solve_terminal(g, heat_coeffs(), terminal=term, level=5)
    assert out.u.n_levels == 6
    assert out.u.level(5).values == pytest.approx(term.values)
    with pytest.raises(ValueError):
        solve_terminal(g, heat_coeffs(), terminal=term, level=11)
