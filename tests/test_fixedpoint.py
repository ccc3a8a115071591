import math

import numpy as np
import pytest

from bspde import (
    CauchyProblem,
    CoefficientSet,
    Domain,
    FixedPointDivergence,
    GridError,
    InitialValue,
    NonlocalProblem,
    PointInTime,
    SpaceField,
    assemble_feedback_matrix,
    make_grid,
    solve_nonlocal,
    solve_nonlocal_direct,
    solve_terminal,
    sup_norm,
)

from conftest import random_coeffs_1d, random_field, random_spec, random_st_field


def heat(b=0.1):
    return CoefficientSet.create(1, b=b)


@pytest.fixture
def small_grid():
    return make_grid(Domain((0.0,), (1.0,)), 21, 30, 1.0)


def test_zero_problem_one_iteration(small_grid):
    zero = CauchyProblem(small_grid, heat(), terminal=SpaceField.zeros(small_grid))
    sol = solve_nonlocal(NonlocalProblem(zero, InitialValue(0.5)))
    assert sol.report.iterations == 1
    assert sol.report.converged
    assert sup_norm(sol.u) == 0.0
    assert sup_norm(sol.terminal) == 0.0


def test_kappa_zero_reduces_to_terminal_data(small_grid):
    rng = np.random.default_rng(0)
    xi = random_field(rng, small_grid)
    sol = solve_nonlocal(NonlocalProblem(CauchyProblem(small_grid, heat(), terminal=xi), PointInTime(0.0, 0.4)))
    assert np.array_equal(sol.terminal.values, xi.values)
    assert sol.report.iterations == 2
    assert sol.report.converged


def test_a_first_pass_within_tol_is_confirmed_by_a_second(small_grid):
    """A nonzero problem whose first difference |Phi_1 - Phi_0| is already
    below tol, and not zero, still takes one confirming pass."""
    xi = random_field(np.random.default_rng(3), small_grid)
    sol = solve_nonlocal(NonlocalProblem(CauchyProblem(small_grid, heat(), terminal=xi), InitialValue(1e-6)), tol=1e-3)
    assert 0.0 < sol.report.residuals[0] <= 1e-3
    assert sol.report.iterations == 2
    assert sol.report.converged
    assert sol.report.residuals[1] < sol.report.residuals[0]


def test_geometric_series_eigenmode():
    g = make_grid(Domain((0.0,), (1.0,)), 201, 400, 1.0)
    xi = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    sol = solve_nonlocal(NonlocalProblem(CauchyProblem(g, heat(0.1), terminal=xi), InitialValue(0.5)), tol=1e-8)
    rho = math.exp(-0.1 * math.pi**2)
    assert sup_norm(sol.terminal) == pytest.approx(1.0 / (1.0 - 0.5 * rho), rel=1e-2)
    ratio = 0.5 * rho
    for r in sol.report.ratios:
        assert r == pytest.approx(ratio, rel=0.05)
    assert sol.report.bc_residual <= 1e-8


def test_bc_residual_battery(small_grid):
    rng = np.random.default_rng(12)
    for _ in range(25):
        coeffs = random_coeffs_1d(rng)
        spec = random_spec(rng, small_grid)
        xi = random_field(rng, small_grid)
        src = random_st_field(rng, small_grid) if rng.random() < 0.5 else None
        sol = solve_nonlocal(NonlocalProblem(CauchyProblem(small_grid, coeffs, src, xi), spec), tol=1e-8)
        assert sol.report.converged
        assert sol.report.bc_residual <= 1e-8
        # iterate-difference stop, then the independent confirmation bound
        ratio = sol.report.ratios[-1] if sol.report.ratios else 0.0
        if ratio < 1.0:
            from conftest import validate_spec

            bound = validate_spec(spec, small_grid).norm_bound
            assert sol.report.bc_residual <= 1e-8 * (1 + bound / (1 - ratio)) + 1e-15


def test_picard_matches_direct_oracle():
    rng = np.random.default_rng(100)
    for trial in range(20):
        nx = int(rng.integers(9, 32))
        nt = int(rng.integers(10, 40))
        g = make_grid(Domain((0.0,), (1.0,)), nx, nt, 1.0)
        coeffs = random_coeffs_1d(rng)
        spec = random_spec(rng, g)
        xi = random_field(rng, g)
        src = random_st_field(rng, g) if rng.random() < 0.5 else None
        a = solve_nonlocal(NonlocalProblem(CauchyProblem(g, coeffs, src, xi), spec), tol=1e-11)
        b = solve_nonlocal_direct(NonlocalProblem(CauchyProblem(g, coeffs, src, xi), spec))
        assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-8
        assert np.max(np.abs(a.terminal.values - b.terminal.values)) <= 1e-8


def test_direct_trivial_cases(small_grid):
    zero = CauchyProblem(small_grid, heat(), terminal=SpaceField.zeros(small_grid))
    sol = solve_nonlocal_direct(NonlocalProblem(zero, InitialValue(0.9)))
    assert sup_norm(sol.terminal) == 0.0
    rng = np.random.default_rng(3)
    xi = random_field(rng, small_grid)
    sol2 = solve_nonlocal_direct(NonlocalProblem(CauchyProblem(small_grid, heat(), terminal=xi), PointInTime(0.0, 0.5)))
    assert np.allclose(sol2.terminal.values, xi.values, atol=1e-13)
    assert sol2.report.bc_residual <= 1e-12


def test_feedback_matrix_zero_for_zero_weight(small_grid):
    fm = assemble_feedback_matrix(NonlocalProblem(CauchyProblem(small_grid, heat()), PointInTime(0.0, 0.3)))
    assert fm.sup_norm == 0.0
    assert np.all(fm.matrix == 0.0)


def test_feedback_matrix_row_sums_bounded_by_max_principle(small_grid):
    fm = assemble_feedback_matrix(NonlocalProblem(CauchyProblem(small_grid, heat(0.1)), InitialValue(1.0)))
    assert np.all(fm.matrix >= -1e-14)  # monotone scheme: entrywise nonnegative
    assert fm.sup_norm <= 1.0 + 1e-12


def test_feedback_matrix_eigenmode_action():
    g = make_grid(Domain((0.0,), (1.0,)), 31, 100, 1.0)
    fm = assemble_feedback_matrix(NonlocalProblem(CauchyProblem(g, heat(0.1)), InitialValue(1.0)))
    v = np.sin(np.pi * g.axis_coords(0))
    rho = math.exp(-0.1 * math.pi**2)
    got = fm.matrix @ v
    assert np.max(np.abs(got - rho * v)) / rho <= 0.02


def test_feedback_matrix_cap():
    g = make_grid(Domain((0.0,), (1.0,)), 2003, 4, 1.0)  # 2001 interior nodes
    with pytest.raises(GridError, match="2001 interior nodes exceed the dense-matrix cap 2000"):
        assemble_feedback_matrix(NonlocalProblem(CauchyProblem(g, heat()), InitialValue(1.0)))
    with pytest.raises(GridError, match="dense-matrix cap"):
        solve_nonlocal_direct(NonlocalProblem(CauchyProblem(g, heat(), terminal=SpaceField.zeros(g)), InitialValue(0.5)))


def test_divergence_abort(small_grid):
    # bypass validation with a hand-built expanding operator: weight 25 at t=0
    spec = InitialValue(25.0)
    rng = np.random.default_rng(5)
    xi = random_field(rng, small_grid)
    import bspde.fixedpoint as fp
    from bspde.nonlocal_ops import _Compiled

    compiled = _Compiled(small_grid)
    compiled.level_weights[0] = 25.0
    compiled.max_level = 0
    compiled.norm_bound = 25.0
    orig = fp._compile
    fp._compile = lambda s, g: compiled
    try:
        with pytest.raises(FixedPointDivergence) as exc:
            problem = NonlocalProblem(CauchyProblem(small_grid, heat(0.01), terminal=xi), spec)
            solve_nonlocal(problem, tol=1e-10, max_iter=100)
        assert len(exc.value.report.ratios) >= 5
    finally:
        fp._compile = orig


def test_max_iter_returns_unconverged(small_grid):
    rng = np.random.default_rng(6)
    xi = random_field(rng, small_grid)
    problem = NonlocalProblem(CauchyProblem(small_grid, heat(0.001), terminal=xi), InitialValue(0.99))
    sol = solve_nonlocal(problem, tol=1e-14, max_iter=3)
    assert not sol.report.converged
    assert sol.report.iterations == 3


@pytest.mark.parametrize("kw", [{"tol": math.nan}, {"tol": 0.0}, {"max_iter": 0}])
def test_solve_nonlocal_rejects_bad_controls(small_grid, kw):
    xi = random_field(np.random.default_rng(6), small_grid)
    with pytest.raises(ValueError, match="tol must be positive|max_iter must be at least 1"):
        solve_nonlocal(NonlocalProblem(CauchyProblem(small_grid, heat(0.1), terminal=xi), InitialValue(0.5)), **kw)


@pytest.mark.parametrize("solve", [solve_nonlocal, solve_nonlocal_direct])
def test_terminal_data_on_another_grid_is_refused(small_grid, solve):
    # same interior shape on a box twice as wide: its values would be read as if on small_grid
    wide = make_grid(Domain((0.0,), (2.0,)), 21, 30, 1.0)
    with pytest.raises(ValueError, match="the terminal field lies on another grid"):
        solve(NonlocalProblem(CauchyProblem(small_grid, heat(), terminal=SpaceField(wide, np.ones(19))), InitialValue(0.5)))


def test_solution_bound_battery(small_grid):
    # sup u <= [T + (1+T)/(1-sqrt(nu))] (sup source + sup terminal-rhs)
    from bspde import confinement_bound
    from conftest import validate_spec

    rng = np.random.default_rng(77)
    T = small_grid.T
    for _ in range(20):
        coeffs = random_coeffs_1d(rng)
        spec = random_spec(rng, small_grid)
        theta = validate_spec(spec, small_grid).theta
        xi = random_field(rng, small_grid)
        src = random_st_field(rng, small_grid) if rng.random() < 0.5 else None
        sol = solve_nonlocal(NonlocalProblem(CauchyProblem(small_grid, coeffs, src, xi), spec), tol=1e-8)
        nu = confinement_bound(coeffs, small_grid, T - theta).nu
        C = T + (1 + T) / (1 - math.sqrt(nu))
        src_sup = sup_norm(src) if src is not None else 0.0
        assert sup_norm(sol.u) <= C * (src_sup + sup_norm(xi)) + 1e-12


@pytest.mark.parametrize("with_source", [False, True], ids=["no-source", "source"])
@pytest.mark.parametrize(
    "coeffs",
    [
        CoefficientSet.create(2, b=[[0.2, 0.05], [0.05, 0.3]], f=[0.3, -0.2], lam=-0.1),
        CoefficientSet.create(
            2, b=[["0.2 + 0.1*t", 0.05], [0.05, "0.3 - 0.1*t"]], f=["0.3*cos(t)", "0.1*t - 0.2"], lam="-0.1*(1 + t)"
        ),
    ],
    ids=["constant", "t-dependent"],
)
def test_picard_matches_direct_2d(coeffs, with_source):
    rng = np.random.default_rng(200)
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (7, 8), 12, 1.0)
    xi = random_field(rng, g)
    src = random_st_field(rng, g) if with_source else None
    spec = PointInTime(0.6, 0.5)
    a = solve_nonlocal(NonlocalProblem(CauchyProblem(g, coeffs, src, xi), spec), tol=1e-11)
    b = solve_nonlocal_direct(NonlocalProblem(CauchyProblem(g, coeffs, src, xi), spec))
    assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-8
    assert a.report.bc_residual <= 1e-10
    assert b.report.bc_residual <= 1e-12


def test_geometric_series_2d_product_eigenmode():
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (41, 41), 120, 0.5)
    coeffs = CoefficientSet.create(2, b=[0.1, 0.1])
    xi = SpaceField.from_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    sol = solve_nonlocal(NonlocalProblem(CauchyProblem(g, coeffs, terminal=xi), InitialValue(0.5)), tol=1e-9)
    rho = math.exp(-0.2 * math.pi**2 * 0.5)
    assert sup_norm(sol.terminal) == pytest.approx(1.0 / (1.0 - 0.5 * rho), rel=0.01)


def test_a_problem_compiles_once_and_sweeps_its_source_response_once(small_grid, monkeypatch):
    import bspde.fixedpoint as fp
    import bspde.nonlocal_ops as ops

    rng = np.random.default_rng(8)
    cauchy = CauchyProblem(small_grid, heat(0.1), random_st_field(rng, small_grid), random_field(rng, small_grid))
    problem = NonlocalProblem(cauchy, random_spec(rng, small_grid))
    compiles, sources = [], []
    real = ops._compile

    def compile_(spec, grid):
        compiles.append(spec)
        return real(spec, grid)

    def sweep(p):
        sources.append(p.source)
        return solve_terminal(p)

    for module in (fp, ops):
        monkeypatch.setattr(module, "_compile", compile_)
    monkeypatch.setattr(fp, "solve_terminal", sweep)
    picard = solve_nonlocal(problem, tol=1e-12)
    direct = solve_nonlocal_direct(problem)
    assert np.max(np.abs(picard.u.values - direct.u.values)) <= 1e-10
    assert compiles == []
    assert [s is cauchy.source for s in sources if s is not None] == [True]

