"""Acceptance suite: every criterion at its stated scale and tolerance, one
printed PASS/FAIL line each (run with -s to see the lines as they go)."""

import json
import math

import numpy as np
import pytest

from bspde import (
    CauchyProblem,
    CoefficientSet,
    Domain,
    InitialValue,
    NonlocalProblem,
    PathConfig,
    PointInTime,
    SpaceField,
    SpaceTimeField,
    TimeKernel,
    TwoPoint,
    compare_mc_pde,
    confinement_bound,
    confinement_probability,
    make_grid,
    solve_nonlocal,
    solve_nonlocal_direct,
    solve_terminal,
    sup_norm,
)
from bspde.cli import main

from conftest import random_coeffs_1d, random_field, random_spec, random_st_field, validate_spec

RHO = math.exp(-0.1 * math.pi**2)  # eigenmode decay over T=1 at b=0.1


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _eigen_grid(nx=201, nt=400):
    return make_grid(Domain((0.0,), (1.0,)), nx, nt, 1.0)


def test_criterion_01_cauchy_eigenmode():
    g = _eigen_grid()
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    out = solve_terminal(CauchyProblem(g, CoefficientSet.create(1, b=0.1), terminal=term))
    amp = sup_norm(out.u.level(0))
    rel = abs(amp - RHO) / RHO
    _report(1, rel <= 0.01, f"Cauchy eigenmode amplitude {amp:.6f} vs {RHO:.6f} (rel err {rel:.2e} <= 1%)")


def test_criterion_02_nonlocal_geometric_series():
    g = _eigen_grid()
    xi = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    problem = NonlocalProblem(CauchyProblem(g, CoefficientSet.create(1, b=0.1), terminal=xi), InitialValue(0.5))
    sol = solve_nonlocal(problem, tol=1e-8)
    amp = sup_norm(sol.terminal)
    target = 1.0 / (1.0 - 0.5 * RHO)
    rel_amp = abs(amp - target) / target
    ratio_target = 0.5 * RHO
    worst_ratio = max(abs(r - ratio_target) / ratio_target for r in sol.report.ratios)
    ok = rel_amp <= 0.01 and worst_ratio <= 0.05
    _report(
        2,
        ok,
        f"terminal amplitude {amp:.6f} vs {target:.6f} (rel {rel_amp:.2e} <= 1%), "
        f"ratios within {worst_ratio:.2%} of {ratio_target:.4f} (<= 5%)",
    )


def test_criterion_03_bc_residual_battery():
    rng = np.random.default_rng(303)
    g = make_grid(Domain((0.0,), (1.0,)), 21, 30, 1.0)
    worst = 0.0
    for _ in range(50):
        coeffs = random_coeffs_1d(rng)
        spec = random_spec(rng, g)
        xi = random_field(rng, g)
        src = random_st_field(rng, g) if rng.random() < 0.5 else None
        sol = solve_nonlocal(NonlocalProblem(CauchyProblem(g, coeffs, src, xi), spec), tol=1e-8)
        assert sol.report.converged
        worst = max(worst, sol.report.bc_residual)
    _report(3, worst <= 1e-8, f"worst terminal-condition residual {worst:.2e} <= 1e-8 over 50 random instances")


def test_criterion_04_picard_vs_direct_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        nx = int(rng.integers(9, 32))
        nt = int(rng.integers(10, 40))
        g = make_grid(Domain((0.0,), (1.0,)), nx, nt, 1.0)
        coeffs = random_coeffs_1d(rng)
        spec = random_spec(rng, g)
        xi = random_field(rng, g)
        src = random_st_field(rng, g) if rng.random() < 0.5 else None
        a = solve_nonlocal(NonlocalProblem(CauchyProblem(g, coeffs, src, xi), spec), tol=1e-11)
        b = solve_nonlocal_direct(NonlocalProblem(CauchyProblem(g, coeffs, src, xi), spec))
        worst = max(worst, float(np.max(np.abs(a.u.values - b.u.values))))
    _report(4, worst <= 1e-8, f"Picard vs dense-inverse difference {worst:.2e} <= 1e-8 over 20 instances")


def test_criterion_05_discrete_maximum_principle():
    rng = np.random.default_rng(505)
    worst_excess = -np.inf
    worst_contract = -np.inf
    for _ in range(200):
        nx = int(rng.integers(9, 33))
        nt = int(rng.integers(5, 30))
        T = float(rng.uniform(0.3, 2.0))
        g = make_grid(Domain((0.0,), (1.0,)), nx, nt, T)
        coeffs = random_coeffs_1d(rng)
        src = random_st_field(rng, g, scale=rng.uniform(0.1, 3.0))
        term = random_field(rng, g, scale=rng.uniform(0.1, 3.0))
        out = solve_terminal(CauchyProblem(g, coeffs, source=src, terminal=term))
        assert out.diagnostics.monotone
        worst_excess = max(worst_excess, sup_norm(out.u) - (sup_norm(term) + T * sup_norm(src)))
        contract = sup_norm(solve_terminal(CauchyProblem(g, coeffs, terminal=term)).u) - sup_norm(term)
        worst_contract = max(worst_contract, contract)
    ok = worst_excess <= 1e-12 and worst_contract <= 1e-12
    _report(
        5,
        ok,
        f"max-principle excess {worst_excess:.2e} and terminal-response contraction excess "
        f"{worst_contract:.2e} both <= 1e-12 over 200 monotone instances",
    )


def test_criterion_06_contraction_vs_confinement_bound():
    g = _eigen_grid(nx=101, nt=200)
    coeffs = CoefficientSet.create(1, b=0.1)
    xi = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    specs = [
        InitialValue(0.8),
        PointInTime(0.9, 0.25),
        TimeKernel(theta=0.5, kernel=2.0),
        TwoPoint(0.5, 0.1, 0.5, 0.45),
    ]
    details = []
    ok = True
    heat = CauchyProblem(g, coeffs)
    cfg = PathConfig(dt_mc=1e-3, n_paths=10000, seed=606)
    for spec in specs:
        theta = validate_spec(spec, g).theta
        assert theta <= 0.5 * g.T
        nu = confinement_bound(coeffs, g, g.T - theta).nu
        sol = solve_nonlocal(NonlocalProblem(CauchyProblem(g, coeffs, terminal=xi), spec), tol=1e-10)
        tail = sol.report.ratios[-3:]
        eventual = float(np.median(tail))
        ok &= eventual <= math.sqrt(nu) + 0.05
        est = confinement_probability(heat, [0.5], 0.0, g.T - theta, cfg)
        ok &= est.mean <= nu + 3.0 * est.stderr
        details.append(f"theta={theta:.2f}: ratio {eventual:.3f} <= sqrt({nu:.3f})+0.05, mc {est.mean:.3f} <= nu+3se")
    _report(6, ok, "; ".join(details))


def test_criterion_07_feynman_kac_oracle():
    g = _eigen_grid()
    coeffs = CoefficientSet.create(1, b=0.1)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    problem = CauchyProblem(grid=g, coeffs=coeffs, source=None, terminal=term)
    cfg = PathConfig(dt_mc=1e-4, n_paths=100000, seed=707)
    pts = [[0.2, 0.0], [0.35, 0.0], [0.5, 0.0], [0.65, 0.0], [0.8, 0.0]]
    rows = compare_mc_pde(problem, pts, cfg)
    ok = not any(r.flagged for r in rows)
    detail = "; ".join(f"x={r.x[0]}: pde {r.pde:.4f} mc {r.mc:.4f} (z={r.z:.2f})" for r in rows)
    _report(7, ok, f"path estimator vs grid solution at 5 points, 1e5 paths, dt=1e-4: {detail}")


def test_criterion_08_solution_bound():
    rng = np.random.default_rng(808)
    g = make_grid(Domain((0.0,), (1.0,)), 21, 30, 1.0)
    T = g.T
    worst_margin = np.inf
    for _ in range(30):
        coeffs = random_coeffs_1d(rng)
        spec = random_spec(rng, g)
        theta = validate_spec(spec, g).theta
        xi = random_field(rng, g)
        src = random_st_field(rng, g) if rng.random() < 0.5 else None
        sol = solve_nonlocal(NonlocalProblem(CauchyProblem(g, coeffs, src, xi), spec), tol=1e-8)
        nu = confinement_bound(coeffs, g, T - theta).nu
        C = T + (1 + T) / (1 - math.sqrt(nu))
        rhs = C * ((sup_norm(src) if src is not None else 0.0) + sup_norm(xi))
        worst_margin = min(worst_margin, rhs - sup_norm(sol.u))
    _report(
        8,
        worst_margin >= 0.0,
        f"sup(u) <= [T + (1+T)/(1-sqrt(nu))](sup source + sup data) with slack >= {worst_margin:.3f} over 30 runs",
    )


def test_criterion_09_grid_convergence_orders():
    def order(f_drift):
        sols = []
        for nx in (26, 51, 101):
            g = make_grid(Domain((0.0,), (1.0,)), nx, 200, 1.0)
            c = CoefficientSet.create(1, b=0.1, f=f_drift)
            term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
            sols.append(solve_terminal(CauchyProblem(g, c, terminal=term)).u.values[0])
        d1 = np.max(np.abs(sols[0] - sols[1][1::2]))
        d2 = np.max(np.abs(sols[1] - sols[2][1::2]))
        return float(np.log2(d1 / d2))

    o_central = order(0.0)
    o_upwind = order(2.0)
    ok = o_central >= 1.8 and o_upwind >= 0.9
    _report(9, ok, f"Richardson order {o_central:.2f} >= 1.8 (central), {o_upwind:.2f} >= 0.9 (upwind)")


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "domain": {"lo": [0.0], "hi": [1.0]},
        "grid": {"nx": [41], "nt": 50, "T": 1.0},
        "coefficients": {"b": [[0.1]], "f": [0.0], "lam": -0.2},
        "gamma": {"type": "initial_value", "weight": 0.5},
        "data": {"terminal": "sin(3.141592653589793*x)", "source": "0.1*x*(1-x)*t"},
        "fixedpoint": {"tol": 1e-8, "max_iter": 200},
        "montecarlo": {"dt_mc": 0.005, "n_paths": 2000, "seed": 1010, "points": [[0.5, 0.0], [0.3, 0.5]]},
        "output": {"dir": "out"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    pairs = []
    for cmd, artifact in (("solve", "solution.csv"), ("mccheck", "mccheck.csv")):
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{cmd}{run}"
            assert main([cmd, "--config", str(path), "--out", str(out)]) == 0
            rep = json.loads((out / "report.json").read_text())
            rep.pop("timing_seconds")
            outs.append(((out / artifact).read_bytes(), rep))
        pairs.append(outs[0] == outs[1])
    _report(10, all(pairs), "solve and mccheck reruns byte-identical (reports compared minus timing)")
