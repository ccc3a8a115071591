import importlib.util
import math
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from scipy.stats import norm

from bspde import (
    CauchyProblem,
    CoefficientSet,
    Domain,
    PathConfig,
    SpaceField,
    SpaceTimeField,
    compare_mc_pde,
    confinement_bound,
    confinement_probability,
    feynman_kac,
    make_grid,
)
from bspde import montecarlo
from bspde.coefficients import CoefficientError
from bspde.montecarlo import MonteCarloError, _interval_confinement, _simulate, comparison_to_csv


def heat_setup(nx=101, nt=100, b=0.1):
    dom = Domain((0.0,), (1.0,))
    g = make_grid(dom, nx, nt, 1.0)
    coeffs = CoefficientSet.create(1, b=b)
    return dom, g, coeffs, CauchyProblem(g, coeffs)


# ---------------------------------------------------------------------------
# Interval-confinement series vs an independent image-sum oracle
# ---------------------------------------------------------------------------


def _images_confinement(lo, hi, x0, tau, n_images=20):
    """P(BM in (lo,hi) up to tau) by the reflection/image-charge expansion of
    the absorbing-interval kernel; independent of the eigen-series route."""
    L = hi - lo
    s = 0.0
    rt = math.sqrt(tau)
    for k in range(-n_images, n_images + 1):
        s += norm.cdf((hi - x0 - 2 * k * L) / rt) - norm.cdf((lo - x0 - 2 * k * L) / rt)
        s -= norm.cdf((hi + x0 - 2 * lo - 2 * k * L) / rt) - norm.cdf((lo + x0 - 2 * lo - 2 * k * L) / rt)
    return s


@pytest.mark.parametrize(
    "lo,hi,x0,tau",
    [(-1.0, 1.0, 0.0, 0.2), (-1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 0.5, 0.2), (0.0, 2.0, 0.3, 0.5), (-1.5, 0.7, -0.2, 0.05)],
)
def test_series_matches_image_sum(lo, hi, x0, tau):
    got, _ = _interval_confinement(lo, hi, x0, tau)
    want = _images_confinement(lo, hi, x0, tau)
    assert got == pytest.approx(want, abs=1e-10)


def test_series_truncation_stable():
    got, terms = _interval_confinement(-1.0, 1.0, 0.0, 0.2)
    # doubling the number of terms moves the value by <= 1e-12
    k = 1
    total = 0.0
    c = math.pi**2 * 0.2 / 8.0
    for _ in range(2 * terms):
        total += (4.0 / (k * math.pi)) * math.sin(k * math.pi / 2) * math.exp(-(k**2) * c)
        k += 2
    assert abs(total - got) <= 1e-12


@pytest.mark.parametrize(
    "lo,hi,x0,tau", [(-math.inf, 1.0, 0.0, 1.0), (-1.0, math.inf, 0.0, 1.0), (-1.0, 1.0, math.nan, 1.0), (-1.0, 1.0, 0.0, math.inf)]
)
def test_interval_confinement_rejects_non_finite_inputs(lo, hi, x0, tau):
    with pytest.raises(MonteCarloError, match="must be finite"):
        _interval_confinement(lo, hi, x0, tau)


@pytest.mark.parametrize("tau", [1e-3, 1e-300])
def test_a_short_confinement_time_gives_the_clamp_without_summing(tau):
    # 1 - 2 erfc(1/sqrt(2 tau)) is already the largest double below 1
    assert _interval_confinement(-1.0, 1.0, 0.0, tau) == (float(np.nextafter(1.0, 0.0)), 0)


@pytest.mark.parametrize("lo,hi,x0", [(-1.0, 1e200, -0.5), (-1.0, 1e5, -0.5)])
def test_a_confinement_series_too_long_to_sum_raises(lo, hi, x0):
    with pytest.raises(MonteCarloError, match="too long"):
        _interval_confinement(lo, hi, x0, 0.2)


@pytest.mark.parametrize(
    "hi,f,nu",
    [(1e-300, 0.0, float(np.nextafter(0.0, 1.0))), (1.0, 1e308, float(np.nextafter(1.0, 0.0)))],
)
def test_confinement_bound_of_an_extreme_interval(hi, f, nu):
    # the widened interval is 2e-300 long (L**2 underflows), or 2e308 (L overflows)
    dom = Domain((0.0,), (hi,))
    g = make_grid(dom, 11, 10, 1.0)
    assert confinement_bound(CoefficientSet.create(1, b=0.1, f=f), g, 1.0).nu == nu


def test_confinement_bound_reference_case():
    dom, g, coeffs, _ = heat_setup()
    nb = confinement_bound(coeffs, g, 1.0)
    assert nb.Dhat1 == (pytest.approx(-1.0), pytest.approx(1.0))
    assert nb.delta_qv == pytest.approx(0.2)
    assert nb.nu == pytest.approx(0.9493, abs=2e-4)
    assert nb.sqrt_nu == pytest.approx(0.9743, abs=2e-4)
    assert 0.0 < nb.nu < 1.0


def test_confinement_bound_monotone_in_inputs():
    dom, g, _, _ = heat_setup()
    nus_in_gap = [
        confinement_bound(CoefficientSet.create(1, b=0.1), g, th).nu for th in (0.25, 0.5, 1.0, 2.0)
    ]
    assert all(a > b for a, b in zip(nus_in_gap, nus_in_gap[1:]))
    nus_in_b = [confinement_bound(CoefficientSet.create(1, b=b), g, 1.0).nu for b in (0.05, 0.1, 1.0)]
    assert all(a > b for a, b in zip(nus_in_b, nus_in_b[1:]))
    # the gap -> 0 limit approaches certainty of staying inside
    assert confinement_bound(CoefficientSet.create(1, b=0.1), g, 0.01).nu > 0.99


def test_confinement_bound_drift_widens_interval():
    dom, g, _, _ = heat_setup()
    coeffs = CoefficientSet.create(1, b=0.1, f=0.7)
    nb = confinement_bound(coeffs, g, 1.0)
    assert nb.K1 == pytest.approx(-1.0 - 0.7)
    assert nb.K2 == pytest.approx(0.0 + 0.7)
    assert nb.Dhat1 == (pytest.approx(-1.7), pytest.approx(1.7))
    with pytest.raises(MonteCarloError):
        confinement_bound(coeffs, g, 0.0)


def test_mc_confinement_below_analytic_bound():
    dom, g, coeffs, heat = heat_setup(nx=41, nt=50)
    cfg = PathConfig(dt_mc=1e-3, n_paths=10000, seed=11)
    nb = confinement_bound(coeffs, g, 1.0)
    for x in (0.3, 0.5, 0.8):
        est = confinement_probability(heat, [x], 0.0, 1.0, cfg)
        assert est.mean <= nb.nu + 3 * est.stderr
    # zero gap: everyone is still inside
    est0 = confinement_probability(heat, [0.5], 0.0, 0.0, cfg)
    assert est0.mean == 1.0
    assert est0.n_exited == 0


def test_mc_confinement_matches_exact_law():
    # dy = sqrt(2b) dW from the center of (0,1): exact survival by time change
    dom, g, coeffs, heat = heat_setup(nx=41, nt=50)
    cfg = PathConfig(dt_mc=2e-4, n_paths=20000, seed=4)
    est = confinement_probability(heat, [0.5], 0.0, 1.0, cfg)
    exact = _images_confinement(0.0, 1.0, 0.5, 0.2)
    # sampled-exit bias inflates survival; allow it on top of 3 sigma
    assert est.mean >= exact - 3 * est.stderr
    assert est.mean <= exact + 3 * est.stderr + 0.03


def test_very_long_gap_empties_the_box():
    dom, g, coeffs, heat = heat_setup(nx=21, nt=10)
    cfg = PathConfig(dt_mc=0.05, n_paths=2000, seed=3)
    est = confinement_probability(heat, [0.5], 0.0, 100.0, cfg)
    assert est.mean <= 0.01


def test_feynman_kac_at_terminal_time_is_exact():
    dom, g, coeffs, _ = heat_setup(nx=21, nt=10)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    cfg = PathConfig(dt_mc=0.05, n_paths=500, seed=9)
    est = feynman_kac(CauchyProblem(g, coeffs, terminal=term), [0.3], g.T, cfg)
    assert est.mean == pytest.approx(math.sin(math.pi * 0.3), abs=1e-12)
    assert est.stderr == 0.0
    assert est.n_exited == 0


def test_feynman_kac_eigenmode():
    dom, g, coeffs, _ = heat_setup(nx=101, nt=200)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    cfg = PathConfig(dt_mc=2e-4, n_paths=20000, seed=21)
    est = feynman_kac(CauchyProblem(g, coeffs, terminal=term), [0.5], 0.0, cfg)
    target = math.exp(-0.1 * math.pi**2)
    assert abs(est.mean - target) <= 3 * est.stderr + 0.02


def test_feynman_kac_occupation_bound():
    dom, g, coeffs, _ = heat_setup(nx=21, nt=20)
    src = SpaceTimeField(g, np.ones((g.nt + 1,) + g.interior_shape))
    cfg = PathConfig(dt_mc=0.01, n_paths=2000, seed=5)
    est = feynman_kac(CauchyProblem(g, coeffs, source=src), [0.5], 0.25, cfg)
    assert 0.0 < est.mean <= g.T - 0.25 + 1e-12


def test_an_estimate_near_the_float_range_is_the_scaled_estimate():
    # the squares of 2**1000 * sin overflow; the mean and the stderr must not
    dom, g, coeffs, _ = heat_setup(nx=21, nt=20)
    term = SpaceField.from_function(g, lambda x: np.sin(3 * x))
    cfg = PathConfig(dt_mc=2e-3, n_paths=200, seed=7)
    est = feynman_kac(CauchyProblem(g, coeffs, terminal=term), [0.5], 0.0, cfg)
    big = feynman_kac(CauchyProblem(g, coeffs, terminal=SpaceField(g, np.ldexp(term.values, 1000))), [0.5], 0.0, cfg)
    assert est.stderr > 0
    assert (big.mean, big.stderr) == (math.ldexp(est.mean, 1000), math.ldexp(est.stderr, 1000))


def test_feynman_kac_deterministic_per_seed():
    dom, g, coeffs, _ = heat_setup(nx=21, nt=20)
    term = SpaceField.from_function(g, lambda x: x * (1 - x))
    cfg = PathConfig(dt_mc=0.01, n_paths=3000, seed=1234)
    problem = CauchyProblem(g, coeffs, terminal=term)
    a = feynman_kac(problem, [0.4], 0.0, cfg)
    b = feynman_kac(problem, [0.4], 0.0, cfg)
    assert a == b  # bit-identical dataclasses
    c = feynman_kac(problem, [0.4], 0.0, PathConfig(dt_mc=0.01, n_paths=3000, seed=99))
    assert c.mean != a.mean


def test_the_tracer_reads_a_feynman_kac_call(monkeypatch):
    """The benchmark's span reader takes the horizon from args[0].grid.T, s
    from args[2] and the path step from args[3]: (problem, x, s, cfg)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave the benchmark's directory as it is
    spec = importlib.util.spec_from_file_location("tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    _, g, coeffs, _ = heat_setup(nx=21, nt=10)
    args = (CauchyProblem(g, coeffs, terminal=SpaceField.zeros(g)), [0.3], 0.25, PathConfig(dt_mc=0.05, n_paths=200, seed=3))
    out = feynman_kac(*args)
    assert 0 < out.n_exited < 200
    assert tracing.ATTRS_OF["montecarlo.feynman_kac"](args, {}, out) == {"paths": 200, "steps": 15, "exited": out.n_exited}


def test_paths_freeze_after_exit(monkeypatch):
    """A path that has exited never changes again.  Run the engine to the
    horizons 0.5 and 1.0 on the same seed: every path gone by 0.5 keeps its
    value bit for bit, and no path gone by 0.5 is alive at 1.0.  A positive
    source makes every exit value positive, so an unwritten one shows."""
    monkeypatch.setattr(montecarlo, "BATCH_SIZE", 128)  # several batches at a small cost
    g1 = make_grid(Domain((0.0,), (1.0,)), 21, 20, 1.0)
    g2 = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 11, 20, 1.0)
    variable = CoefficientSet.create(
        2,
        b=[["0.2 + 0.1*x1", "0.03*cos(t)"], ["0.03*cos(t)", "0.15 + 0.05*x2*t"]],
        f=["0.3*cos(2*t)", "-0.2*x1"],
        lam="-0.3 - 0.2*x2",
    )
    cases = [
        (
            CauchyProblem(
                g1,
                CoefficientSet.create(1, b=0.3, f=0.2, lam=-0.7),
                SpaceTimeField.from_function(g1, lambda x, t: 1.0 + x * (1 - x) * (1 + t)),
                SpaceField.from_function(g1, lambda x: np.sin(np.pi * x)),
            ),
            [([0.5], 0.0), ([0.3], 0.25)],
        ),
        (
            CauchyProblem(
                g2,
                variable,
                SpaceTimeField.from_function(g2, lambda x1, x2, t: 1.0 + x1 * x2 * np.exp(-t)),
                SpaceField.from_function(g2, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2)),
            ),
            [([0.4, 0.5], 0.0), ([0.7, 0.3], 0.25)],
        ),
    ]
    cfg = PathConfig(dt_mc=1 / 64, n_paths=300, seed=8)
    for problem, starts in cases:
        checked = [(np.asarray(x, dtype=float), s) for x, s in starts]
        v_mid, alive_mid = _simulate(problem, checked, 0.5, cfg)
        v_end, alive_end = _simulate(problem, checked, 1.0, cfg)
        gone = ~alive_mid
        assert np.count_nonzero(gone) > 100, "expected many exits by 0.5"
        assert not (alive_end & gone).any()
        assert v_end[gone].tobytes() == v_mid[gone].tobytes()
        assert (v_mid[gone] > 0).all()


@pytest.mark.parametrize("which", ["terminal", "source"])
def test_a_problem_refuses_data_on_another_grid(which):
    # the same interior shape and levels with T = 2: the paths would read it as the data at t = T = 1
    _, g, coeffs, _ = heat_setup(nx=21, nt=10)
    later = make_grid(g.domain, 21, 10, 2.0)
    field = SpaceField(later, np.ones(19)) if which == "terminal" else SpaceTimeField(later, np.ones((11, 19)))
    with pytest.raises(ValueError, match=f"the {which} field lies on another grid"):
        CauchyProblem(g, coeffs, **{which: field})


def test_path_config_validation():
    with pytest.raises(MonteCarloError):
        PathConfig(dt_mc=0.0, n_paths=1000, seed=1)
    with pytest.raises(MonteCarloError):
        PathConfig(dt_mc=0.01, n_paths=50, seed=1)
    # range() and default_rng take no float, so a float is refused here, integral or not
    faults = [("n_paths", 1000.0), ("n_paths", math.nan), ("n_paths", True), ("seed", 2.0), ("seed", math.nan), ("seed", False)]
    for name, value in faults:
        with pytest.raises(MonteCarloError, match=f"^{name} must be an integer, got {value!r}$"):
            PathConfig(**{"dt_mc": 0.01, "n_paths": 1000, "seed": 1, name: value})
    assert PathConfig(dt_mc=0.01, n_paths=np.int64(1000), seed=np.uint32(3)).seed == 3
    dom, g, coeffs, heat = heat_setup(nx=21, nt=10)  # grid dt = 0.1
    cfg = PathConfig(dt_mc=0.5, n_paths=200, seed=1)
    with pytest.raises(MonteCarloError):
        confinement_probability(heat, [0.5], 0.0, 1.0, cfg)
    with pytest.raises(MonteCarloError):
        feynman_kac(heat, [1.5], 0.0, PathConfig(dt_mc=0.05, n_paths=200, seed=1))


class Fault(NamedTuple):
    """One bad input on the 1-D heat grid of step 0.01 up to T = 1, and what it raises."""

    error: type
    message: str
    x: tuple = (0.5,)
    s: float = 0.0
    dt_mc: float = 0.01
    coeffs: dict = {"b": 0.1}
    theta_gap: float = 0.5


START_FAULTS = {
    "outside-the-box": Fault(MonteCarloError, "start point (1.5,) must lie strictly inside the domain", x=(1.5,)),
    "x-too-long": Fault(
        MonteCarloError, "start point (0.5, 0.5) must have one coordinate per grid axis (1)", x=(0.5, 0.5)
    ),
    "x-empty": Fault(MonteCarloError, "start point () must have one coordinate per grid axis (1)", x=()),
    "x-not-a-number": Fault(
        MonteCarloError, "start point ('a',) at s = 0.0 must be numbers: could not convert string to float: 'a'", x=("a",)
    ),
    "x-beyond-the-double-range": Fault(
        MonteCarloError,
        f"start point ({10**400},) at s = 0.0 must be numbers: int too large to convert to float",
        x=(10**400,),
    ),
    # confinement_probability adds s to theta_gap for its horizon, so it checks s first
    "s-not-a-number": Fault(
        MonteCarloError, "start point (0.5,) at s = 'a' must be numbers: could not convert string to float: 'a'", s="a"
    ),
    "s-beyond-the-double-range": Fault(
        MonteCarloError, f"start point (0.5,) at s = {10**400} must be numbers: int too large to convert to float", s=10**400
    ),
    "beyond-the-horizon": Fault(MonteCarloError, "s = 1.2 is beyond the horizon T = 1.0", s=1.2),
    "s-nan": Fault(MonteCarloError, "need 0 <= s <= horizon, got s=nan", s=math.nan),
    "dt_mc-above-the-grid-step": Fault(MonteCarloError, "dt_mc = 0.1 exceeds the grid step 0.01", dt_mc=0.1),
    "dt_mc-tiny": Fault(
        MonteCarloError, "dt_mc = 1e-300 asks for more path steps to the horizon than numpy can index", dt_mc=1e-300
    ),
    # the run's checks come before any start's, and the coefficients' before dt_mc's
    "dt_mc-before-the-start": Fault(MonteCarloError, "dt_mc = 0.1 exceeds the grid step 0.01", x=(1.5,), dt_mc=0.1),
    "coefficients-before-the-start": Fault(
        CoefficientError,
        "uniform ellipticity violated: margin delta = -0.1 at x = (0.0,), t = 0",
        x=(1.5,),
        dt_mc=0.1,
        coeffs={"b": 0.4, "beta": [[1.0]]},
    ),
}
# the two checks of confinement_probability and confinement_bound themselves
OWN_FAULTS = {
    "theta_gap-negative": Fault(MonteCarloError, "theta_gap must be >= 0, got -0.5", theta_gap=-0.5),
    "theta_gap-nan": Fault(MonteCarloError, "theta_gap must be >= 0, got nan", theta_gap=math.nan),
    "theta_gap-beyond-the-double-range": Fault(
        MonteCarloError, f"theta_gap = {10**400} must be a number: int too large to convert to float", theta_gap=10**400
    ),
    "b-zero": Fault(MonteCarloError, "smallest eigenvalue of 2b must be positive", coeffs={"b": 0.0}),
}
ESTIMATES = {
    "feynman_kac": lambda problem, f, cfg: feynman_kac(problem, f.x, f.s, cfg),
    "confinement_probability": lambda problem, f, cfg: confinement_probability(problem, f.x, f.s, f.theta_gap, cfg),
    "compare_mc_pde": lambda problem, f, cfg: compare_mc_pde(problem, [[*f.x, f.s]], cfg),
    "confinement_bound": lambda problem, f, cfg: confinement_bound(problem.coeffs, problem.grid, f.theta_gap),
}
PATH_ESTIMATES = ("feynman_kac", "confinement_probability", "compare_mc_pde")


@pytest.mark.parametrize(
    "estimate, fault",
    [
        # confinement_probability's paths run to s + theta_gap, so no start lies beyond their horizon
        *(
            (e, f)
            for f in START_FAULTS
            for e in PATH_ESTIMATES
            if (e, f) != ("confinement_probability", "beyond-the-horizon")
        ),
        *(("confinement_probability", f) for f in OWN_FAULTS if f.startswith("theta_gap")),
        ("confinement_bound", "b-zero"),
    ],
)
def test_every_path_estimate_refuses_a_fault_with_the_same_message(estimate, fault):
    fault = {**START_FAULTS, **OWN_FAULTS}[fault]
    _, g, _, _ = heat_setup(nx=21, nt=100)
    problem = CauchyProblem(g, CoefficientSet.create(1, **fault.coeffs))
    with pytest.raises(fault.error, match=re.escape(fault.message)):
        ESTIMATES[estimate](problem, fault, PathConfig(dt_mc=fault.dt_mc, n_paths=100, seed=1))


@pytest.mark.parametrize(
    "point,message",
    [
        ([], "sample point [] must end in its time s"),
        ([0.5, "a"], "start point (0.5,) at s = 'a' must be numbers: could not convert string to float: 'a'"),
        ([0.5, 10**400], f"start point (0.5,) at s = {10**400} must be numbers: int too large to convert to float"),
    ],
    ids=["empty", "s-not-a-number", "s-beyond-the-double-range"],
)
def test_compare_mc_pde_refuses_a_point_that_is_not_numbers(point, message):
    _, g, coeffs, _ = heat_setup(nx=21, nt=100)
    with pytest.raises(MonteCarloError, match=f"^{re.escape(message)}$"):
        compare_mc_pde(CauchyProblem(g, coeffs), [[0.5, 0.0], point], PathConfig(dt_mc=0.01, n_paths=100, seed=1))


def test_compare_mc_pde_zero_problem():
    dom, g, coeffs, _ = heat_setup(nx=21, nt=20)
    problem = CauchyProblem(grid=g, coeffs=coeffs, source=None, terminal=SpaceField.zeros(g))
    cfg = PathConfig(dt_mc=0.01, n_paths=500, seed=2)
    rows = compare_mc_pde(problem, [[0.5, 0.0], [0.25, 0.5]], cfg)
    for r in rows:
        assert r.pde == 0.0 and r.mc == 0.0 and r.z == 0.0 and not r.flagged


def test_compare_mc_pde_negative_control_flags_mismatch():
    dom, g, coeffs, _ = heat_setup(nx=41, nt=50)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    problem = CauchyProblem(grid=g, coeffs=coeffs, source=None, terminal=term)
    cfg = PathConfig(dt_mc=1e-3, n_paths=5000, seed=6)
    wrong = CoefficientSet.create(1, b=0.1, lam=-2.0)  # discount missing on the grid side
    rows = compare_mc_pde(problem, [[0.5, 0.0]], cfg, mc_coeffs=wrong)
    assert rows[0].flagged
    good = compare_mc_pde(problem, [[0.5, 0.0]], cfg)
    assert not good[0].flagged


def test_comparison_csv_format():
    dom, g, coeffs, _ = heat_setup(nx=21, nt=20)
    problem = CauchyProblem(grid=g, coeffs=coeffs, source=None, terminal=SpaceField.zeros(g))
    cfg = PathConfig(dt_mc=0.01, n_paths=200, seed=2)
    rows = compare_mc_pde(problem, [[0.5, 0.0]], cfg)
    text = comparison_to_csv(rows, 1)
    lines = text.strip().split("\n")
    assert lines[0] == "x1,s,pde,mc,stderr,z"
    assert len(lines) == 2


def test_discount_sign_against_closed_form():
    # lam = -1 multiplies the eigenmode value by exp(-T); the estimator must
    # discount in the same direction as the grid solver
    dom = Domain((0.0,), (1.0,))
    g = make_grid(dom, 101, 100, 1.0)
    coeffs = CoefficientSet.create(1, b=0.1, lam=-1.0)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    cfg = PathConfig(dt_mc=5e-4, n_paths=20000, seed=13)
    est = feynman_kac(CauchyProblem(g, coeffs, terminal=term), [0.5], 0.0, cfg)
    target = math.exp(-(0.1 * math.pi**2 + 1.0))
    assert abs(est.mean - target) <= 3 * est.stderr + 0.01


def test_feynman_kac_2d_product_eigenmode():
    dom = Domain((0.0, 0.0), (1.0, 1.0))
    g = make_grid(dom, (41, 41), 100, 0.5)
    coeffs = CoefficientSet.create(2, b=[0.1, 0.1])
    term = SpaceField.from_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    cfg = PathConfig(dt_mc=5e-4, n_paths=20000, seed=17)
    est = feynman_kac(CauchyProblem(g, coeffs, terminal=term), [0.5, 0.5], 0.0, cfg)
    target = math.exp(-0.2 * math.pi**2 * 0.5)
    assert abs(est.mean - target) <= 3 * est.stderr + 0.03


def test_feynman_kac_variable_coefficients_vs_pde():
    # space-dependent diffusion and drift exercise the pathwise evaluation route
    dom = Domain((0.0,), (1.0,))
    g = make_grid(dom, 101, 200, 1.0)
    coeffs = CoefficientSet.create(1, b="0.1 + 0.05*x*(1-x)", f="0.3*(1-2*x)", lam="-0.2*x")
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    problem = CauchyProblem(grid=g, coeffs=coeffs, source=None, terminal=term)
    cfg = PathConfig(dt_mc=5e-4, n_paths=20000, seed=23)
    rows = compare_mc_pde(problem, [[0.5, 0.0], [0.3, 0.25]], cfg)
    for r in rows:
        assert not r.flagged, (r.pde, r.mc, r.stderr)


def test_feynman_kac_with_gradient_weights_vs_pde():
    # part of the quadratic variation carried by a wall-vanishing beta column:
    # the estimator must still reproduce the grid solution for diffusion b
    dom = Domain((0.0,), (1.0,))
    g = make_grid(dom, 101, 200, 1.0)
    coeffs = CoefficientSet.create(1, b=0.15, beta=[["0.5*x*(1-x)"]])
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    problem = CauchyProblem(grid=g, coeffs=coeffs, source=None, terminal=term)
    cfg = PathConfig(dt_mc=5e-4, n_paths=20000, seed=29)
    rows = compare_mc_pde(problem, [[0.5, 0.0]], cfg)
    assert not rows[0].flagged, (rows[0].pde, rows[0].mc, rows[0].stderr)
