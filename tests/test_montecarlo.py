import math

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
    decompose,
    feynman_kac,
    make_grid,
)
from bspde import montecarlo
from bspde.montecarlo import _interval_confinement, _simulate, comparison_to_csv


def heat_setup(nx=101, nt=100, b=0.1):
    dom = Domain((0.0,), (1.0,))
    g = make_grid(dom, nx, nt, 1.0)
    coeffs = CoefficientSet.create(1, b=b)
    return dom, g, coeffs, decompose(coeffs, g)


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


def test_confinement_bound_reference_case():
    dom, g, coeffs, _ = heat_setup()
    nb = confinement_bound(dom, coeffs, g, 1.0)
    assert nb.Dhat1 == (pytest.approx(-1.0), pytest.approx(1.0))
    assert nb.delta_qv == pytest.approx(0.2)
    assert nb.nu == pytest.approx(0.9493, abs=2e-4)
    assert nb.sqrt_nu == pytest.approx(0.9743, abs=2e-4)
    assert 0.0 < nb.nu < 1.0


def test_confinement_bound_monotone_in_inputs():
    dom, g, _, _ = heat_setup()
    nus_in_gap = [
        confinement_bound(dom, CoefficientSet.create(1, b=0.1), g, th).nu for th in (0.25, 0.5, 1.0, 2.0)
    ]
    assert all(a > b for a, b in zip(nus_in_gap, nus_in_gap[1:]))
    nus_in_b = [confinement_bound(dom, CoefficientSet.create(1, b=b), g, 1.0).nu for b in (0.05, 0.1, 1.0)]
    assert all(a > b for a, b in zip(nus_in_b, nus_in_b[1:]))
    # the gap -> 0 limit approaches certainty of staying inside
    assert confinement_bound(dom, CoefficientSet.create(1, b=0.1), g, 0.01).nu > 0.99


def test_confinement_bound_drift_widens_interval():
    dom, g, _, _ = heat_setup()
    coeffs = CoefficientSet.create(1, b=0.1, f=0.7)
    nb = confinement_bound(dom, coeffs, g, 1.0)
    assert nb.K1 == pytest.approx(-1.0 - 0.7)
    assert nb.K2 == pytest.approx(0.0 + 0.7)
    assert nb.Dhat1 == (pytest.approx(-1.7), pytest.approx(1.7))
    with pytest.raises(ValueError):
        confinement_bound(dom, coeffs, g, 0.0)


def test_mc_confinement_below_analytic_bound():
    dom, g, coeffs, dec = heat_setup(nx=41, nt=50)
    cfg = PathConfig(dt_mc=1e-3, n_paths=10000, seed=11)
    nb = confinement_bound(dom, coeffs, g, 1.0)
    for x in (0.3, 0.5, 0.8):
        est = confinement_probability(dec, [x], 0.0, 1.0, cfg)
        assert est.mean <= nb.nu + 3 * est.stderr
    # zero gap: everyone is still inside
    est0 = confinement_probability(dec, [0.5], 0.0, 0.0, cfg)
    assert est0.mean == 1.0
    assert est0.n_exited == 0


def test_mc_confinement_matches_exact_law():
    # dy = sqrt(2b) dW from the center of (0,1): exact survival by time change
    dom, g, coeffs, dec = heat_setup(nx=41, nt=50)
    cfg = PathConfig(dt_mc=2e-4, n_paths=20000, seed=4)
    est = confinement_probability(dec, [0.5], 0.0, 1.0, cfg)
    exact = _images_confinement(0.0, 1.0, 0.5, 0.2)
    # sampled-exit bias inflates survival; allow it on top of 3 sigma
    assert est.mean >= exact - 3 * est.stderr
    assert est.mean <= exact + 3 * est.stderr + 0.03


def test_very_long_gap_empties_the_box():
    dom, g, coeffs, dec = heat_setup(nx=21, nt=10)
    cfg = PathConfig(dt_mc=0.05, n_paths=2000, seed=3)
    est = confinement_probability(dec, [0.5], 0.0, 100.0, cfg)
    assert est.mean <= 0.01


def test_feynman_kac_at_terminal_time_is_exact():
    dom, g, coeffs, dec = heat_setup(nx=21, nt=10)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    cfg = PathConfig(dt_mc=0.05, n_paths=500, seed=9)
    est = feynman_kac(dec, [0.3], g.T, cfg, terminal=term)
    assert est.mean == pytest.approx(math.sin(math.pi * 0.3), abs=1e-12)
    assert est.stderr == 0.0
    assert est.n_exited == 0


def test_feynman_kac_eigenmode():
    dom, g, coeffs, dec = heat_setup(nx=101, nt=200)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    cfg = PathConfig(dt_mc=2e-4, n_paths=20000, seed=21)
    est = feynman_kac(dec, [0.5], 0.0, cfg, terminal=term)
    target = math.exp(-0.1 * math.pi**2)
    assert abs(est.mean - target) <= 3 * est.stderr + 0.02


def test_feynman_kac_occupation_bound():
    dom, g, coeffs, dec = heat_setup(nx=21, nt=20)
    src = SpaceTimeField(g, np.ones((g.nt + 1,) + g.interior_shape))
    cfg = PathConfig(dt_mc=0.01, n_paths=2000, seed=5)
    est = feynman_kac(dec, [0.5], 0.25, cfg, source=src)
    assert 0.0 < est.mean <= g.T - 0.25 + 1e-12


def test_feynman_kac_deterministic_per_seed():
    dom, g, coeffs, dec = heat_setup(nx=21, nt=20)
    term = SpaceField.from_function(g, lambda x: x * (1 - x))
    cfg = PathConfig(dt_mc=0.01, n_paths=3000, seed=1234)
    a = feynman_kac(dec, [0.4], 0.0, cfg, terminal=term)
    b = feynman_kac(dec, [0.4], 0.0, cfg, terminal=term)
    assert a == b  # bit-identical dataclasses
    c = feynman_kac(dec, [0.4], 0.0, PathConfig(dt_mc=0.01, n_paths=3000, seed=99), terminal=term)
    assert c.mean != a.mean


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
            decompose(CoefficientSet.create(1, b=0.3, f=0.2, lam=-0.7), g1),
            [([0.5], 0.0), ([0.3], 0.25)],
            SpaceField.from_function(g1, lambda x: np.sin(np.pi * x)),
            SpaceTimeField.from_function(g1, lambda x, t: 1.0 + x * (1 - x) * (1 + t)),
        ),
        (
            decompose(variable, g2),
            [([0.4, 0.5], 0.0), ([0.7, 0.3], 0.25)],
            SpaceField.from_function(g2, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2)),
            SpaceTimeField.from_function(g2, lambda x1, x2, t: 1.0 + x1 * x2 * np.exp(-t)),
        ),
    ]
    cfg = PathConfig(dt_mc=1 / 64, n_paths=300, seed=8)
    for dec, starts, term, src in cases:
        checked = [(np.asarray(x, dtype=float), s) for x, s in starts]
        v_mid, alive_mid = _simulate(dec, checked, 0.5, cfg, terminal=term, source=src)
        v_end, alive_end = _simulate(dec, checked, 1.0, cfg, terminal=term, source=src)
        gone = ~alive_mid
        assert np.count_nonzero(gone) > 100, "expected many exits by 0.5"
        assert not (alive_end & gone).any()
        assert v_end[gone].tobytes() == v_mid[gone].tobytes()
        assert (v_mid[gone] > 0).all()


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(dt_mc=0.0, n_paths=1000, seed=1)
    with pytest.raises(ValueError):
        PathConfig(dt_mc=0.01, n_paths=50, seed=1)
    dom, g, coeffs, dec = heat_setup(nx=21, nt=10)  # grid dt = 0.1
    cfg = PathConfig(dt_mc=0.5, n_paths=200, seed=1)
    with pytest.raises(ValueError):
        confinement_probability(dec, [0.5], 0.0, 1.0, cfg)
    with pytest.raises(ValueError):
        feynman_kac(dec, [1.5], 0.0, PathConfig(dt_mc=0.05, n_paths=200, seed=1))


def test_compare_mc_pde_zero_problem():
    dom, g, coeffs, dec = heat_setup(nx=21, nt=20)
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
    dom, g, coeffs, dec = heat_setup(nx=21, nt=20)
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
    dec = decompose(coeffs, g)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    cfg = PathConfig(dt_mc=5e-4, n_paths=20000, seed=13)
    est = feynman_kac(dec, [0.5], 0.0, cfg, terminal=term)
    target = math.exp(-(0.1 * math.pi**2 + 1.0))
    assert abs(est.mean - target) <= 3 * est.stderr + 0.01


def test_feynman_kac_2d_product_eigenmode():
    dom = Domain((0.0, 0.0), (1.0, 1.0))
    g = make_grid(dom, (41, 41), 100, 0.5)
    coeffs = CoefficientSet.create(2, b=[0.1, 0.1])
    dec = decompose(coeffs, g)
    term = SpaceField.from_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    cfg = PathConfig(dt_mc=5e-4, n_paths=20000, seed=17)
    est = feynman_kac(dec, [0.5, 0.5], 0.0, cfg, terminal=term)
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
