"""The batched path engine against an independent per-point reference.

`_reference_run_paths` runs one start point at a time with full-size state
updated through masks, and makes a draw block at every step of every
batch.  The engine shares each step's block between points, advances only
the paths still inside the box and stops a batch once all of them have
exited; none of that may change a single bit of any path's value.
BATCH_SIZE is shrunk so that several batches run at a small cost.
"""

import math

import numpy as np
import pytest

from bspde import CoefficientSet, Domain, PathConfig, SpaceField, SpaceTimeField, decompose, make_grid, validate
from bspde import montecarlo
from bspde.montecarlo import LAMBDA_DISCOUNT_SIGN, _FieldInterp, _simulate

SMALL_BATCH = 128
N_PATHS = 300  # batches of 128, 128 and 44


def _reference_run_paths(dec, x, s, horizon, cfg, terminal=None, source=None):
    grid = dec.grid
    coeffs = dec.coeffs
    domain = grid.domain
    dim = grid.dim
    x = np.asarray(x, dtype=float).reshape(dim)
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    n_steps = max(0, int(math.ceil((horizon - s) / cfg.dt_mc - 1e-12)))
    N = coeffs.n_beta
    M = dec.n_columns
    const = coeffs.is_constant
    if const:
        x0 = x[None, :]
        f_c = coeffs.f_at(x0, 0.0)[0]
        lam_c = float(coeffs.lam_at(x0, 0.0)[0])
        beta_c = coeffs.beta_at(x0, 0.0)[:, 0, :] if N else np.zeros((0, dim))
        btilde_c = dec.columns_at(x0, 0.0)[0]
    lam_zero = coeffs.lam_is_zero
    term_interp = _FieldInterp(grid, terminal.values[None]) if terminal is not None else None
    src_interp = _FieldInterp(grid, source.values) if source is not None else None
    batch = montecarlo.BATCH_SIZE

    values = np.empty(cfg.n_paths)
    alive_all = np.empty(cfg.n_paths, dtype=bool)
    for bi in range((cfg.n_paths + batch - 1) // batch):
        nb = min(batch, cfg.n_paths - bi * batch)
        rng = np.random.default_rng([cfg.seed, bi])
        y = np.tile(x, (nb, 1))
        active = np.ones(nb, dtype=bool)
        gamma_log = np.zeros(nb)
        src_acc = np.zeros(nb)
        for j in range(n_steps):
            t = s + j * cfg.dt_mc
            dt_eff = min(cfg.dt_mc, horizon - t)
            draws = rng.standard_normal((nb, N + M))
            if not active.any():
                continue
            y_eval = y if const else np.clip(y, lo, hi)
            if src_interp is not None:
                phi_vals = src_interp(y_eval, t)
                src_acc = np.where(active, src_acc + np.exp(gamma_log) * phi_vals * dt_eff, src_acc)
            if not lam_zero:
                lam_vals = lam_c if const else coeffs.lam_at(y_eval, t)
                gamma_log = np.where(active, gamma_log + LAMBDA_DISCOUNT_SIGN * lam_vals * dt_eff, gamma_log)
            root_dt = math.sqrt(dt_eff)
            if const:
                dy = f_c * dt_eff + root_dt * (draws[:, N:] @ btilde_c.T)
                if N:
                    dy = dy + root_dt * (draws[:, :N] @ beta_c)
            else:
                dy = coeffs.f_at(y_eval, t) * dt_eff
                cols = dec.columns_at(y_eval, t)
                dy = dy + root_dt * np.einsum("ndm,nm->nd", cols, draws[:, N:])
                if N:
                    bv = coeffs.beta_at(y_eval, t)
                    dy = dy + root_dt * np.einsum("knd,nk->nd", bv, draws[:, :N])
            y = np.where(active[:, None], y + dy, y)
            outside = np.any(y < lo, axis=1) | np.any(y > hi, axis=1)
            active &= ~outside
        if term_interp is not None:
            payoff = np.where(active, np.exp(gamma_log) * term_interp(y), 0.0)
        else:
            payoff = np.zeros(nb)
        sl = slice(bi * batch, bi * batch + nb)
        values[sl] = src_acc + payoff
        alive_all[sl] = active
    return values, alive_all


@pytest.fixture
def small_batches(monkeypatch):
    monkeypatch.setattr(montecarlo, "BATCH_SIZE", SMALL_BATCH)


def _assert_engine_matches_reference(dec, starts, horizon, cfg, terminal=None, source=None):
    checked = [(np.asarray(x, dtype=float), s) for x, s in starts]
    values, alive = _simulate(dec, checked, horizon, cfg, terminal=terminal, source=source)
    assert values.shape == (len(starts), cfg.n_paths)
    for p, (x, s) in enumerate(starts):
        want_v, want_a = _reference_run_paths(dec, x, s, horizon, cfg, terminal=terminal, source=source)
        assert np.array_equal(alive[p], want_a), f"alive differs at point {p}"
        assert np.array_equal(values[p], want_v), f"values differ at point {p}"
        assert values[p].tobytes() == want_v.tobytes()
    return values, alive


def test_engine_1d_constant_with_source_and_discount(small_batches):
    g = make_grid(Domain((0.0,), (1.0,)), 41, 50, 1.0)
    coeffs = CoefficientSet.create(1, b=0.2, f=0.3, lam=-0.7)
    dec = decompose(coeffs, g)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    src = SpaceTimeField.from_function(g, lambda x, t: x * (1 - x) * (1 + t))
    cfg = PathConfig(dt_mc=0.005, n_paths=N_PATHS, seed=31)
    # two points share s = 0, one starts at a grid level, one between levels, one at T
    starts = [([0.5], 0.0), ([0.2], 0.5), ([0.35], 0.0), ([0.8], 0.73), ([0.6], g.T)]
    _, alive = _assert_engine_matches_reference(dec, starts, g.T, cfg, terminal=term, source=src)
    assert not alive[0].all() and alive[4].all()


def test_engine_2d_variable_coefficients_with_beta(small_batches):
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 11, 20, 1.0)
    bump = "x1*(1-x1)*x2*(1-x2)"
    coeffs = CoefficientSet.create(
        2,
        b=[["0.12 + 0.05*x1", "0.02*cos(t)"], ["0.02*cos(t)", "0.1 + 0.04*x2*t"]],
        f=["0.3*cos(2*t)", "-0.2*x1"],
        lam="-0.2 - 0.1*x2",
        beta=[[f"0.4*{bump}", f"0.3*{bump}"], [f"-0.2*{bump}", "0.0"]],
    )
    assert not validate(coeffs, g).violated
    dec = decompose(coeffs, g)
    term = SpaceField.from_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    src = SpaceTimeField.from_function(g, lambda x1, x2, t: x1 * (1 - x1) * x2 * (1 - x2) * np.exp(-t))
    cfg = PathConfig(dt_mc=0.01, n_paths=N_PATHS, seed=47)
    starts = [([0.4, 0.5], 0.0), ([0.7, 0.3], 0.25), ([0.5, 0.6], 0.0)]
    _assert_engine_matches_reference(dec, starts, g.T, cfg, terminal=term, source=src)


def test_engine_2d_constant_full_diffusion(small_batches):
    # b12 != 0 gives two full noise columns, so the constant step is a real
    # matrix product over the live rows rather than a scalar multiple
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 11, 20, 1.0)
    coeffs = CoefficientSet.create(2, b=[[0.15, 0.05], [0.05, 0.1]], f=[0.2, -0.1], lam=-0.3)
    dec = decompose(coeffs, g)
    term = SpaceField.from_function(g, lambda x1, x2: x1 * (1 - x1) * x2)
    cfg = PathConfig(dt_mc=0.01, n_paths=N_PATHS, seed=5)
    _assert_engine_matches_reference(dec, [([0.3, 0.6], 0.0), ([0.5, 0.5], 0.4)], g.T, cfg, terminal=term)


def test_confinement_long_gap_stops_drawing(small_batches, monkeypatch):
    g = make_grid(Domain((0.0,), (1.0,)), 21, 20, 1.0)
    dec = decompose(CoefficientSet.create(1, b=0.5), g)
    cfg = PathConfig(dt_mc=0.05, n_paths=N_PATHS, seed=12)
    theta_gap = 100.0
    want_v, want_a = _reference_run_paths(dec, [0.5], 0.0, theta_gap, cfg)
    assert not want_a.any()

    blocks = []
    real_default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self._rng = real_default_rng(seed)

        def standard_normal(self, size):
            blocks.append(size)
            return self._rng.standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    est = montecarlo.confinement_probability(dec, [0.5], 0.0, theta_gap, cfg)
    values, alive = _simulate(dec, [(np.array([0.5]), 0.0)], theta_gap, cfg)
    assert est.mean == 0.0 and est.n_exited == N_PATHS
    assert np.array_equal(alive[0], want_a)
    assert values[0].tobytes() == want_v.tobytes()
    n_batches = -(-N_PATHS // SMALL_BATCH)
    n_steps = int(math.ceil(theta_gap / cfg.dt_mc - 1e-12))
    # every batch empties within a few hundred of its 2000 steps, then stops
    assert len(blocks) < n_batches * n_steps // 2
