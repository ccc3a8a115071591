"""The batched path engine against an independent per-point reference.

`_reference_run_paths` runs one start point at a time with full-size state
updated through masks, makes a draw block at every step of every batch, and
drives every coefficient set, constant or not, with the square root of the
(npts, n, n) stack 2b - sum beta beta^T, applied to the draws by einsum.
The engine shares each step's block between points, advances only the paths
still inside the box, stops a batch once all of them have exited, keeps
the entries that do not read x as single values, evaluates the step values of
a set that reads no position once per step time, steps a short last batch in
the loop of the batch before it and clips the positions only where a source
or an entry reads them; none of that may change a single bit of any path's
value.  BATCH_SIZE is shrunk so that several
batches run at a small cost, except in one test at the real size.

The reference clips the positions with (dim,) bounds broadcast over the rows,
the engine one axis at a time to scalar bounds.  The two differ only on a
position equal to a wall but of the other sign of zero, which a path started
strictly inside meets only on a wall written -0.0; no case here has one.
"""

import itertools
import math
import threading

import numpy as np
import pytest

from bspde import CauchyProblem, CoefficientSet, Domain, PathConfig, SpaceField, SpaceTimeField, make_grid, validate
from bspde import montecarlo
from bspde.grid import Interpolant
from bspde.montecarlo import LAMBDA_DISCOUNT_SIGN, _simulate

from conftest import reference_outer, reference_spd_sqrt

SMALL_BATCH = 128
N_PATHS = 300  # batches of 128, 128 and 44


def _reference_run_paths(problem, x, s, horizon, cfg):
    grid, coeffs, terminal, source = problem.grid, problem.coeffs, problem.terminal, problem.source
    domain = grid.domain
    dim = grid.dim
    x = np.asarray(x, dtype=float).reshape(dim)
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    n_steps = max(0, int(math.ceil((horizon - s) / cfg.dt_mc - 1e-12)))
    N = coeffs.n_beta
    M = dim
    lam_zero = coeffs.lam_is_zero
    term_interp = Interpolant(grid, terminal.values[None]) if terminal is not None else None
    src_interp = Interpolant(grid, source.values) if source is not None else None
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
            y_eval = np.clip(y, lo, hi)
            if src_interp is not None:
                phi_vals = src_interp(y_eval, min(int(np.floor(t / grid.dt + 1e-9)), source.n_levels - 1))
                src_acc = np.where(active, src_acc + np.exp(gamma_log) * phi_vals * dt_eff, src_acc)
            if not lam_zero:
                lam_vals = coeffs.lam_at(y_eval, t)
                gamma_log = np.where(active, gamma_log + LAMBDA_DISCOUNT_SIGN * lam_vals * dt_eff, gamma_log)
            root_dt = math.sqrt(dt_eff)
            dy = coeffs.f_at(y_eval, t) * dt_eff
            root = reference_spd_sqrt(2.0 * coeffs.b_at(y_eval, t) - reference_outer(coeffs, y_eval, t))
            dy = dy + root_dt * np.einsum("ndm,nm->nd", root, draws[:, N:])
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


def _assert_engine_matches_reference(problem, starts, horizon, cfg):
    checked = [(np.asarray(x, dtype=float), s) for x, s in starts]
    values, alive = _simulate(problem, checked, horizon, cfg)
    assert values.shape == (len(starts), cfg.n_paths)
    for p, (x, s) in enumerate(starts):
        want_v, want_a = _reference_run_paths(problem, x, s, horizon, cfg)
        assert np.array_equal(alive[p], want_a), f"alive differs at point {p}"
        assert np.array_equal(values[p], want_v), f"values differ at point {p}"
        assert values[p].tobytes() == want_v.tobytes()
    return values, alive


def test_engine_1d_constant_with_source_and_discount(small_batches):
    g = make_grid(Domain((0.0,), (1.0,)), 41, 50, 1.0)
    coeffs = CoefficientSet.create(1, b=0.2, f=0.3, lam=-0.7)
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    src = SpaceTimeField.from_function(g, lambda x, t: x * (1 - x) * (1 + t))
    cfg = PathConfig(dt_mc=0.005, n_paths=N_PATHS, seed=31)
    # two points share s = 0, one starts at a grid level, one between levels, one at T
    starts = [([0.5], 0.0), ([0.2], 0.5), ([0.35], 0.0), ([0.8], 0.73), ([0.6], g.T)]
    _, alive = _assert_engine_matches_reference(CauchyProblem(g, coeffs, src, term), starts, g.T, cfg)
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
    term = SpaceField.from_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    src = SpaceTimeField.from_function(g, lambda x1, x2, t: x1 * (1 - x1) * x2 * (1 - x2) * np.exp(-t))
    cfg = PathConfig(dt_mc=0.01, n_paths=N_PATHS, seed=47)
    starts = [([0.4, 0.5], 0.0), ([0.7, 0.3], 0.25), ([0.5, 0.6], 0.0)]
    _assert_engine_matches_reference(CauchyProblem(g, coeffs, src, term), starts, g.T, cfg)


def test_engine_2d_variable_coefficients_without_beta(small_batches):
    # no beta, so the residual root is that of 2b alone, with a t-dependent off-diagonal entry
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 11, 20, 1.0)
    coeffs = CoefficientSet.create(
        2,
        b=[["0.1 + 0.05*sin(3*t)", "0.03*cos(2*t) + 0.01*x1"], ["0.03*cos(2*t) + 0.01*x1", "0.08*(1 + 0.5*x1*(1 - x1))"]],
        f=["0.3*cos(2*t)", "-0.2*x1"],
        lam="-0.2 - 0.1*x2",
    )
    assert coeffs.n_beta == 0 and not validate(coeffs, g).violated
    term = SpaceField.from_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    src = SpaceTimeField.from_function(g, lambda x1, x2, t: x1 * (1 - x1) * x2 * (1 - x2) * np.exp(-t))
    cfg = PathConfig(dt_mc=0.01, n_paths=N_PATHS, seed=61)
    starts = [([0.35, 0.55], 0.0), ([0.6, 0.4], 0.3)]
    _assert_engine_matches_reference(CauchyProblem(g, coeffs, src, term), starts, g.T, cfg)


def test_engine_1d_variable_coefficients_with_source(small_batches):
    g = make_grid(Domain((0.0,), (1.0,)), 41, 50, 1.0)
    coeffs = CoefficientSet.create(1, b="0.15 + 0.1*x*(1 - x) + 0.05*sin(2*t)", f="0.4*(0.5 - x)", lam="-0.3*x - 0.1*t")
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    src = SpaceTimeField.from_function(g, lambda x, t: x * (1 - x) * (1 + t))
    cfg = PathConfig(dt_mc=0.005, n_paths=N_PATHS, seed=73)
    starts = [([0.5], 0.0), ([0.3], 0.42), ([0.8], 0.0)]
    _, alive = _assert_engine_matches_reference(CauchyProblem(g, coeffs, src, term), starts, g.T, cfg)
    assert not alive[0].all()


def test_engine_2d_constant_full_diffusion(small_batches):
    # b12 != 0 gives two full noise columns, so the constant step is a real
    # matrix product over the live rows rather than a scalar multiple
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 11, 20, 1.0)
    coeffs = CoefficientSet.create(2, b=[[0.15, 0.05], [0.05, 0.1]], f=[0.2, -0.1], lam=-0.3)
    problem = CauchyProblem(g, coeffs, terminal=SpaceField.from_function(g, lambda x1, x2: x1 * (1 - x1) * x2))
    cfg = PathConfig(dt_mc=0.01, n_paths=N_PATHS, seed=5)
    _assert_engine_matches_reference(problem, [([0.3, 0.6], 0.0), ([0.5, 0.5], 0.4)], g.T, cfg)


def test_engine_at_the_real_batch_size():
    # BATCH_SIZE + 300 paths: the first batch gives each point an array of its
    # own, the last puts all three in one array, whose slots run past nb and
    # wrap to the draw rows
    n_paths = montecarlo.BATCH_SIZE + 300
    g = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 11, 8, 0.08)
    coeffs = CoefficientSet.create(2, b=[[0.12, 0.03], [0.03, 0.1]], f=[0.4, -0.3], lam=-0.5)
    term = SpaceField.from_function(g, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    src = SpaceTimeField.from_function(g, lambda x1, x2, t: x1 * (1 - x1) * x2 * (1 - x2) * (1 + t))
    cfg = PathConfig(dt_mc=0.01, n_paths=n_paths, seed=83)
    starts = [([0.5, 0.5], 0.0), ([0.1, 0.6], 0.0), ([0.8, 0.15], 0.0)]
    _, alive = _assert_engine_matches_reference(CauchyProblem(g, coeffs, src, term), starts, g.T, cfg)
    assert not alive[1].all() and not alive[2].all()


def _written_in_x(kw, which):
    """kw with its entries written as expressions that read x ("v + 0*x1"):
    all of them, or every other one in the order b, f, lam."""
    count = itertools.count()

    def entry(v):
        if isinstance(v, list):
            return [entry(e) for e in v]
        if which == "all" or next(count) % 2 == 0:
            return f"({v}) + 0*x1" if isinstance(v, str) else f"{v!r} + 0*x1"
        return v

    return {k: entry(v) for k, v in kw.items()}


@pytest.mark.parametrize("with_source", [True, False], ids=["source", "no source"])
@pytest.mark.parametrize("which", ["all", "every other"])
@pytest.mark.parametrize(
    "dim, kw",
    [
        (1, dict(b=0.2, f=0.3, lam=-0.7)),
        (2, dict(b=[[0.15, 0.05], [0.05, 0.1]], f=[0.2, -0.1], lam=-0.3)),
        (1, dict(b="0.1 + 0.05*sin(3*t)", f="0.3*cos(2*t)", lam="-0.2 - 0.1*t")),
        (2, dict(b=[["0.1 + 0.05*sin(3*t)", "0.02*cos(t)"], ["0.02*cos(t)", 0.08]], f=["0.3*cos(2*t)", -0.1], lam="-0.2 - 0.1*t")),
    ],
    ids=["1d constant", "2d constant", "1d in t", "2d in t"],
)
def test_entries_kept_as_single_values_change_no_bit(small_batches, dim, kw, which, with_source):
    """A set whose entries read no x keeps them as single values through the
    path step, and with no source its step does not clip the positions; the
    same set with its entries (all of them, or every other one) written to
    read x is evaluated at every clipped path, and gives the same bits."""
    g = make_grid(Domain((0.0,) * dim, (1.0,) * dim), (41,) if dim == 1 else 11, 20, 1.0)
    plain = CoefficientSet.create(dim, **kw)
    in_x = CoefficientSet.create(dim, **_written_in_x(kw, which))
    assert not plain.reads_x and in_x.reads_x
    pts = np.full((5, dim), 0.5)
    assert plain.f_lam_at(pts, 0.0)[0].shape == (1, dim) and plain.noise_root(pts, 0.0)[1][0].shape == (1,)
    if which == "all":
        assert in_x.f_lam_at(pts, 0.0)[0].shape == (5, dim) and in_x.noise_root(pts, 0.0)[1][0].shape == (5,)
    term = SpaceField.from_function(g, lambda *x: np.prod([np.sin(np.pi * xa) for xa in x], axis=0))
    src = SpaceTimeField.from_function(g, lambda *xt: np.prod([xa * (1 - xa) for xa in xt[:-1]], axis=0) * (1 + xt[-1]))
    src = src if with_source else None
    cfg = PathConfig(dt_mc=0.01, n_paths=N_PATHS, seed=17)
    starts = [(np.full(dim, 0.4), 0.0), (np.full(dim, 0.6), 0.35)]
    want_v, want_a = _simulate(CauchyProblem(g, plain, src, term), starts, g.T, cfg)
    got_v, got_a = _simulate(CauchyProblem(g, in_x, src, term), starts, g.T, cfg)
    assert not want_a.all()
    assert got_v.tobytes() == want_v.tobytes() and got_a.tobytes() == want_a.tobytes()


@pytest.mark.parametrize("dim, with_source", [(1, True), (2, False)], ids=["1d source", "2d no source"])
def test_step_values_shared_in_t_change_no_bit(small_batches, dim, with_source):
    """b and f read t but no position and lam is constant, so f, lam and the
    noise root are evaluated once per step time and shared by every array at
    it; in batches of 128, 128 and 44 the short one steps in the loop of the
    second, and both start-time groups keep the reference's bits."""
    g = make_grid(Domain((0.0,) * dim, (1.0,) * dim), (41,) if dim == 1 else 11, 50, 1.0)
    if dim == 1:
        coeffs = CoefficientSet.create(1, b="0.1 + 0.05*sin(3*t)", f="0.3*cos(2*t)", lam=-0.4)
    else:
        b = [["0.1 + 0.05*sin(3*t)", "0.02*cos(t)"], ["0.02*cos(t)", "0.08 + 0.02*t"]]
        coeffs = CoefficientSet.create(2, b=b, f=["0.3*cos(2*t)", "-0.1*t"], lam=-0.4)
    assert coeffs.is_time_dependent and not coeffs.reads_x and not validate(coeffs, g).violated
    term = SpaceField.from_function(g, lambda *x: np.prod([np.sin(np.pi * xa) for xa in x], axis=0))
    src = SpaceTimeField.from_function(g, lambda *xt: np.prod([xa * (1 - xa) for xa in xt[:-1]], axis=0) * (1 + xt[-1]))
    cfg = PathConfig(dt_mc=0.005, n_paths=N_PATHS, seed=29)
    starts = [(np.full(dim, 0.5), 0.0), (np.full(dim, 0.3), 0.0), (np.full(dim, 0.7), 0.355)]
    problem = CauchyProblem(g, coeffs, src if with_source else None, term)
    _, alive = _assert_engine_matches_reference(problem, starts, g.T, cfg)
    assert not alive[0].all() and not alive[2].all()


@pytest.mark.parametrize("n_paths, step_loops, array_steps", [(200, 1, 100), (300, 2, 130)], ids=["128+72", "128+128+44"])
@pytest.mark.parametrize("b, per", [("1e-3", "call"), ("1e-3*(1 + t)", "step time"), ("1e-3*(1 + x)", "array-step")])
def test_step_values_are_evaluated_once_per_what_they_read(
    small_batches, monkeypatch, n_paths, step_loops, array_steps, b, per
):
    """f_lam_at and noise_root are called once per `_simulate` call for a
    constant set, once per start time and step of each step loop for a set
    that reads t alone, and once per array and step for a set that reads x.
    No path reaches the wall, so every array runs to the horizon: with 200
    paths, batches of 128 and 72 run in one loop, one array per point each
    (2 x (20 + 20 + 10) array-steps); with 300, batch 0 runs alone and the
    44-path batch, in the loop of batch 1, packs two points in one array."""
    g = make_grid(Domain((0.0,), (1.0,)), 21, 20, 1.0)
    coeffs = CoefficientSet.create(1, b=b, f=0.1, lam=-0.2)
    problem = CauchyProblem(g, coeffs, terminal=SpaceField.from_function(g, lambda x: x))
    calls = {"f_lam_at": 0, "noise_root": 0}
    for name in calls:
        real = getattr(CoefficientSet, name)

        def counted(self, *args, _name=name, _real=real):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(CoefficientSet, name, counted)
    cfg = PathConfig(dt_mc=0.05, n_paths=n_paths, seed=8)
    starts = [(np.array([0.5]), 0.0), (np.array([0.4]), 0.0), (np.array([0.3]), 0.5)]  # 20, 20 and 10 steps
    _, alive = _simulate(problem, starts, g.T, cfg)
    assert alive.all()
    want = {"call": 1, "step time": step_loops * (20 + 10), "array-step": array_steps}[per]
    assert calls == {"f_lam_at": want, "noise_root": want}


def test_exited_paths_of_a_set_that_reads_x_are_clipped(small_batches):
    """b is positive only a little beyond the box, so the exited paths, carried
    until a compaction, must be clipped before b is read at them: unclipped,
    the residual root at one of them is not positive definite.  With no source
    the clip is there only because b reads x."""
    g = make_grid(Domain((0.0,), (1.0,)), 41, 200, 4.0)
    coeffs = CoefficientSet.create(1, b="0.02 + x*(1 - x)", f="0.1*(0.5 - x)", lam=-0.3)
    assert coeffs.reads_x and not validate(coeffs, g).violated
    term = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    cfg = PathConfig(dt_mc=0.01, n_paths=N_PATHS, seed=89)
    starts = [([0.5], 0.0), ([0.1], 0.0), ([0.9], 1.3)]
    _, alive = _assert_engine_matches_reference(CauchyProblem(g, coeffs, terminal=term), starts, g.T, cfg)
    assert (~alive).sum() > cfg.n_paths


def test_confinement_long_gap_stops_drawing(small_batches, monkeypatch):
    g = make_grid(Domain((0.0,), (1.0,)), 21, 20, 1.0)
    problem = CauchyProblem(g, CoefficientSet.create(1, b=0.5))
    cfg = PathConfig(dt_mc=0.05, n_paths=N_PATHS, seed=12)
    theta_gap = 100.0
    want_v, want_a = _reference_run_paths(problem, [0.5], 0.0, theta_gap, cfg)
    assert not want_a.any()

    blocks = []
    real_default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self._rng = real_default_rng(seed)

        def standard_normal(self, size=None, out=None):
            blocks.append(size)
            return self._rng.standard_normal(size, out=out)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    est = montecarlo.confinement_probability(problem, [0.5], 0.0, theta_gap, cfg)
    values, alive = _simulate(problem, [(np.array([0.5]), 0.0)], theta_gap, cfg)
    assert est.mean == 0.0 and est.n_exited == N_PATHS
    assert np.array_equal(alive[0], want_a)
    assert values[0].tobytes() == want_v.tobytes()
    n_batches = -(-N_PATHS // SMALL_BATCH)
    n_steps = int(math.ceil(theta_gap / cfg.dt_mc - 1e-12))
    # every batch empties within a few hundred of its 2000 steps, then stops
    assert len(blocks) < n_batches * n_steps // 2


@pytest.fixture
def draws_per_batch(monkeypatch):
    """Batch index -> the number of normal blocks its stream has drawn."""
    counts = {}
    real_default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self._bi = seed[1]
            counts.setdefault(self._bi, 0)
            self._rng = real_default_rng(seed)

        def standard_normal(self, size=None, out=None):
            counts[self._bi] += 1
            return self._rng.standard_normal(size, out=out)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    return counts


def test_each_batch_draws_one_block_per_step_and_none_at_the_horizon(small_batches, draws_per_batch):
    # the diffusion is too weak for any path to reach the wall, so no batch stops early
    g = make_grid(Domain((0.0,), (1.0,)), 21, 20, 1.0)
    problem = CauchyProblem(g, CoefficientSet.create(1, b=1e-3), terminal=SpaceField.from_function(g, lambda x: x))
    cfg = PathConfig(dt_mc=0.05, n_paths=N_PATHS, seed=8)
    values, alive = _simulate(problem, [(np.array([0.5]), 0.0), (np.array([0.4]), 0.5)], g.T, cfg)
    assert draws_per_batch == {0: 20, 1: 20, 2: 20}
    assert alive.all()
    for p, (x, s) in enumerate([([0.5], 0.0), ([0.4], 0.5)]):
        assert values[p].tobytes() == _reference_run_paths(problem, x, s, g.T, cfg)[0].tobytes()

    draws_per_batch.clear()
    values, alive = _simulate(problem, [(np.array([0.3]), g.T)], g.T, cfg)
    assert alive.all() and np.array_equal(values[0], np.full(N_PATHS, 0.3))
    assert draws_per_batch == {0: 0, 1: 0, 2: 0}


class _Interrupted(Exception):
    pass


@pytest.mark.parametrize("fail_at", [None, 1, 7, 45])
def test_the_draw_thread_ends_with_the_run(small_batches, monkeypatch, fail_at):
    # the source is read once per step of each 20-step batch: calls 1 and 7 fall in the first, 45 in the
    # loop where the third steps with the second
    g = make_grid(Domain((0.0,), (1.0,)), 21, 20, 1.0)
    src = SpaceTimeField.from_function(g, lambda x, t: x * (1 - x))
    problem = CauchyProblem(g, CoefficientSet.create(1, b=1e-3), src)
    cfg = PathConfig(dt_mc=0.05, n_paths=N_PATHS, seed=9)
    calls = []
    real_call = Interpolant.__call__

    def failing_call(self, pts, level=0):
        calls.append(level)
        if len(calls) == fail_at:
            raise _Interrupted
        return real_call(self, pts, level)

    monkeypatch.setattr(Interpolant, "__call__", failing_call)
    threads = threading.active_count()
    if fail_at is None:
        _simulate(problem, [(np.array([0.5]), 0.0)], g.T, cfg)
        assert len(calls) == 3 * 20
    else:
        with pytest.raises(_Interrupted):
            _simulate(problem, [(np.array([0.5]), 0.0)], g.T, cfg)
        assert len(calls) == fail_at
    assert threading.active_count() == threads
