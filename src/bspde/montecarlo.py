"""Independent verification layer: Euler-Maruyama paths of the characteristic
diffusion with first-exit detection, the exit-time/discount expectation
estimator for the backward solution, Monte-Carlo confinement probabilities,
and the analytic interval-confinement bound used to certify contraction.

Exit is detected at sampled times only (no bridge correction), which biases
confinement probabilities upward by O(sqrt(dt_mc)); small default steps and
the comparison allowance absorb this, and the bias direction is the safe one
for every inequality asserted here.

Every estimate samples one `CauchyProblem` through one batched path engine,
`_simulate`, over a list of raw (x, s) start points sharing a horizon;
`compare_mc_pde` calls it once for all of its points.  `_simulate` is the one
check of an estimate's inputs: the coefficients (`validate` on the grid, the
cached survey), dt_mc against the grid step, and each start.  Stream layout:
batch bi of the n_paths paths draws from default_rng([seed, bi]) one
(nb, N + M) block of standard normals per step, and that block is shared by
every point still running at the step.  One helper thread draws the blocks
up to two steps ahead, into three buffers of the batch, while the paths
advance; it draws no block for a step at or beyond the horizon.  A batch stops
reading once all of its paths have exited, which leaves at most two drawn
blocks unread.  Batches run one after another, except that a last batch
shorter than BATCH_SIZE advances in the step loop of the batch before it,
with its own generator, buffers and arrays, its blocks drawn on the same
helper thread: the full batch's steps wait on its draws, and the short
batch's steps fill that wait.  At most two batches' state is alive at once.
Each point's paths therefore see exactly the draws a run of that point alone
would see, so the layout named by NORMAL_SAMPLER is unchanged and estimates
do not depend on which other points run alongside.  A run whose total work,
points x n_paths x steps, exceeds MAX_PATH_STEPS, or whose path values,
points x n_paths doubles held to the end, exceed the grid's
MAX_SOLVE_DOUBLES, is rejected before anything is allocated.

Every coefficient set takes one path step: f and lam from
`CoefficientSet.f_lam_at`, and the noise from `CoefficientSet.apply_noise`,
which applies the entries of the closed-form root, `CoefficientSet.noise_root`,
to the draws in the order of a matrix product, as `noise_at` does.  Both keep
an entry that does not read x as one value.  When no entry reads x and there
is no beta (`beta_at` gives its values in full shape), f, lam and the root
are one value at every position: they are computed once per step time and
shared by every array at that time, or once per call when no entry reads t
either.  They and the source read the positions clipped to the box, as an
exited path is carried along until the next compaction and may lie outside
it.  The clip is made only
when something reads it, a source or an entry that reads x
(`CoefficientSet.reads_x`); otherwise the step passes the positions as they
are, which changes no output, as a path still running starts each step
inside the closed box.  The positions are clipped one axis at a time to
scalar bounds, as numpy runs (dim,) bounds broadcast over (n, dim) rows two
elements at a time.  Such a clip keeps a position equal to its wall but of
the other sign of zero, where the broadcast clip took the wall's; a path
started strictly inside meets one only on a wall written -0.0.

Grid fields are read between nodes by `grid.Interpolant` (multilinear, zero
on the wall): the terminal data at a path's end, the source at each step
from the level at or before the step's time, and the grid solution at each
comparison point.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .coefficients import CoefficientSet, bounds, validate
from .grid import MAX_SOLVE_DOUBLES, Grid, Interpolant, sup_norm
from .stepper import CauchyProblem, solve_terminal

# Discount convention: with the zeroth-order term lam*u inside the spatial
# operator of the backward equation, the path functional that reproduces the
# solution discounts by exp(+ integral of lam along the path); lam <= 0 keeps
# the factor in (0, 1].
LAMBDA_DISCOUNT_SIGN = 1.0

BATCH_SIZE = 1 << 16
NORMAL_SAMPLER = "numpy PCG64 standard_normal, counter-split batches of 65536"

# Total work of one run, in path steps (points x n_paths x steps to the
# horizon), checked before anything is allocated: 20 times the 5e9 of the
# largest run in the test suite (5 points, 1e5 paths, 1e4 steps).
MAX_PATH_STEPS = 10**11

SERIES_TAIL_TOL = 1e-12
_BELOW_ONE = float(np.nextafter(1.0, 0.0))  # the largest nu, so that sqrt(nu) < 1


class MonteCarloError(ValueError):
    """A path-estimator or confinement-bound input is out of range."""


@dataclass(frozen=True)
class PathConfig:
    """Monte-Carlo controls; all randomness flows from the single seed."""

    dt_mc: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not self.dt_mc > 0:
            raise MonteCarloError("dt_mc must be positive")
        for name in ("n_paths", "seed"):  # a float, even an integral one, is refused: range() and the rng take none
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise MonteCarloError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 100:
            raise MonteCarloError("need at least 100 paths")
        # a row of doubles, one per path, must fit in one numpy array
        if 8 * self.n_paths > np.iinfo(np.intp).max:
            raise MonteCarloError("n_paths asks for more paths than a numpy array can hold")
        if self.seed < 0:
            raise MonteCarloError("seed must be a non-negative integer")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_paths: int
    n_exited: int


def _numbers(x, s) -> tuple[np.ndarray, float]:
    """A start point (x, s) as a flat float array and a float, or MonteCarloError."""
    try:
        return np.asarray(x, dtype=float).reshape(-1), float(s)
    except (TypeError, ValueError, OverflowError) as err:
        raise MonteCarloError(f"start point {x!r} at s = {s!r} must be numbers: {err}") from None


def _checked_start(grid: Grid, x, s: float, horizon: float, cfg: PathConfig) -> tuple[np.ndarray, float, int]:
    """Check a start point (x, s) of paths that run to `horizon` against the
    horizon and the grid; return x as a (dim,) array, s clamped to the
    horizon and the number of path steps from s to the horizon."""
    x, s = _numbers(x, s)
    if s > horizon + 1e-12:
        raise MonteCarloError(f"s = {s} is beyond the horizon T = {horizon}")
    s = min(s, horizon)
    if x.size != grid.dim:
        raise MonteCarloError(f"start point {tuple(x.tolist())} must have one coordinate per grid axis ({grid.dim})")
    if not grid.domain.contains(x):
        raise MonteCarloError(f"start point {tuple(x.tolist())} must lie strictly inside the domain")
    if not 0.0 <= s <= horizon:
        raise MonteCarloError(f"need 0 <= s <= horizon, got s={s}, horizon={horizon}")
    if (horizon - s) / cfg.dt_mc > np.iinfo(np.intp).max:
        raise MonteCarloError(f"dt_mc = {cfg.dt_mc} asks for more path steps to the horizon than numpy can index")
    return x, s, max(0, int(math.ceil((horizon - s) / cfg.dt_mc - 1e-12)))


class _LivePaths:
    """Paths of one start-time group that had not exited at the last
    compaction: position (outside the box for a path that has exited since,
    which keeps moving until it is dropped), log discount (unless lam is
    zero), source integral (when there is a source), slot, and which of them
    are still inside the box.  Slot q * nb + r is path r of the batch for the
    group's q-th point, so the path's draw row is the slot modulo nb; slots
    are intp, the index type `np.take` reads without converting."""

    __slots__ = ("y", "gam", "acc", "slot", "active", "n_active", "pids", "nb")

    def __init__(self, xs: np.ndarray, pids: list[int], nb: int, discount: bool, source: bool):
        size = len(pids) * nb
        self.y = np.repeat(xs, nb, axis=0)
        self.gam = np.zeros(size) if discount else None
        self.acc = np.zeros(size) if source else None
        self.slot = np.arange(size, dtype=np.intp)
        self.active = np.ones(size, dtype=bool)
        self.n_active = size
        self.pids = np.asarray(pids)
        self.nb = nb

    def where(self, sel=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(point, path index within the batch) of the selected paths."""
        slot = self.slot[sel]
        return self.pids[slot // self.nb], slot % self.nb

    def compact(self) -> None:
        """Drop the exited paths.  A boolean mask copies 1-D arrays fastest,
        an index list the rows of the 2-D positions."""
        mask = self.active
        self.y = np.take(self.y, np.flatnonzero(mask), axis=0)
        for name in ("gam", "acc", "slot"):
            arr = getattr(self, name)
            if arr is not None:
                setattr(self, name, arr[mask])
        self.active = np.ones(self.n_active, dtype=bool)


def _simulate(
    problem: CauchyProblem, points: Sequence[tuple[Sequence[float], float]], horizon: float, cfg: PathConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate cfg.n_paths characteristics of the problem from each start
    (x_p, s_p) to the shared `horizon`, once the path estimate's inputs pass
    its one check, in this order: the coefficients (`validate` on the grid),
    dt_mc against the grid step, each start (`_checked_start`), then the
    run's work and memory limits, all before anything is allocated.

    Returns per-path payoff values and the alive mask at the horizon, both of
    shape (n_points, n_paths).

    Every point still running at step j reads its paths' rows of the step's
    draw block (stream layout: module docstring).  Points with the same
    start time are advanced together, in arrays of at most BATCH_SIZE paths
    (larger ones cost peak memory and cache misses), so the source is
    evaluated once per array and step, and so are the coefficients of a set
    that reads x or has beta.  Those of any other set, which read no
    position, are evaluated once per step time and shared by the arrays at
    it, both batches' included, or once per call when they read no t either.
    Batches run one after another, but a short last batch advances in the
    step loop of the one before it.  A path is frozen at its
    first sampled position outside the closed box, and its value is written
    out then; it is dropped from the arrays once a quarter of them has
    exited, and until then carried along with its updates masked out of
    every output.  A batch stops reading draws once none of its paths is left.

    The blocks are drawn on one helper thread, opened and joined by this call:
    block j + 2 of a batch is drawn into the buffer of its block j - 1 while
    step j runs, and once a batch's first block is asked for, only that
    thread touches the batch's generator.  A step asks for the blocks of its
    batches in batch order, and the thread draws them in the order asked.
    """
    grid, coeffs, source, terminal = problem.grid, problem.coeffs, problem.source, problem.terminal
    validate(coeffs, grid).raise_if_violated()
    if cfg.dt_mc > grid.dt + 1e-12:
        raise MonteCarloError(f"dt_mc = {cfg.dt_mc} exceeds the grid step {grid.dt}")
    starts = [_checked_start(grid, x, s, horizon, cfg) for x, s in points]
    n = cfg.n_paths
    by_time: dict[float, tuple[int, list[int]]] = {}
    for p, (_, s, n_steps) in enumerate(starts):
        by_time.setdefault(s, (n_steps, []))[1].append(p)
    groups = [(s, n_steps, pids) for s, (n_steps, pids) in by_time.items()]
    max_steps = max((g[1] for g in groups), default=0)
    path_steps = n * sum(n_steps * len(pids) for _, n_steps, pids in groups)
    if path_steps > MAX_PATH_STEPS:
        raise MonteCarloError(
            f"{len(starts)} montecarlo.points x montecarlo.n_paths = {n} x up to {max_steps} steps of "
            f"montecarlo.dt_mc = {cfg.dt_mc} ask for {path_steps:.3g} path steps, "
            f"more than the limit of {MAX_PATH_STEPS:.0e}"
        )
    if len(starts) * n > MAX_SOLVE_DOUBLES:  # a start at the horizon takes no steps but holds its values
        raise MonteCarloError(
            f"{len(starts)} montecarlo.points x montecarlo.n_paths = {n} ask to hold {len(starts) * n:.3g} "
            f"path values, more than the limit of {MAX_SOLVE_DOUBLES:.3g}"
        )
    lo = np.asarray(grid.domain.lo)
    hi = np.asarray(grid.domain.hi)
    discount = not coeffs.lam_is_zero
    clip = source is not None or coeffs.reads_x  # the source and entries that read x are all that read y_eval
    term_interp = Interpolant(grid, terminal.values[None]) if terminal is not None else None
    src_interp = Interpolant(grid, source.values) if source is not None else None

    values = np.zeros((len(starts), n))
    alive = np.zeros((len(starts), n), dtype=bool)
    # A step's f, lam and noise root read no position when no entry reads x and
    # there is no beta (beta_at gives the full shape); they are then kept by
    # step time, or under None for the whole call when no entry reads t, for
    # every array at that time.
    position_free = not coeffs.reads_x and not coeffs.n_beta
    reads_t = coeffs.is_time_dependent
    shared: dict = {}
    n_batches = (n + BATCH_SIZE - 1) // BATCH_SIZE
    runs = [[bi] for bi in range(n_batches)]
    if n_batches > 1 and n % BATCH_SIZE:  # the short last batch steps with the one before it
        runs[-2:] = [runs[-2] + runs[-1]]
    from concurrent.futures import ThreadPoolExecutor  # only here: most commands run no paths

    with ThreadPoolExecutor(max_workers=1) as helper:

        def open_batch(bi):
            """Batch bi's first path index, generator, draw buffers, blocks
            asked for (the first two, here) and arrays of live paths."""
            base = bi * BATCH_SIZE
            nb = min(BATCH_SIZE, n - base)
            rng = np.random.default_rng([cfg.seed, bi])
            bufs = np.empty((3, nb, coeffs.n_beta + grid.dim))  # block j is drawn into bufs[j % 3]
            ahead = [helper.submit(rng.standard_normal, out=bufs[k]) for k in range(min(2, max_steps))]
            per_array = max(1, BATCH_SIZE // nb)
            lives = []
            for s, n_steps, pids in groups:
                for c in range(0, len(pids), per_array):
                    chunk = pids[c : c + per_array]
                    xs = np.stack([starts[p][0] for p in chunk])
                    lives.append((s, n_steps, _LivePaths(xs, chunk, nb, discount, src_interp is not None)))
            return base, rng, bufs, ahead, lives

        for run in runs:
            batches = [open_batch(bi) for bi in run]
            for j in range(max_steps):
                if reads_t:
                    shared.clear()
                stepped = False
                for base, rng, bufs, ahead, lives in batches:
                    running = [(s, lp) for s, n_steps, lp in lives if j < n_steps and lp.n_active]
                    if not running:
                        continue
                    stepped = True
                    ahead.pop(0).result()
                    if j + 2 < max_steps:  # into the buffer of block j - 1, copied out at step j - 1
                        ahead.append(helper.submit(rng.standard_normal, out=bufs[(j + 2) % 3]))
                    draws = bufs[j % 3]
                    for s, lp in running:
                        t = s + j * cfg.dt_mc
                        dt_eff = min(cfg.dt_mc, horizon - t)
                        d = np.take(draws, lp.slot, axis=0, mode="wrap")  # row = slot mod nb
                        y = lp.y
                        y_eval = y
                        if clip:
                            y_eval = np.empty_like(y)
                            for a in range(grid.dim):  # axis by axis: broadcasting (dim,) bounds over the rows is slow
                                np.clip(y[:, a], lo[a], hi[a], out=y_eval[:, a])
                        if src_interp is not None:
                            level = min(int(np.floor(t / grid.dt + 1e-9)), source.n_levels - 1)  # at or before t
                            inc = src_interp(y_eval, level)
                            if discount:
                                inc *= np.exp(lp.gam)
                            inc *= dt_eff
                            lp.acc += inc
                        key = t if reads_t else None
                        if key not in shared:
                            shared[key] = (*coeffs.f_lam_at(y_eval, t), coeffs.noise_root(y_eval, t))
                        f, lam, root = shared[key] if position_free else shared.pop(key)  # none kept past its array
                        if discount:
                            lp.gam += LAMBDA_DISCOUNT_SIGN * lam * dt_eff
                        root_dt = math.sqrt(dt_eff)
                        dy, *beta = coeffs.apply_noise(root, d)
                        del root  # an array's root is freed here, as noise_at frees it
                        dy *= root_dt
                        dy += f * dt_eff  # the same sum as f * dt_eff + root_dt * btilde
                        for noise in beta:
                            dy += root_dt * noise
                        y += dy
                        del d, dy, y_eval, f, lam, beta  # freed before a compaction copies the state
                        gone = np.zeros(len(y), dtype=bool)
                        for a in range(grid.dim):  # column by column: broadcasting over rows of 2 is slow
                            gone |= (y[:, a] < lo[a]) | (y[:, a] > hi[a])
                        gone &= lp.active
                        if gone.any():
                            if lp.acc is not None:
                                p, r = lp.where(gone)
                                values[p, base + r] = lp.acc[gone]
                            lp.active &= ~gone
                            lp.n_active -= int(np.count_nonzero(gone))
                            if 4 * lp.n_active <= 3 * lp.active.size:
                                lp.compact()
                if not stepped:
                    break
            for base, _, _, _, lives in batches:
                for _, _, lp in lives:
                    lp.compact()
                    v = lp.acc if lp.acc is not None else 0.0
                    if term_interp is not None:
                        payoff = term_interp(lp.y)
                        if discount:
                            payoff = np.exp(lp.gam) * payoff
                        v = v + payoff
                    p, r = lp.where()
                    values[p, base + r] = v
                    alive[p, base + r] = True
    return values, alive


def _estimate(values: np.ndarray, alive: np.ndarray, cfg: PathConfig) -> McEstimate:
    """Sample mean and standard error of one point's path values.  Should
    either overflow, the values being near the float range, both are computed
    again as 2**e times those of 2**-e values, with max |2**-e values| in [0.5, 1)."""
    if np.all(values == values[0]):
        mean, stderr = float(values[0]), 0.0  # constant sample: no roundoff from the mean reduction
    else:
        with np.errstate(over="ignore"):
            for e in (0, math.frexp(float(np.max(np.abs(values))))[1]):
                v = np.ldexp(values, -e)
                mean = float(np.ldexp(np.mean(v), e))
                stderr = float(np.ldexp(np.std(v, ddof=1) / math.sqrt(cfg.n_paths), e))
                if math.isfinite(mean) and math.isfinite(stderr):
                    break
    return McEstimate(
        mean=mean,
        stderr=stderr,
        n_paths=cfg.n_paths,
        n_exited=int(np.count_nonzero(~alive)),
    )


def feynman_kac(problem: CauchyProblem, x, s: float, cfg: PathConfig) -> McEstimate:
    """Path estimate of the backward solution at (x, s): discounted terminal
    payoff for paths that never leave the box before T, plus the discounted
    running source up to the first exit."""
    values, alive = _simulate(problem, [(x, s)], problem.grid.T, cfg)
    return _estimate(values[0], alive[0], cfg)


def confinement_probability(
    problem: CauchyProblem, x, s: float, theta_gap: float, cfg: PathConfig
) -> McEstimate:
    """Fraction of the problem's paths still inside the box at s + theta_gap,
    with binomial stderr; the paths carry no payoff.  The start and the gap
    are checked as numbers before they are added up to the paths' horizon."""
    x, s = _numbers(x, s)
    try:
        theta_gap = float(theta_gap)
    except (TypeError, ValueError, OverflowError) as err:
        raise MonteCarloError(f"theta_gap = {theta_gap!r} must be a number: {err}") from None
    if not theta_gap >= 0:
        raise MonteCarloError(f"theta_gap must be >= 0, got {theta_gap}")
    paths = CauchyProblem(problem.grid, problem.coeffs)
    _, (alive,) = _simulate(paths, [(x, s)], s + theta_gap, cfg)
    p = float(np.mean(alive))
    stderr = math.sqrt(p * (1.0 - p) / cfg.n_paths)
    return McEstimate(mean=p, stderr=stderr, n_paths=cfg.n_paths, n_exited=int(np.count_nonzero(~alive)))


# ---------------------------------------------------------------------------
# Analytic confinement bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfinementBound:
    """Upper bound nu on the probability that the characteristic diffusion
    stays inside the box for an extra time theta_gap, via a time change to
    Brownian motion confined to the drift-widened first-axis interval."""

    D1: tuple[float, float]
    K1: float
    K2: float
    Dhat1: tuple[float, float]
    delta_qv: float
    theta_gap: float
    nu: float
    terms_used: int

    @property
    def sqrt_nu(self) -> float:
        return math.sqrt(self.nu)

    def to_dict(self) -> dict:
        return {**asdict(self), "sqrt_nu": self.sqrt_nu}


def _interval_confinement(lo: float, hi: float, x0: float, tau: float) -> tuple[float, int]:
    """P(Brownian motion from x0 stays in (lo, hi) up to time tau), by the
    odd-mode eigenfunction series, truncated once the tail bound drops below
    SERIES_TAIL_TOL.

    The series needs about 1/sqrt(c) terms, c = pi^2 tau / (2 L^2).  When the
    reflection bound 1 - erfc(d_lo/sqrt(2 tau)) - erfc(d_hi/sqrt(2 tau)),
    d_lo and d_hi the distances from x0 to the ends, already reaches
    _BELOW_ONE, where `confinement_bound` clamps nu, that is returned with no
    term summed.  A series still longer than about 3e4 terms (c < 1e-8, x0
    near one end of a wide interval) raises MonteCarloError."""
    if not all(math.isfinite(v) for v in (lo, hi, x0, tau)):
        raise MonteCarloError(
            f"confinement interval, start point and time must be finite, got ({lo}, {hi}), {x0}, {tau}"
        )
    L = hi - lo
    if not (L > 0 and lo < x0 < hi):
        raise MonteCarloError("confinement interval must contain the start point")
    if not tau > 0:
        raise MonteCarloError("confinement time must be positive")
    spread = math.sqrt(2.0 * tau)
    if 1.0 - math.erfc((x0 - lo) / spread) - math.erfc((hi - x0) / spread) >= _BELOW_ONE:
        return _BELOW_ONE, 0
    # L**2 under- or overflows for extreme L, dividing by L twice does not; within
    # the range the expression is kept, so that every nu keeps its bits
    c = math.pi**2 * tau / (2.0 * L**2) if 1e-150 < L < 1e150 else math.pi**2 / 2.0 * (tau / L) / L
    if not c >= 1e-8:
        raise MonteCarloError(f"confinement series on ({lo}, {hi}) from {x0} up to time {tau} is too long")
    z = math.pi * (x0 - lo) / L
    total = 0.0
    terms = 0
    k = 1
    while True:
        total += (4.0 / (k * math.pi)) * math.sin(k * z) * math.exp(-(k**2) * c)
        terms += 1
        nxt = k + 2
        # (nxt+2m)^2 >= nxt^2 + 4m*nxt gives a geometric tail envelope
        expo = -(nxt**2) * c
        tail = 0.0 if expo < -745 else (4.0 / (nxt * math.pi)) * math.exp(expo) / (1.0 - math.exp(-4.0 * nxt * c))
        if tail <= SERIES_TAIL_TOL:
            break
        k = nxt
    return total, terms


def confinement_bound(coeffs: CoefficientSet, grid: Grid, theta_gap: float) -> ConfinementBound:
    """Analytic bound on the stay-inside probability over an extra time theta_gap.

    The first-axis interval is widened by the drift envelope, the quadratic
    variation is bounded below by the smallest eigenvalue of 2b sampled on the
    grid, and the confinement probability of the time-changed Brownian motion
    is evaluated from the classical eigen-series.
    """
    if not theta_gap > 0:
        raise MonteCarloError("theta_gap must be positive")
    d1, d2 = grid.domain.lo[0], grid.domain.hi[0]
    env = bounds(coeffs, grid)
    if not env.delta_qv > 0:
        raise MonteCarloError("smallest eigenvalue of 2b must be positive (validate the coefficients)")
    K1 = -d2 - theta_gap * env.sup_f1
    K2 = -d1 + theta_gap * env.sup_f1
    lo, hi = d1 + K1, d2 + K2
    nu, terms = _interval_confinement(lo, hi, 0.0, env.delta_qv * theta_gap)
    nu = min(max(nu, np.nextafter(0.0, 1.0)), _BELOW_ONE)
    return ConfinementBound(
        D1=(d1, d2),
        K1=K1,
        K2=K2,
        Dhat1=(lo, hi),
        delta_qv=env.delta_qv,
        theta_gap=theta_gap,
        nu=float(nu),
        terms_used=terms,
    )


# ---------------------------------------------------------------------------
# PDE-vs-MC comparison
# ---------------------------------------------------------------------------


@dataclass
class ComparisonRow:
    x: tuple[float, ...]
    s: float
    pde: float
    mc: float
    stderr: float
    z: float
    flagged: bool


def compare_mc_pde(
    problem: CauchyProblem,
    points: Sequence[Sequence[float]],
    cfg: PathConfig,
    mc_coeffs: CoefficientSet | None = None,
) -> list[ComparisonRow]:
    """Check every (x..., s) sample point, run the paths from all of them,
    backward-solve the problem once, then for each point compare the grid
    solution, interpolated at x on the level nearest s, against the path
    estimate.

    A row is flagged when |pde - mc| > 3*stderr + 0.02*scale with scale the
    sup norm of the grid solution.  mc_coeffs substitutes a different
    coefficient set on the path side (negative-control hook).
    """
    grid = problem.grid
    paths = problem if mc_coeffs is None else replace(problem, coeffs=mc_coeffs)
    for pt in points:
        if not len(pt):
            raise MonteCarloError(f"sample point {pt!r} must end in its time s")
    starts = [(tuple(x), s) for *x, s in points]
    values, alive = _simulate(paths, starts, grid.T, cfg)  # checks that every start is numbers
    pts = [([float(v) for v in x], float(s)) for x, s in starts]
    u = solve_terminal(problem).u
    scale = sup_norm(u)
    interp = Interpolant(grid, u.values)
    rows = []
    for (x, s), v, a in zip(pts, values, alive):
        lvl, _ = grid.nearest_level(s)
        pde_val = float(interp(np.asarray([x]), lvl)[0])
        est = _estimate(v, a, cfg)
        diff = abs(pde_val - est.mean)
        z = 0.0 if diff == 0.0 else (diff / est.stderr if est.stderr > 0 else math.inf)
        rows.append(
            ComparisonRow(
                x=tuple(x),
                s=s,
                pde=pde_val,
                mc=est.mean,
                stderr=est.stderr,
                z=z,
                flagged=diff > 3.0 * est.stderr + 0.02 * scale,
            )
        )
    return rows


def comparison_to_csv(rows: Sequence[ComparisonRow], dim: int) -> str:
    cols = ["x1"] if dim == 1 else ["x1", "x2"]
    lines = [",".join(cols + ["s", "pde", "mc", "stderr", "z"])]
    for r in rows:
        vals = [repr(float(v)) for v in r.x] + [
            repr(float(r.s)),
            repr(float(r.pde)),
            repr(float(r.mc)),
            repr(float(r.stderr)),
            repr(float(r.z)),
        ]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"
