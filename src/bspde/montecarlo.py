"""Independent verification layer: Euler-Maruyama paths of the characteristic
diffusion with first-exit detection, the exit-time/discount expectation
estimator for the backward solution, Monte-Carlo confinement probabilities,
and the analytic interval-confinement bound used to certify contraction.

Exit is detected at sampled times only (no bridge correction), which biases
confinement probabilities upward by O(sqrt(dt_mc)); small default steps and
the comparison allowance absorb this, and the bias direction is the safe one
for every inequality asserted here.

Every estimate runs through one batched path engine, `_simulate`, over a list
of start points sharing a horizon; `compare_mc_pde` calls it once for all of
its points.  Stream layout: batch bi of the n_paths paths draws from
default_rng([seed, bi]) one (nb, N + M) block of standard normals per step,
and that block is shared by every point still running at the step.  A batch
stops drawing once all of its paths have exited, and its stream is never read
after that.  Each point's paths therefore see exactly the draws a run of that
point alone would see, so the layout named by NORMAL_SAMPLER is unchanged and
estimates do not depend on which other points run alongside.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .coefficients import CoefficientSet, DiffusionDecomposition, bounds, decompose
from .grid import Domain, Grid, SpaceField, SpaceTimeField, sup_norm
from .stepper import solve_terminal

# Discount convention: with the zeroth-order term lam*u inside the spatial
# operator of the backward equation, the path functional that reproduces the
# solution discounts by exp(+ integral of lam along the path); lam <= 0 keeps
# the factor in (0, 1].
LAMBDA_DISCOUNT_SIGN = 1.0

BATCH_SIZE = 1 << 16
NORMAL_SAMPLER = "numpy PCG64 standard_normal, counter-split batches of 65536"

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
        if self.n_paths < 100:
            raise MonteCarloError("need at least 100 paths")
        # a row of doubles, one per path, must fit in one numpy array
        if 8 * self.n_paths > np.iinfo(np.intp).max:
            raise MonteCarloError("n_paths asks for more paths than a numpy array can hold")
        if int(self.seed) != self.seed or self.seed < 0:
            raise MonteCarloError("seed must be a non-negative integer")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_paths: int
    n_exited: int


class _FieldInterp:
    """Multilinear spatial interpolation with the zero wall padded in, on a
    stack of time levels, piecewise-constant to the left in time; a space
    field is a one-level stack."""

    def __init__(self, grid: Grid, levels: np.ndarray):
        self.grid = grid
        full = np.zeros((levels.shape[0],) + tuple(grid.nx))
        full[(slice(None),) + tuple(slice(1, -1) for _ in range(grid.dim))] = levels
        self.full = full

    def __call__(self, pts: np.ndarray, t: float = 0.0) -> np.ndarray:
        g = self.grid
        full = self.full[min(int(np.floor(t / g.dt + 1e-9)), self.full.shape[0] - 1)]
        idx = []
        frac = []
        for a in range(g.dim):
            u = (pts[:, a] - g.domain.lo[a]) / g.hx[a]
            c = np.clip(np.floor(u).astype(int), 0, g.nx[a] - 2)
            idx.append(c)
            frac.append(np.clip(u - c, 0.0, 1.0))
        if g.dim == 1:
            c, f = idx[0], frac[0]
            return full[c] * (1 - f) + full[c + 1] * f
        c1, c2, f1, f2 = idx[0], idx[1], frac[0], frac[1]
        return (
            full[c1, c2] * (1 - f1) * (1 - f2)
            + full[c1 + 1, c2] * f1 * (1 - f2)
            + full[c1, c2 + 1] * (1 - f1) * f2
            + full[c1 + 1, c2 + 1] * f1 * f2
        )


def _checked_start(
    dec: DiffusionDecomposition, x, s: float, horizon: float, cfg: PathConfig
) -> tuple[np.ndarray, float]:
    """Check a start point (x, s) of paths that run to `horizon` against the
    horizon, the grid and the path step; return x as a (dim,) array and s
    clamped to the horizon."""
    if s > horizon + 1e-12:
        raise MonteCarloError(f"s = {s} is beyond the horizon T = {horizon}")
    s = min(s, horizon)
    grid = dec.grid
    x = np.asarray(x, dtype=float).reshape(grid.dim)
    if not grid.domain.contains(x):
        raise MonteCarloError(f"start point {tuple(x.tolist())} must lie strictly inside the domain")
    if cfg.dt_mc > grid.dt + 1e-12:
        raise MonteCarloError(f"dt_mc = {cfg.dt_mc} exceeds the grid step {grid.dt}")
    if not 0.0 <= s <= horizon:
        raise MonteCarloError(f"need 0 <= s <= horizon, got s={s}, horizon={horizon}")
    if (horizon - s) / cfg.dt_mc > np.iinfo(np.intp).max:
        raise MonteCarloError(f"dt_mc = {cfg.dt_mc} asks for more path steps to the horizon than numpy can index")
    return x, s


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.  With a contraction of length 1 each entry is one product either
    way, and the broadcast product skips a slow BLAS call."""
    return a * b if b.shape[0] == 1 else a @ b


class _LivePaths:
    """Paths of one start-time group that had not exited at the last
    compaction: position, log discount (unless lam is zero), source integral
    (when there is a source), slot, and which of them are still inside the
    box.  Slot q * nb + r is path r of the batch for the group's q-th point,
    so the path's draw row is the slot modulo nb."""

    __slots__ = ("y", "gam", "acc", "slot", "active", "n_active", "pids", "nb")

    def __init__(self, xs: np.ndarray, pids: list[int], nb: int, discount: bool, source: bool):
        size = len(pids) * nb
        self.y = np.repeat(xs, nb, axis=0)
        self.gam = np.zeros(size) if discount else None
        self.acc = np.zeros(size) if source else None
        self.slot = np.arange(size, dtype=np.int32)
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
    dec: DiffusionDecomposition,
    starts: Sequence[tuple[np.ndarray, float]],
    horizon: float,
    cfg: PathConfig,
    terminal: SpaceField | None = None,
    source: SpaceTimeField | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate cfg.n_paths characteristics from each checked start (x_p, s_p)
    to the shared `horizon`.

    Returns per-path payoff values and the alive mask at the horizon, both of
    shape (n_points, n_paths).

    Every point still running at step j reads its paths' rows of the step's
    draw block (stream layout: module docstring).  Points with the same
    start time are advanced together, in arrays of at most BATCH_SIZE paths
    (larger ones cost peak memory and cache misses), so coefficients and the
    source are evaluated once per array and step.  A path is frozen at its
    first sampled position outside the closed box, and its value is written
    out then; it is dropped from the arrays once a quarter of them has
    exited, and until then carried along with its updates masked out of
    every output.  A batch stops drawing once none of its paths is left.
    """
    grid = dec.grid
    coeffs = dec.coeffs
    lo = np.asarray(grid.domain.lo)
    hi = np.asarray(grid.domain.hi)
    N = coeffs.n_beta
    M = dec.n_columns
    const = coeffs.is_constant
    if const:
        x0 = 0.5 * (lo + hi)[None, :]  # every entry is a number, so any point will do
        f_c = coeffs.f_at(x0, 0.0)[0]
        lam_c = float(coeffs.lam_at(x0, 0.0)[0])
        beta_c = coeffs.beta_at(x0, 0.0)[:, 0, :] if N else None
        btilde_c = dec.columns_at(x0, 0.0)[0]  # (dim, M)
    discount = not coeffs.lam_is_zero
    term_interp = _FieldInterp(grid, terminal.values[None]) if terminal is not None else None
    src_interp = _FieldInterp(grid, source.values) if source is not None else None

    n = cfg.n_paths
    values = np.zeros((len(starts), n))
    alive = np.zeros((len(starts), n), dtype=bool)
    by_time: dict[float, list[int]] = {}
    for p, (_, s) in enumerate(starts):
        by_time.setdefault(s, []).append(p)
    groups = [
        (s, max(0, int(math.ceil((horizon - s) / cfg.dt_mc - 1e-12))), pids) for s, pids in by_time.items()
    ]
    max_steps = max((g[1] for g in groups), default=0)
    for bi in range((n + BATCH_SIZE - 1) // BATCH_SIZE):
        base = bi * BATCH_SIZE
        nb = min(BATCH_SIZE, n - base)
        rng = np.random.default_rng([cfg.seed, bi])
        per_array = max(1, BATCH_SIZE // nb)
        lives = []
        for s, n_steps, pids in groups:
            for c in range(0, len(pids), per_array):
                chunk = pids[c : c + per_array]
                xs = np.stack([starts[p][0] for p in chunk])
                lives.append((s, n_steps, _LivePaths(xs, chunk, nb, discount, src_interp is not None)))
        for j in range(max_steps):
            running = [(s, lp) for s, n_steps, lp in lives if j < n_steps and lp.n_active]
            if not running:
                break
            draws = rng.standard_normal((nb, N + M))
            for s, lp in running:
                t = s + j * cfg.dt_mc
                dt_eff = min(cfg.dt_mc, horizon - t)
                d = np.take(draws, lp.slot, axis=0, mode="wrap")  # row = slot mod nb
                y = lp.y
                y_eval = y if const else np.clip(y, lo, hi)
                if src_interp is not None:
                    inc = src_interp(y_eval, t)
                    if discount:
                        inc *= np.exp(lp.gam)
                    inc *= dt_eff
                    lp.acc += inc
                if discount:
                    lam_vals = lam_c if const else coeffs.lam_at(y_eval, t)
                    lp.gam += LAMBDA_DISCOUNT_SIGN * lam_vals * dt_eff
                root_dt = math.sqrt(dt_eff)
                if const:
                    dy = _matmul(d[:, N:], btilde_c.T)
                    dy *= root_dt
                    dy += f_c * dt_eff
                    if N:
                        dy += root_dt * _matmul(d[:, :N], beta_c)
                else:
                    dy = coeffs.f_at(y_eval, t) * dt_eff
                    dy += root_dt * np.einsum("ndm,nm->nd", dec.columns_at(y_eval, t), d[:, N:])
                    if N:
                        dy += root_dt * np.einsum("knd,nk->nd", coeffs.beta_at(y_eval, t), d[:, :N])
                y += dy
                del d, dy, y_eval  # freed before a compaction copies the state
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
    """Sample mean and standard error of one point's path values."""
    if np.all(values == values[0]):
        mean, stderr = float(values[0]), 0.0  # constant sample: no roundoff from the mean reduction
    else:
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / math.sqrt(cfg.n_paths))
    return McEstimate(
        mean=mean,
        stderr=stderr,
        n_paths=cfg.n_paths,
        n_exited=int(np.count_nonzero(~alive)),
    )


def feynman_kac(
    dec: DiffusionDecomposition,
    x,
    s: float,
    cfg: PathConfig,
    terminal: SpaceField | None = None,
    source: SpaceTimeField | None = None,
) -> McEstimate:
    """Path estimate of the backward solution at (x, s): discounted terminal
    payoff for paths that never leave the box before T, plus the discounted
    running source up to the first exit."""
    T = dec.grid.T
    values, alive = _simulate(dec, [_checked_start(dec, x, s, T, cfg)], T, cfg, terminal=terminal, source=source)
    return _estimate(values[0], alive[0], cfg)


def confinement_probability(
    dec: DiffusionDecomposition, x, s: float, theta_gap: float, cfg: PathConfig
) -> McEstimate:
    """Fraction of paths still inside the box at s + theta_gap, with binomial stderr."""
    if theta_gap < 0:
        raise MonteCarloError("theta_gap must be >= 0")
    horizon = s + theta_gap
    _, (alive,) = _simulate(dec, [_checked_start(dec, x, s, horizon, cfg)], horizon, cfg)
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


def confinement_bound(
    domain: Domain, coeffs: CoefficientSet, grid: Grid, theta_gap: float
) -> ConfinementBound:
    """Analytic bound on the stay-inside probability over an extra time theta_gap.

    The first-axis interval is widened by the drift envelope, the quadratic
    variation is bounded below by the smallest eigenvalue of 2b sampled on the
    grid, and the confinement probability of the time-changed Brownian motion
    is evaluated from the classical eigen-series.
    """
    if not theta_gap > 0:
        raise MonteCarloError("theta_gap must be positive")
    d1, d2 = domain.lo[0], domain.hi[0]
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


@dataclass(frozen=True)
class CauchyProblem:
    grid: Grid
    coeffs: CoefficientSet
    source: SpaceTimeField | None
    terminal: SpaceField


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
    """Check every (x..., s) sample point, backward-solve the problem once,
    then for each point compare the interpolated grid solution against the
    path estimate.

    A row is flagged when |pde - mc| > 3*stderr + 0.02*scale with scale the
    sup norm of the grid solution.  mc_coeffs substitutes a different
    coefficient set on the path side (negative-control hook).
    """
    grid = problem.grid
    dec = decompose(mc_coeffs if mc_coeffs is not None else problem.coeffs, grid)
    pts, starts = [], []
    for pt in points:
        pt = [float(v) for v in pt]
        x, s = pt[: grid.dim], pt[grid.dim]
        starts.append(_checked_start(dec, x, s, grid.T, cfg))
        pts.append((x, s))
    u = solve_terminal(grid, problem.coeffs, source=problem.source, terminal=problem.terminal).u
    scale = sup_norm(u)
    interp = _FieldInterp(grid, u.values)
    values, alive = _simulate(dec, starts, grid.T, cfg, terminal=problem.terminal, source=problem.source)
    rows = []
    for (x, s), v, a in zip(pts, values, alive):
        lvl, _ = grid.nearest_level(s)
        pde_val = float(interp(np.asarray([x]), lvl * grid.dt + 1e-12 * grid.dt)[0])
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
