"""Independent verification layer: Euler-Maruyama paths of the characteristic
diffusion with first-exit detection, the exit-time/discount expectation
estimator for the backward solution, Monte-Carlo confinement probabilities,
and the analytic interval-confinement bound used to certify contraction.

Exit is detected at sampled times only (no bridge correction), which biases
confinement probabilities upward by O(sqrt(dt_mc)); small default steps and
the comparison allowance absorb this, and the bias direction is the safe one
for every inequality asserted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PathConfig:
    """Monte-Carlo controls; all randomness flows from the single seed."""

    dt_mc: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not self.dt_mc > 0:
            raise ValueError("dt_mc must be positive")
        if self.n_paths < 100:
            raise ValueError("need at least 100 paths")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_paths: int
    n_exited: int


class _FieldInterp:
    """Multilinear spatial interpolation with the zero wall padded in;
    piecewise-constant to the left in time for space-time fields."""

    def __init__(self, grid: Grid, values: np.ndarray, time_dependent: bool):
        self.grid = grid
        self.time_dependent = time_dependent
        if time_dependent:
            full = np.zeros((values.shape[0],) + tuple(grid.nx))
            sl = (slice(None),) + tuple(slice(1, -1) for _ in range(grid.dim))
            full[sl] = values
        else:
            full = np.zeros(tuple(grid.nx))
            full[tuple(slice(1, -1) for _ in range(grid.dim))] = values
        self.full = full

    def __call__(self, pts: np.ndarray, t: float = 0.0) -> np.ndarray:
        g = self.grid
        if self.time_dependent:
            lvl = min(int(np.floor(t / g.dt + 1e-9)), self.full.shape[0] - 1)
            full = self.full[lvl]
        else:
            full = self.full
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


def _run_paths(
    dec: DiffusionDecomposition,
    x,
    s: float,
    horizon: float,
    cfg: PathConfig,
    terminal: SpaceField | None = None,
    source: SpaceTimeField | None = None,
    trace: bool = False,
):
    """Simulate cfg.n_paths characteristics from (x, s) to `horizon`.

    Returns per-path payoff values, the alive mask at the horizon, and
    (optionally) per-step snapshots for structural checks.  Paths are frozen
    at their first sampled position outside the closed box; draws are
    generated for every path in a batch regardless of the mask, so the stream
    layout depends only on (seed, batch index, step).
    """
    grid = dec.grid
    coeffs = dec.coeffs
    domain = grid.domain
    dim = grid.dim
    x = np.asarray(x, dtype=float).reshape(dim)
    if not domain.contains(x):
        raise ValueError(f"start point {tuple(x)} must lie strictly inside the domain")
    if cfg.dt_mc > grid.dt + 1e-12:
        raise ValueError(f"dt_mc = {cfg.dt_mc} exceeds the grid step {grid.dt}")
    if not 0.0 <= s <= horizon:
        raise ValueError(f"need 0 <= s <= horizon, got s={s}, horizon={horizon}")

    if trace and cfg.n_paths > BATCH_SIZE:
        raise ValueError("trace mode records per-step snapshots; keep n_paths within one batch")
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
        btilde_c = dec.columns_at(x0, 0.0)[0]  # (dim, M)
    lam_zero = coeffs.lam_is_zero
    term_interp = _FieldInterp(grid, terminal.values, False) if terminal is not None else None
    src_interp = _FieldInterp(grid, source.values, True) if source is not None else None

    values = np.empty(cfg.n_paths)
    alive_all = np.empty(cfg.n_paths, dtype=bool)
    snapshots: list[dict] = []
    n_batches = (cfg.n_paths + BATCH_SIZE - 1) // BATCH_SIZE
    for bi in range(n_batches):
        nb = min(BATCH_SIZE, cfg.n_paths - bi * BATCH_SIZE)
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
                gamma_log = np.where(
                    active, gamma_log + LAMBDA_DISCOUNT_SIGN * lam_vals * dt_eff, gamma_log
                )
            root_dt = math.sqrt(dt_eff)
            if const:
                dy = f_c * dt_eff + root_dt * (draws[:, N:] @ btilde_c.T)
                if N:
                    dy = dy + root_dt * (draws[:, :N] @ beta_c)
            else:
                dy = coeffs.f_at(y_eval, t) * dt_eff
                cols = dec.columns_at(y_eval, t)  # (nb, dim, M)
                dy = dy + root_dt * np.einsum("ndm,nm->nd", cols, draws[:, N:])
                if N:
                    bv = coeffs.beta_at(y_eval, t)  # (N, nb, dim)
                    dy = dy + root_dt * np.einsum("knd,nk->nd", bv, draws[:, :N])
            y = np.where(active[:, None], y + dy, y)
            outside = np.any(y < lo, axis=1) | np.any(y > hi, axis=1)
            active &= ~outside
            if trace:
                snapshots.append(
                    {"t": t + dt_eff, "y": y.copy(), "src_acc": src_acc.copy(), "active": active.copy()}
                )
        if term_interp is not None:
            payoff = np.where(active, np.exp(gamma_log) * term_interp(y), 0.0)
        else:
            payoff = np.zeros(nb)
        sl = slice(bi * BATCH_SIZE, bi * BATCH_SIZE + nb)
        values[sl] = src_acc + payoff
        alive_all[sl] = active
    out = {"values": values, "alive": alive_all}
    if trace:
        out["snapshots"] = snapshots
    return out


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
    if s > T + 1e-12:
        raise ValueError(f"s = {s} is beyond the horizon T = {T}")
    res = _run_paths(dec, x, min(s, T), T, cfg, terminal=terminal, source=source)
    v = res["values"]
    mean = float(np.mean(v))
    if cfg.n_paths > 1 and not np.all(v == v[0]):
        stderr = float(np.std(v, ddof=1) / math.sqrt(cfg.n_paths))
    else:
        stderr = 0.0
    if np.all(v == v[0]):
        mean = float(v[0])  # constant sample: no roundoff from the mean reduction
    return McEstimate(
        mean=mean,
        stderr=stderr,
        n_paths=cfg.n_paths,
        n_exited=int(np.count_nonzero(~res["alive"])),
    )


def confinement_probability(
    dec: DiffusionDecomposition, x, s: float, theta_gap: float, cfg: PathConfig
) -> McEstimate:
    """Fraction of paths still inside the box at s + theta_gap, with binomial stderr."""
    if theta_gap < 0:
        raise ValueError("theta_gap must be >= 0")
    res = _run_paths(dec, x, s, s + theta_gap, cfg)
    alive = res["alive"]
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
        return {
            "D1": list(self.D1),
            "K1": self.K1,
            "K2": self.K2,
            "Dhat1": list(self.Dhat1),
            "delta_qv": self.delta_qv,
            "theta_gap": self.theta_gap,
            "nu": self.nu,
            "sqrt_nu": self.sqrt_nu,
            "terms_used": self.terms_used,
        }


def _interval_confinement(lo: float, hi: float, x0: float, tau: float) -> tuple[float, int]:
    """P(Brownian motion from x0 stays in (lo, hi) up to time tau), by the
    odd-mode eigenfunction series, truncated once the tail bound drops below
    SERIES_TAIL_TOL."""
    L = hi - lo
    if not (L > 0 and lo < x0 < hi):
        raise ValueError("confinement interval must contain the start point")
    if not tau > 0:
        raise ValueError("confinement time must be positive")
    c = math.pi**2 * tau / (2.0 * L**2)
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
        raise ValueError("theta_gap must be positive")
    d1, d2 = domain.lo[0], domain.hi[0]
    env = bounds(coeffs, grid)
    if not env.delta_qv > 0:
        raise ValueError("smallest eigenvalue of 2b must be positive (validate the coefficients)")
    K1 = -d2 - theta_gap * env.sup_f1
    K2 = -d1 + theta_gap * env.sup_f1
    lo, hi = d1 + K1, d2 + K2
    nu, terms = _interval_confinement(lo, hi, 0.0, env.delta_qv * theta_gap)
    nu = min(max(nu, np.nextafter(0.0, 1.0)), np.nextafter(1.0, 0.0))
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
    """Backward-solve the problem once, then for each (x..., s) sample point
    compare the interpolated grid solution against the path estimate.

    A row is flagged when |pde - mc| > 3*stderr + 0.02*scale with scale the
    sup norm of the grid solution.  mc_coeffs substitutes a different
    coefficient set on the path side (negative-control hook).
    """
    grid = problem.grid
    out = solve_terminal(grid, problem.coeffs, source=problem.source, terminal=problem.terminal)
    u = out.u
    scale = sup_norm(u)
    dec = decompose(mc_coeffs if mc_coeffs is not None else problem.coeffs, grid)
    interp = _FieldInterp(grid, u.values, True)
    rows = []
    for pt in points:
        pt = [float(v) for v in pt]
        x, s = pt[: grid.dim], pt[grid.dim]
        lvl, _ = grid.nearest_level(s)
        pde_val = float(interp(np.asarray([x]), lvl * grid.dt + 1e-12 * grid.dt)[0])
        est = feynman_kac(dec, x, s, cfg, terminal=problem.terminal, source=problem.source)
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
