"""Seeded inputs for the three benchmark workloads.

Each workload is a config file (plus, for picard-1d, a space-time kernel CSV)
generated from the workload seed, and the list of CLI subcommands a workload
child runs on it.  The seed changes values only, never sizes, so every seed
asks the program for the same amount of work.  Generation uses the standard
library alone, so the inputs do not depend on the numpy version under test.

Why these workloads:

- picard-1d: a near-critical non-local coupling (contraction ratio ~0.88), so
  nearly all the time goes to 1-D backward sweeps driven by the Picard loop
  (solve) or by column-by-column feedback-matrix assembly (qmatrix).  The
  space-time kernel CSV makes kernel parsing dominate set-up.  Coefficients
  are constant and there are no paths.
- eigenmode-mc: the shipped experiment (configs/eigenmode.json) with a
  cheaper Monte-Carlo section; the largest share of its time is the
  constant-coefficient path estimator, and about 60% of the paths exit early.
- grid-2d: a 2-D grid with time- and space-dependent coefficients, so the
  system is re-assembled and the expressions re-evaluated at every level and
  every path-step; it also carries the 2-D sparse solve and the large
  solution CSV.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

PI = repr(math.pi)

# picard-1d sizes
P1_NX = 41
P1_NT = 100
P1_THETA = 0.15
P1_B = 0.01
P1_KERNEL_BOUND = 0.98  # discrete sup-to-sup norm of the kernel part, < 1

# eigenmode-mc Monte-Carlo section (everything else is the shipped config)
EM_DT_MC = 2e-3
EM_N_PATHS = 70_000  # two batches of the estimator's 65536-path stream
EM_POINTS = ([0.2, 0.0], [0.5, 0.0], [0.8, 0.0])  # three of the five shipped points

# grid-2d sizes
G2_NX = 33
G2_NT = 40
G2_N_PATHS = 10_000
G2_DT_MC = 5e-3

COMMANDS = {
    "picard-1d": ("solve", "qmatrix"),
    "eigenmode-mc": ("solve", "mccheck", "converge"),
    "grid-2d": ("solve", "mccheck"),
}

# Commands whose wall time forms the verify_s end-to-end metric: the oracle
# and cross-check work that follows the solve.
VERIFY_COMMANDS = ("qmatrix", "mccheck", "converge")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}")


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _trapezoid(n_levels: int, dt: float) -> list[float]:
    w = [dt] * n_levels
    w[0] = w[-1] = 0.5 * dt
    return w


def kernel_csv(seed: int, nx: int = P1_NX, nt: int = P1_NT, theta: float = P1_THETA) -> str:
    """Positive random space-time kernel on levels 0..theta, scaled per target
    node so the discrete norm that validation computes is P1_KERNEL_BOUND."""
    rng = _rng("kernel", seed)
    dt = 1.0 / nt
    h = 1.0 / (nx - 1)
    n_levels = int(round(theta / dt)) + 1
    w = _trapezoid(n_levels, dt)
    xs = [i * h for i in range(1, nx - 1)]
    n = len(xs)
    # raw[k][y][x]
    raw = [[[0.5 + rng.random() for _ in range(n)] for _ in range(n)] for _ in range(n_levels)]
    scale = []
    for ix in range(n):
        total = sum(w[k] * h * raw[k][iy][ix] for k in range(n_levels) for iy in range(n))
        scale.append(P1_KERNEL_BOUND / total)
    lines = ["t,x1,y1,k"]
    for k in range(n_levels):
        t = repr(k * dt)
        for iy, y in enumerate(xs):
            row = raw[k][iy]
            ys = repr(y)
            for ix, x in enumerate(xs):
                lines.append(f"{t},{x!r},{ys},{row[ix] * scale[ix]!r}")
    return "\n".join(lines) + "\n"


def _picard_1d(rng: random.Random, seed: int, d: Path) -> None:
    a = 0.9 + 0.2 * rng.random()
    c = 0.2 * rng.random()
    cfg = {
        "domain": {"lo": [0.0], "hi": [1.0]},
        "grid": {"nx": [P1_NX], "nt": P1_NT, "T": 1.0},
        "coefficients": {"b": [[P1_B]], "f": [0.0], "lam": 0.0, "beta": []},
        "gamma": {
            "type": "convex",
            "weights": [0.9, 0.09],
            "parts": [
                {"type": "initial_value", "weight": 1.0},
                {"type": "space_time_kernel", "theta": P1_THETA, "csv": "kernel.csv"},
            ],
        },
        "data": {"terminal": f"{a!r}*sin({PI}*x) + {c!r}*sin(2*{PI}*x)", "source": 0.0},
        "fixedpoint": {"tol": 1e-8, "max_iter": 400},
        "output": {"dir": "out"},
    }
    (d / "kernel.csv").write_text(kernel_csv(seed), encoding="utf-8")
    _write_json(d / "config.json", cfg)


def _eigenmode_mc(rng: random.Random, seed: int, d: Path, repo: Path) -> None:
    cfg = json.loads((repo / "configs" / "eigenmode.json").read_text(encoding="utf-8"))
    mc = cfg["montecarlo"]
    mc["dt_mc"] = EM_DT_MC
    mc["n_paths"] = EM_N_PATHS
    mc["seed"] = rng.randrange(1 << 31)
    mc["points"] = [list(p) for p in EM_POINTS]
    _write_json(d / "config.json", cfg)


def _grid_2d(rng: random.Random, seed: int, d: Path) -> None:
    a = 0.8 + 0.4 * rng.random()
    points = [[round(0.3 + 0.4 * rng.random(), 6), round(0.3 + 0.4 * rng.random(), 6), 0.0] for _ in range(2)]
    cfg = {
        "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "grid": {"nx": [G2_NX, G2_NX], "nt": G2_NT, "T": 1.0},
        "coefficients": {
            "b": ["0.1 + 0.05*sin(3*t)", "0.08*(1 + 0.5*x1*(1 - x1))"],
            "f": ["0.3*cos(2*t)", "-0.2*x1"],
            "lam": "-0.2 - 0.1*x2",
            "beta": [],
        },
        "gamma": {"type": "time_kernel", "theta": 0.5, "kernel": "1.5*exp(-t)"},
        "data": {
            "terminal": f"{a!r}*sin({PI}*x1)*sin({PI}*x2)",
            "source": "x1*(1-x1)*x2*(1-x2)*exp(-t)",
        },
        "fixedpoint": {"tol": 1e-8, "max_iter": 200},
        "montecarlo": {
            "dt_mc": G2_DT_MC,
            "n_paths": G2_N_PATHS,
            "seed": rng.randrange(1 << 31),
            "points": points,
        },
        "output": {"dir": "out"},
    }
    _write_json(d / "config.json", cfg)


def generate(workload: str, seed: int, d: Path, repo: Path) -> str:
    """Write the workload's inputs into directory d; return their sha256 digest."""
    d.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    if workload == "picard-1d":
        _picard_1d(rng, seed, d)
    elif workload == "eigenmode-mc":
        _eigenmode_mc(rng, seed, d, repo)
    elif workload == "grid-2d":
        _grid_2d(rng, seed, d)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs_digest(d)


def inputs_digest(d: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(d.iterdir()):
        if p.is_file():
            h.update(p.name.encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()
