#!/usr/bin/env python3
"""One-shot calibration of single bspde layers against the ROADMAP baseline.

    python3 perfbench/calibrate.py

Not a workload and not gated: it prints one line per measurement (median of
REPEATS calls, in a single process, BLAS/OpenMP pools pinned as in the
benchmark children) so the ROADMAP's hand-measured figures can be checked
through the same harness.  perfbench/CALIBRATION.md records a run.
"""

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3


def timed(fn, repeats=REPEATS):
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from bspde import (
        CoefficientSet,
        Domain,
        InitialValue,
        PathConfig,
        SpaceField,
        assemble_feedback_matrix,
        decompose,
        feynman_kac,
        field_to_csv,
        make_grid,
        solve_terminal,
    )
    from bspde.stepper import solve_tridiagonal

    line = "{:<58} {:>12.4g} {}"
    unit = Domain((0.0,), (1.0,))
    b01 = CoefficientSet.create(1, b=0.1)

    def sine(g):
        return SpaceField.from_function(g, lambda x: np.sin(np.pi * x))

    for nx in (201, 2001):
        g = make_grid(unit, nx, 400, 1.0)
        term = sine(g)
        t, _ = timed(lambda: solve_terminal(g, b01, terminal=term))
        print(line.format(f"1-D Cauchy sweep, nx={nx}, nt=400", t, "s"))

    n = 1999
    dl = np.full(n, -1.0)
    du = np.full(n, -1.0)
    d = np.full(n, 2.5)
    rhs = np.ones(n)
    t, _ = timed(lambda: solve_tridiagonal(dl, d, du, rhs), repeats=20)
    print(line.format(f"pure-Python tridiagonal solve, {n} unknowns", 1e3 * t, "ms"))

    square = Domain((0.0, 0.0), (1.0, 1.0))
    c2 = CoefficientSet.create(2, b=[0.1, 0.05])
    for steps_per_unit in (400, 10):
        g2 = make_grid(square, (129, 129), 1, 1.0 / steps_per_unit)
        # not an eigenvector of the system, so the Krylov solve does real work
        term2 = SpaceField(g2, np.random.default_rng(0).random(g2.interior_shape))
        t, _ = timed(lambda: solve_terminal(g2, c2, terminal=term2))
        print(line.format(f"2-D step (assembly + BiCGSTAB), 129x129 nodes, dt=1/{steps_per_unit}", t, "s"))

    g = make_grid(unit, 101, 100, 1.0)
    t, fm = timed(lambda: assemble_feedback_matrix(g, b01, InitialValue(0.5)), repeats=1)
    print(line.format(f"assemble_feedback_matrix, {fm.matrix.shape[0]} nodes, nt=100", t, "s"))

    g = make_grid(unit, 201, 400, 1.0)
    u = solve_terminal(g, b01, terminal=sine(g)).u
    t, text = timed(lambda: field_to_csv(u))
    print(line.format(f"field_to_csv, {text.count(chr(10)) - 1} rows", t, "s"))

    dec = decompose(b01, g)
    cfg = PathConfig(dt_mc=1e-3, n_paths=65536, seed=7)
    t, est = timed(lambda: feynman_kac(dec, [0.5], 0.0, cfg, terminal=sine(g)), repeats=1)
    steps = 1000 * cfg.n_paths
    print(line.format("Monte-Carlo, constant coefficients, per path-step", 1e9 * t / steps, "ns"))
    print(line.format("  (exit fraction of that run)", est.n_exited / est.n_paths, "ratio"))
    return 0


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
