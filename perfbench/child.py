"""One workload child: a fresh Python process that runs the bspde CLI once
per subcommand on generated inputs and records what it measured.

Usage (started by run.py, one child at a time):
    python3 perfbench/child.py --src SRC --config CONFIG --out OUT \
        --commands solve,qmatrix --trace 0|1 --result RESULT.json

The host-speed probe (hostspeed.py) starts first, and every time is
rescaled with it.  Nothing heavy is imported before the set-up timer starts,
so setup_s covers `import bspde.cli` plus one `cli.load_config` of the
config.  With --trace 1
the bspde entry points are wrapped after set-up and the spans are written to
OUT/spans.json when the commands are done.
"""

import time

START_MONOTONIC = time.monotonic()

import hostspeed  # noqa: E402

PROBE = hostspeed.Probe()
PROBE.start()
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

EXPR_REPEATS = 20


def _expressions(raw: dict) -> list[str]:
    """Every expression string in the config's coefficients, data and gamma kernel."""
    out = []

    def walk(v):
        if isinstance(v, str):
            out.append(v)
        elif isinstance(v, (list, tuple)):
            for x in v:
                walk(x)

    gamma = raw.get("gamma") or {}
    walk([list(raw.get("coefficients", {}).values()), list(raw.get("data", {}).values()), gamma.get("kernel")])
    return out


def _expr_eval_us(cfg, parse, evaluate) -> float:
    """Median time, in microseconds, to parse and evaluate all of the workload's
    expressions once on the grid's interior nodes."""
    pts = cfg.grid.interior_points()
    env = {"t": 0.5, "x1": pts[:, 0]}
    env["x" if cfg.grid.dim == 1 else "x2"] = pts[:, -1]
    texts = _expressions(cfg.raw)
    times = []
    for _ in range(EXPR_REPEATS):
        t0 = time.perf_counter()
        for text in texts:
            evaluate(parse(text), env)
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--commands", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    out = Path(args.out)
    sys.path.insert(0, args.src)

    t0 = time.perf_counter()
    import bspde.cli as cli

    cfg = cli.load_config(args.config, out_override=str(out / "setup"))
    t_setup = time.perf_counter()

    if args.trace:
        import tracing
        from bspde.exprdsl import evaluate, parse

        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks = {"setup": (t0, t_setup)}
    exit_codes = {}
    for cmd in args.commands.split(","):
        t = time.perf_counter()
        exit_codes[cmd] = cli.main([cmd, "--config", args.config, "--out", str(out / cmd)])
        marks[cmd] = (t, time.perf_counter())
    end = time.perf_counter()
    end_mono = time.monotonic()
    PROBE.stop()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    spans = {name: PROBE.span(*m) for name, m in marks.items()}
    child = PROBE.span(START, end)

    import numpy
    import scipy

    result = {
        "setup_s": spans["setup"]["s"],
        "command_s": {cmd: spans[cmd]["s"] for cmd in exit_codes},
        "raw_s": {name: sp["wall_s"] for name, sp in spans.items()},
        "slowdown": {name: sp["slowdown"] for name, sp in {**spans, "child": child}.items()},
        "exit_codes": exit_codes,
        "start_monotonic": START_MONOTONIC,
        "end_monotonic": end_mono,
        "child_s": child["s"],
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        tracer.dump(out / "spans.json")
        result["exprdsl.eval_us"] = _expr_eval_us(cfg, parse, evaluate)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
