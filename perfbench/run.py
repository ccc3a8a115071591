#!/usr/bin/env python3
"""bspde benchmark runner.

    python3 perfbench/run.py --workload picard-1d --seed 1 --seconds 35 --trace 0

Generates the workload's inputs from --seed into .bench_work/ under the
checkout, then starts workload children (perfbench/child.py) one at a time,
each a fresh Python process that calls `bspde.cli.main` once per subcommand,
for about --seconds (and at least MIN_CHILDREN of them).  Every subcommand's
output goes through its correctness gate (gates.py).  Each child rescales
its times to the host's fast state with the probe in hostspeed.py; the
metrics are medians over the children.

--trace 0 reports the end-to-end metrics (see end_to_end_metrics).
--trace 1 alternates traced and untraced children and reports the per-layer
metrics from the spans of the traced ones (tracing.py); the tracing overhead
is the traced minus the untraced median wall time.

A readable table goes first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  The full record, with the
environment and the digest of the generated inputs, is written to
.bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_CHILDREN = 3  # untraced children per --trace 0 run; traced/untraced pairs per --trace 1 run
RUN_LIMIT_S = 170.0  # every run ends within this, children included
CHILD_TIMEOUT_S = 150.0
BLAS_THREADS = "1"  # child-only pin of the BLAS/OpenMP pools (must stay <= nproc)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}

# Per-call timings: each is reported as its median, its p90 (".p90") and
# its sample count (".n").
PER_CALL = {
    "cli.load_config_s": "s",
    "nonlocal_ops.kernel_from_csv_s": "s",
    "stepper.sweep_s": "s",
    "stepper.step_us": "us",
    "fixedpoint.feedback_matrix_s": "s",
    "fixedpoint.direct_s": "s",
    "nonlocal_ops.apply_us": "us",
    "nonlocal_ops.validate_spec_s": "s",
    "grid.field_to_csv_s": "s",
    "montecarlo.confinement_bound_s": "s",
}

# Per-child values: the median over the traced children.
PER_CHILD = {
    "stepper.sweeps": "count",
    "stepper.self_s": "s",
    "stepper.max_linear_residual": "1",
    "fixedpoint.iterations": "count",
    "fixedpoint.sweeps_per_solve": "count",
    "fixedpoint.last_ratio": "ratio",
    "fixedpoint.self_s": "s",
    "fixedpoint.feedback_matrix_calls": "count",
    "nonlocal_ops.apply_calls": "count",
    "coefficients.eval_calls": "count",
    "coefficients.eval_s": "s",
    "coefficients.validate_s": "s",
    "exprdsl.eval_us": "us",
    "grid.csv_bytes": "bytes",
    "montecarlo.path_steps": "count",
    "montecarlo.ns_per_path_step": "ns",
    "montecarlo.exit_fraction": "ratio",
    "montecarlo.bias_max": "ratio",
    "cli.command_self_s": "s",
    "trace.spans": "count",
}

# Counts that must repeat exactly from one traced child to the next.
COUNTS = (
    "stepper.sweeps",
    "fixedpoint.iterations",
    "fixedpoint.feedback_matrix_calls",
    "montecarlo.path_steps",
    "nonlocal_ops.apply_calls",
)


def per_layer_units() -> dict:
    units = {}
    for name, unit in PER_CALL.items():
        units[name] = unit
        units[name + ".p90"] = unit
        units[name + ".n"] = "count"
    units.update(PER_CHILD)
    for cmd in ("solve", "qmatrix", "mccheck", "converge"):
        units[f"cli.{cmd}_s"] = "s"
    units["host.slowdown"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": nproc, "cpu_model": cpu, "loadavg_1m": os.getloadavg()[0], "blas_threads": BLAS_THREADS}


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    threads = str(min(int(BLAS_THREADS), nproc))
    for var in THREAD_VARS:
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def run_child(i: int, traced: bool, ctx: dict) -> dict:
    """Run child i to completion; returns its measurements and gate outcome."""
    cdir = ctx["work"] / f"child{i}"
    cdir.mkdir()
    result_path = cdir / "result.json"
    cmds = ctx["commands"]
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--src", str(ROOT / "src"),
        "--config", str(ctx["config"]),
        "--out", str(cdir),
        "--commands", ",".join(cmds),
        "--trace", str(int(traced)),
        "--result", str(result_path),
    ]  # fmt: skip
    timeout = max(1.0, min(CHILD_TIMEOUT_S, ctx["deadline"] - time.monotonic()))
    log_path = ctx["work"] / f"child{i}.log"
    spawn = time.monotonic()
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            rc = subprocess.run(argv, env=ctx["env"], stdout=log, stderr=log, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    rec = {"traced": traced, "returncode": rc, "log": log_path.name}
    res = json.loads(result_path.read_text(encoding="utf-8")) if rc == 0 and result_path.is_file() else None
    reports = {}
    for cmd in cmds:
        try:
            reports[cmd] = json.loads((cdir / cmd / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            reports[cmd] = None
    exit_codes = res["exit_codes"] if res else {}
    rec["gates"] = gates.check(ctx["workload"], ctx["raw_config"], exit_codes, reports)
    if res:
        rec.update(res)
        # Interpreter start-up before the probe ran, then the rescaled rest.
        rec["wall_s"] = (res["start_monotonic"] - spawn) + res["child_s"]
        if traced:
            totals, samples = tracing.child_layer_values(tracing.load(cdir / "spans.json"))
            totals["exprdsl.eval_us"] = res["exprdsl.eval_us"]
            mc_csv = cdir / "mccheck" / "mccheck.csv"
            totals["montecarlo.bias_max"] = (
                gates.bias_max(mc_csv.read_text(encoding="utf-8"), totals["montecarlo.sup_u"])
                if mc_csv.is_file()
                else 0.0
            )
            rec["layer_totals"] = totals
            rec["layer_samples"] = samples
    shutil.rmtree(cdir)
    return rec


def verify_s(child: dict) -> float:
    return sum(t for cmd, t in child["command_s"].items() if cmd in workloads.VERIFY_COMMANDS)


def end_to_end_metrics(children: list[dict], attempted: int, failed: int) -> dict:
    """Medians over the run's children of their times, rescaled to the host's
    fast state by the probe in each child (hostspeed.py), and of their peak
    memory."""
    ok = [c for c in children if "wall_s" in c]
    if not ok:
        return {}
    med = statistics.median
    values = {
        "setup_s": med(c["setup_s"] for c in ok),
        "solve_s": med(c["command_s"]["solve"] for c in ok),
        "verify_s": med(verify_s(c) for c in ok),
        "wall_s": med(c["wall_s"] for c in ok),
        "peak_rss_mb": med(c["peak_rss_mb"] for c in ok),
        "pass_frac": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(children: list[dict]) -> tuple[dict, bool]:
    traced = [c for c in children if c["traced"] and "layer_totals" in c]
    plain = [c for c in children if not c["traced"] and "wall_s" in c]
    if not traced or not plain:
        return {}, False
    units = per_layer_units()
    values = {}
    for name in PER_CALL:
        pooled = [v for c in traced for v in c["layer_samples"][name]]
        values[name] = statistics.median(pooled) if pooled else 0.0
        values[name + ".p90"] = percentile(pooled, 0.9) if pooled else 0.0
        values[name + ".n"] = len(pooled)
    for name in PER_CHILD:
        values[name] = statistics.median(c["layer_totals"][name] for c in traced)
    for cmd in ("solve", "qmatrix", "mccheck", "converge"):
        times = [c["command_s"][cmd] for c in plain if cmd in c["command_s"]]
        values[f"cli.{cmd}_s"] = statistics.median(times) if times else 0.0
    values["host.slowdown"] = statistics.median(c["slowdown"]["child"] for c in children if "slowdown" in c)
    values["trace.overhead_s"] = statistics.median(c["wall_s"] for c in traced) - statistics.median(
        c["wall_s"] for c in plain
    )
    repeat = all(len({c["layer_totals"][k] for c in traced}) == 1 for k in COUNTS)
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    # On SIGTERM, exit through an exception so subprocess.run kills and reaps
    # the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "bspde" / "cli.py").is_file():
        print(f"bench: no bspde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env_record = environment()
    if env_record["loadavg_1m"] > env_record["nproc"]:
        print(
            f"bench: warning: load average {env_record['loadavg_1m']:.2f} exceeds nproc {env_record['nproc']}",
            file=sys.stderr,
        )

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    digest = workloads.generate(args.workload, args.seed, inputs, ROOT)
    config = inputs / "config.json"
    ctx = {
        "workload": args.workload,
        "work": work,
        "config": config,
        "raw_config": json.loads(config.read_text(encoding="utf-8")),
        "commands": workloads.COMMANDS[args.workload],
        "env": child_env(env_record["nproc"]),
        "deadline": t_start + RUN_LIMIT_S,
    }

    # Untimed warm-up: fills the bytecode and file caches that every later
    # child finds warm, as a user's second run would.
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import bspde.cli", str(ROOT / "src")],
        env=ctx["env"],
        capture_output=True,
        timeout=60,
    )
    if warm.returncode != 0:
        print(f"bench: importing bspde failed:\n{warm.stderr.decode(errors='replace')}", file=sys.stderr)
        return 2

    # One round is one child, or a traced/untraced pair.  A new round starts
    # while the run would end closer to --seconds with it than without it.
    children: list[dict] = []
    rounds: list[float] = []
    measure_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - measure_start
        if len(rounds) >= MIN_CHILDREN and elapsed + 0.5 * statistics.median(rounds) >= args.seconds:
            break
        if rounds and time.monotonic() + max(rounds) > ctx["deadline"]:
            print("bench: warning: stopping early to stay within the run time limit", file=sys.stderr)
            break
        t = time.monotonic()
        for traced in (True, False) if args.trace else (False,):
            children.append(run_child(len(children), traced, ctx))
        rounds.append(time.monotonic() - t)

    attempted = sum(len(c["gates"]) for c in children)
    failed = sum(1 for c in children for reasons in c["gates"].values() if reasons)
    if args.trace:
        metrics, counts_repeat = per_layer_metrics(children)
    else:
        metrics, counts_repeat = end_to_end_metrics(children, attempted, failed), None
    versions = next((c["versions"] for c in children if "versions" in c), {})
    correct = failed == 0 and bool(metrics) and counts_repeat is not False

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest,
        "environment": {**env_record, **versions},
        "children": [{k: v for k, v in c.items() if k != "layer_samples"} for c in children],
        "attempted": attempted,
        "failed": failed,
        "counts_repeat": counts_repeat,
        "metrics": metrics,
    }
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  children {len(children)}")
    print(f"inputs sha256 {digest}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for c in children:
        for cmd, reasons in c["gates"].items():
            if reasons:
                print(f"FAIL child {c['log']} {cmd}: {'; '.join(reasons)}")
    plain = [c for c in children if not c["traced"] and "command_s" in c]
    if plain:
        print(f"  {'per child, rescaled (raw wall):':<40} {'median':>14} {'min':>10} {'raw median':>12}")
        for name in ("setup",) + workloads.COMMANDS[args.workload]:
            times = [c["setup_s"] if name == "setup" else c["command_s"][name] for c in plain]
            raw = statistics.median(c["raw_s"][name] for c in plain)
            print(f"  {name + '_s':<40} {statistics.median(times):>14.6g} {min(times):>10.6g} {raw:>12.6g} s")
        for name, times in (("verify_s", [verify_s(c) for c in plain]), ("wall_s", [c["wall_s"] for c in plain])):
            print(f"  {name:<40} {statistics.median(times):>14.6g} {min(times):>10.6g}")
        slow = [c["slowdown"]["child"] for c in plain]
        print(f"  {'host slowdown':<40} {statistics.median(slow):>14.6g} {min(slow):>10.6g}")
    print(f"  {'fail_frac':<40} {failed / attempted if attempted else 1.0:>14.6g} ratio")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if counts_repeat is not None:
        print(f"counts repeat across traced children: {counts_repeat}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
