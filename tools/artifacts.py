"""Fingerprint every CLI command's outputs on the fixed benchmark inputs.

    python3 tools/artifacts.py TREE OUT

TREE is a checkout of this repository (its `src/` is the program run).  The
tool writes the seed-101 and seed-102 inputs of every benchmark workload
(with `perfbench/workloads.generate` of this checkout, so both trees of a
comparison read the same inputs), `picard-1d-101-dialect` (picard-1d-101
with its kernel CSV rewritten in another dialect: CRLF line ends, a blank
line every 1000 rows and quoted `k` fields, so its `solution.csv` and
`qmatrix.csv` hash as picard-1d-101's do), the inputs of `FAULTS`
(picard-1d-101 with one fault each, so that their stderr fingerprints the
fault messages), `eigenmode-mc-101-batches` (eigenmode-mc-101 with 140000
paths, so three batches with a short last one, and one more point at the
horizon, whose group takes no steps beside the groups that do), the inputs of
`MC_FAULTS` (eigenmode-mc-101 with one fault each in its Monte-Carlo section,
so that their stderr fingerprints the path engine's checks), the inputs of
`TK_FAULTS` (grid-2d-101, whose coupling is a time kernel, with one fault
each in that kernel, so that their stderr fingerprints the coupling's
checks), TREE's `configs/eigenmode.json` and `grid-2d-101-constant`
(grid-2d-101 with constant coefficients and b12 != 0, so that the 2-D path
step keeps its noise entries as single values) under the new directory OUT,
runs each of the seven commands on each input in a fresh process with
OPENBLAS_NUM_THREADS=1 and relative paths, each writing into its own
directory, at most `min(2, CPUs available)` processes at a time, and writes
OUT/runs.jsonl: one JSON line per run, in input then command order whatever
order the runs end in, with the input name, the command, the exit code, and
the sha256 of stderr and of every artifact.  `report.json` is hashed without
its `timing_seconds`.

A change that should not alter any output is byte-identical to its parent
when `diff PARENT_OUT/runs.jsonl CHANGE_OUT/runs.jsonl` prints nothing.

    python3 tools/artifacts.py --check
    python3 tools/artifacts.py --update

check this checkout's outputs against the checked-in fingerprints,
`tools/fingerprints.jsonl`: its first line holds the numpy and scipy versions
and the machine they were made on, every other line is a line of runs.jsonl.
`--check` runs the tool on this checkout in a temporary directory and prints
the input and command of each run whose line differs, with what differs; it
exits 0 when every line matches and 1 otherwise.  The hashes depend on numpy,
scipy and the platform, so on other versions it runs nothing, says so and
exits 3.  `--update` runs the tool and rewrites the file; a change meant to
alter an output updates it in the same commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE / "perfbench"))
sys.dont_write_bytecode = True  # leave the benchmark's directory as it is

import workloads  # noqa: E402

FINGERPRINTS = HERE / "tools" / "fingerprints.jsonl"
SEEDS = (101, 102)
COMMANDS = ("validate", "cauchy", "solve", "qmatrix", "mccheck", "nubound", "converge")
RUN_CLI = "import sys; from bspde.cli import main; sys.exit(main(sys.argv[1:]))"
# picard-1d-101 (a convex coupling of an initial value and a space-time kernel)
# with one fault: name -> edit of its config and of its kernel CSV's data rows
FAULTS = {
    "part-theta": lambda config, rows: config["gamma"]["parts"][1].update(theta=1.5),
    "part-t1": lambda config, rows: config["gamma"]["parts"][0].update(type="point_in_time", t1=1.5),
    "part-weight": lambda config, rows: config["gamma"]["parts"][0].update(weight=1.5),
    "csv-extra-field": lambda config, rows: rows.insert(5, rows[5] + ",1.0"),
    "unknown-entry": lambda config, rows: config["gamma"]["parts"][0].update(t1=0.5),
    "terminal-overflow": lambda config, rows: config["data"].update(terminal="exp(1000*x)"),
}
# eigenmode-mc-101 (grid step 0.0025 up to T = 1) with one fault: name -> edit of its config
MC_FAULTS = {
    "point-outside": lambda config: config["montecarlo"].update(points=[[1.5, 0.0]]),
    "point-beyond-T": lambda config: config["montecarlo"].update(points=[[0.5, 1.2]]),
    "dt_mc-above-grid-step": lambda config: config["montecarlo"].update(dt_mc=0.1),
    "dt_mc-tiny": lambda config: config["montecarlo"].update(dt_mc=1e-300),
}
# grid-2d-101 (grid step 0.025 up to T = 1, a time_kernel coupling) with one
# fault of the time kernel: name -> edit of its config
TK_FAULTS = {
    "kernel-var": lambda config: config["gamma"].update(kernel="x1"),
    "kernel-empty": lambda config: config["gamma"].update(kernel=[]),
    "kernel-nan-time": lambda config: config["gamma"].update(kernel=[[float("nan"), 1.0], [0.5, 1.0]]),
    "sqrt": lambda config: config["gamma"].update(kernel="sqrt(t - 2)"),
    "same-time": lambda config: config["gamma"].update(kernel=[[0.0, 1.0], [0.0, 0.5]]),
    "exp": lambda config: config["gamma"].update(kernel="exp(1000*t)", theta=0.9),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _artifact_digest(path: Path) -> str:
    if path.name != "report.json":
        return _sha256(path.read_bytes())
    report = json.loads(path.read_text(encoding="utf-8"))
    report.pop("timing_seconds", None)
    return _sha256(json.dumps(report, indent=2, sort_keys=True).encode())


def _dialect(src: Path, d: Path) -> Path:
    """A copy of the input in src whose kernel CSV has CRLF line ends, a blank
    line after every 1000 rows and its `k` fields quoted."""
    d.mkdir()
    shutil.copyfile(src / "config.json", d / "config.json")
    header, *rows = (src / "kernel.csv").read_text(encoding="utf-8").splitlines()
    lines = [header]
    for i, row in enumerate(rows, 1):
        head, k = row.rsplit(",", 1)
        lines.append(f'{head},"{k}"')
        if i % 1000 == 0:
            lines.append("")
    (d / "kernel.csv").write_bytes(("\r\n".join(lines) + "\r\n").encode())
    return d


def _fault(src: Path, d: Path, edit) -> Path:
    """A copy of the input in src with the fault that `edit` makes."""
    d.mkdir()
    config = json.loads((src / "config.json").read_text(encoding="utf-8"))
    header, *rows = (src / "kernel.csv").read_text(encoding="utf-8").splitlines()
    edit(config, rows)
    (d / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    (d / "kernel.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return d


def _edited(src: Path, d: Path, edit) -> Path:
    """A copy of the input in src, a config alone, with the edit that `edit` makes to it."""
    d.mkdir()
    config = json.loads((src / "config.json").read_text(encoding="utf-8"))
    edit(config)
    (d / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return d


def _batches(config: dict) -> None:
    """140000 paths and one more point at the horizon."""
    mc = config["montecarlo"]
    mc["n_paths"] = 140000
    mc["points"].append([0.5, config["grid"]["T"]])


def _constant(config: dict) -> None:
    """Constant coefficients with a full diffusion matrix."""
    config["coefficients"] = {"b": [[0.1, 0.03], [0.03, 0.08]], "beta": [], "f": [0.3, -0.2], "lam": -0.2}


def _inputs(tree: Path, out: Path) -> list[Path]:
    """Write every input into its own directory under out; return them in run order."""
    dirs = []
    for workload in workloads.COMMANDS:
        for seed in SEEDS:
            d = out / f"{workload}-{seed}"
            workloads.generate(workload, seed, d, tree)
            dirs.append(d)
    dirs.append(_dialect(out / "picard-1d-101", out / "picard-1d-101-dialect"))
    dirs += [_fault(out / "picard-1d-101", out / f"picard-1d-101-{name}", edit) for name, edit in FAULTS.items()]
    edits = {"batches": _batches, **MC_FAULTS}
    dirs += [_edited(out / "eigenmode-mc-101", out / f"eigenmode-mc-101-{name}", edit) for name, edit in edits.items()]
    dirs += [_edited(out / "grid-2d-101", out / f"grid-2d-101-{name}", edit) for name, edit in TK_FAULTS.items()]
    d = out / "eigenmode"
    d.mkdir(parents=True)
    shutil.copyfile(tree / "configs" / "eigenmode.json", d / "config.json")
    dirs.append(d)
    dirs.append(_edited(out / "grid-2d-101", out / "grid-2d-101-constant", _constant))
    return dirs


def _run(tree: Path, out: Path) -> list[str]:
    """Run every command on every input under out; return the runs.jsonl lines."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")

    def run(d: Path, cmd: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, cmd, "--config", "config.json", "--out", cmd],
            cwd=d,
            env=env,
            capture_output=True,
        )
        run_dir = d / cmd
        files = sorted(p for p in run_dir.rglob("*") if p.is_file()) if run_dir.is_dir() else []
        line = {
            "input": d.name,
            "command": cmd,
            "exit": proc.returncode,
            "stderr": _sha256(proc.stderr),
            "artifacts": {str(p.relative_to(run_dir)): _artifact_digest(p) for p in files},
        }
        print(f"{d.name} {cmd}: exit {proc.returncode}", file=sys.stderr, flush=True)
        return json.dumps(line, sort_keys=True)

    runs = [(d, cmd) for d in _inputs(tree, out) for cmd in COMMANDS]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(2, cpus)) as pool:  # threads that wait on processes
        return list(pool.map(run, *zip(*runs)))


def _versions() -> dict:
    return {"numpy": version("numpy"), "scipy": version("scipy"), "machine": platform.machine()}


def _differences(want: dict, got: dict) -> list[str]:
    """What differs between two runs.jsonl lines of one input and command."""
    diff = [key for key in ("exit", "stderr") if want[key] != got[key]]
    names = sorted(set(want["artifacts"]) | set(got["artifacts"]))
    return diff + [n for n in names if want["artifacts"].get(n) != got["artifacts"].get(n)]


def _run_here() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        return _run(HERE, Path(tmp) / "out")


def _update() -> int:
    lines = _run_here()
    FINGERPRINTS.write_text("\n".join([json.dumps(_versions(), sort_keys=True), *lines]) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} runs to {FINGERPRINTS}", file=sys.stderr)
    return 0


def _check() -> int:
    if not FINGERPRINTS.exists():
        print(f"there is no {FINGERPRINTS}; write it with --update", file=sys.stderr)
        return 2
    head, *want = FINGERPRINTS.read_text(encoding="utf-8").splitlines()
    if json.loads(head) != _versions():
        made_with = f"{FINGERPRINTS.name} was made with {json.loads(head)}"
        print(f"{made_with}, this is {_versions()}: not checked", file=sys.stderr)
        return 3
    key = lambda run: (run["input"], run["command"])  # noqa: E731
    want_runs = {key(r): r for r in map(json.loads, want)}
    got_runs = {key(r): r for r in map(json.loads, _run_here())}
    changed = 0
    for k in dict.fromkeys([*want_runs, *got_runs]):
        if k not in got_runs or k not in want_runs:
            what = "no longer run" if k not in got_runs else "not in the fingerprints"
        elif want_runs[k] != got_runs[k]:
            what = "differs in " + ", ".join(_differences(want_runs[k], got_runs[k]))
        else:
            continue
        changed += 1
        print(f"{k[0]} {k[1]}: {what}")
    print(f"{changed} of {len(want_runs)} fingerprinted runs changed", file=sys.stderr)
    return 1 if changed else 0


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        return _check()
    if argv == ["--update"]:
        return _update()
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if out.exists():
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 2
    lines = _run(tree, out)
    (out / "runs.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
