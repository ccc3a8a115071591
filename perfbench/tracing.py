"""Span recorder for the traced benchmark run.

`install()` replaces every public function of each bspde module, at every
module attribute where a caller looks it up (so `bspde.stepper.solve_terminal`,
`bspde.cli.solve_terminal` and `bspde.montecarlo.solve_terminal` each get a
wrapper), plus the CLI's command table, the `CoefficientSet.*_at` evaluators
and `_Compiled.apply`, the one entry the Picard loop uses to apply the
coupling.  A span is named after the defining module and function and records
the module it was looked up from ("site").  Spans are kept in memory and
written out by `dump()` when the child ends; `child_layer_values` turns them
into the per-layer numbers.

Self time of a span is its duration minus the time covered by its child
spans; spans of one process nest strictly, so that is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "coefficients", "exprdsl", "fixedpoint", "grid", "montecarlo", "nonlocal_ops", "stepper")

# (module, class, method) wrapped on the class itself.
METHODS = (
    ("coefficients", "CoefficientSet", "b_at"),
    ("coefficients", "CoefficientSet", "f_at"),
    ("coefficients", "CoefficientSet", "lam_at"),
    ("coefficients", "CoefficientSet", "beta_at"),
    ("nonlocal_ops", "_Compiled", "apply"),
)

# Span fields, in the order they are stored and dumped.
NAME, SITE, START, END, PARENT, CHILD_TIME, ATTRS = range(7)


def _solve_terminal_attrs(args, kwargs, out):
    vals = out.u.values
    return {
        "steps": int(vals.shape[0] - 1),
        "max_linear_residual": float(out.diagnostics.max_linear_residual),
        "sup_u": float(abs(vals).max()) if vals.size else 0.0,
    }


def _solve_nonlocal_attrs(args, kwargs, out):
    rep = out.report
    return {"iterations": int(rep.iterations), "last_ratio": float(rep.ratios[-1]) if rep.ratios else 0.0}


def _feynman_kac_attrs(args, kwargs, out):
    dec, _x, s, cfg = args[:4]
    T = dec.grid.T
    n_steps = max(0, int(math.ceil((T - min(s, T)) / cfg.dt_mc - 1e-12)))
    return {"paths": int(out.n_paths), "steps": n_steps, "exited": int(out.n_exited)}


def _field_to_csv_attrs(args, kwargs, out):
    return {"bytes": len(out)}


ATTRS_OF = {
    "stepper.solve_terminal": _solve_terminal_attrs,
    "fixedpoint.solve_nonlocal": _solve_nonlocal_attrs,
    "montecarlo.feynman_kac": _feynman_kac_attrs,
    "grid.field_to_csv": _field_to_csv_attrs,
}


class Tracer:
    """In-memory spans of one process: [name, site, start, end, parent, child_time, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, site: str, fn):
        spans = self.spans
        stack = self._stack
        attrs_of = ATTRS_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, site, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = rec[END] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_TIME] += end - rec[START]
            if attrs_of is not None:
                rec[ATTRS] = attrs_of(args, kwargs, out)
            return out

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap the bspde entry points in place."""
    mods = {m: importlib.import_module(f"bspde.{m}") for m in MODULES}
    for site, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or not obj.__module__.startswith("bspde."):
                continue
            owner = obj.__module__.rsplit(".", 1)[1]
            setattr(mod, attr, tracer.wrap(f"{owner}.{attr}", site, obj))
    cli = mods["cli"]
    for cmd in list(cli.COMMANDS):
        cli.COMMANDS[cmd] = getattr(cli, f"cmd_{cmd}")
    for owner, cls_name, meth in METHODS:
        cls = getattr(mods[owner], cls_name)
        setattr(cls, meth, tracer.wrap(f"{owner}.{cls_name}.{meth}", owner, getattr(cls, meth)))


def load(path: Path) -> list[list]:
    return json.loads(path.read_text(encoding="utf-8"))


def self_time(span: list) -> float:
    return span[END] - span[START] - span[CHILD_TIME]


def under(spans: list[list], i: int, ancestor: str) -> bool:
    """True when span i has an ancestor span named `ancestor`."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == ancestor:
            return True
        p = spans[p][PARENT]
    return False


EVAL_METHODS = tuple(f"coefficients.CoefficientSet.{m}" for m in ("b_at", "f_at", "lam_at", "beta_at"))


def child_layer_values(spans: list[list]) -> tuple[dict, dict]:
    """Per-child totals and counts, and per-call samples, from one child's spans.

    Returns (totals, samples): totals maps a metric name to one number for
    this child; samples maps a per-call metric name to its list of values.
    """
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def calls(name):
        return [spans[i] for i in by_name.get(name, ())]

    def durations(name):
        return [s[END] - s[START] for s in calls(name)]

    sweeps = calls("stepper.solve_terminal")
    nonlocal_solves = calls("fixedpoint.solve_nonlocal")
    fk = calls("montecarlo.feynman_kac")
    applies = durations("nonlocal_ops._Compiled.apply")
    eval_durations = [d for n in EVAL_METHODS for d in durations(n)]
    csvs = calls("grid.field_to_csv")
    sweeps_in_solve = sum(
        1 for i in by_name.get("stepper.solve_terminal", ()) if under(spans, i, "fixedpoint.solve_nonlocal")
    )
    path_steps = sum(s[ATTRS]["paths"] * s[ATTRS]["steps"] for s in fk)
    n_paths = sum(s[ATTRS]["paths"] for s in fk)
    fk_time = sum(durations("montecarlo.feynman_kac"))

    def layer_self(layer):
        return sum(self_time(s) for s in spans if s[NAME].split(".", 1)[0] == layer)

    totals = {
        "stepper.sweeps": len(sweeps),
        "stepper.self_s": layer_self("stepper"),
        "stepper.max_linear_residual": max((s[ATTRS]["max_linear_residual"] for s in sweeps), default=0.0),
        "fixedpoint.iterations": sum(s[ATTRS]["iterations"] for s in nonlocal_solves),
        "fixedpoint.sweeps_per_solve": sweeps_in_solve / len(nonlocal_solves) if nonlocal_solves else 0.0,
        "fixedpoint.last_ratio": nonlocal_solves[-1][ATTRS]["last_ratio"] if nonlocal_solves else 0.0,
        "fixedpoint.self_s": layer_self("fixedpoint"),
        "fixedpoint.feedback_matrix_calls": len(calls("fixedpoint.assemble_feedback_matrix")),
        "nonlocal_ops.apply_calls": len(applies),
        "coefficients.eval_calls": len(eval_durations),
        "coefficients.eval_s": sum(eval_durations),
        "coefficients.validate_s": sum(durations("coefficients.validate") + durations("coefficients.bounds")),
        "grid.csv_bytes": sum(s[ATTRS]["bytes"] for s in csvs),
        "montecarlo.path_steps": path_steps,
        "montecarlo.ns_per_path_step": 1e9 * fk_time / path_steps if path_steps else 0.0,
        "montecarlo.exit_fraction": sum(s[ATTRS]["exited"] for s in fk) / n_paths if n_paths else 0.0,
        "cli.command_self_s": sum(
            self_time(s) for s in spans if s[NAME] == "cli.main" or s[NAME].startswith("cli.cmd_")
        ),
        "trace.spans": len(spans),
    }
    mc_sweeps = [s for s in sweeps if s[SITE] == "montecarlo"]
    totals["montecarlo.sup_u"] = mc_sweeps[-1][ATTRS]["sup_u"] if mc_sweeps else 0.0

    samples = {
        "cli.load_config_s": durations("cli.load_config"),
        "nonlocal_ops.kernel_from_csv_s": durations("nonlocal_ops.kernel_from_csv"),
        "stepper.sweep_s": durations("stepper.solve_terminal"),
        "stepper.step_us": [1e6 * (s[END] - s[START]) / s[ATTRS]["steps"] for s in sweeps if s[ATTRS]["steps"]],
        "fixedpoint.feedback_matrix_s": durations("fixedpoint.assemble_feedback_matrix"),
        "fixedpoint.direct_s": durations("fixedpoint.solve_nonlocal_direct"),
        "nonlocal_ops.apply_us": [1e6 * d for d in applies],
        "nonlocal_ops.validate_spec_s": durations("nonlocal_ops.validate_spec"),
        "grid.field_to_csv_s": durations("grid.field_to_csv"),
        "montecarlo.confinement_bound_s": durations("montecarlo.confinement_bound"),
    }
    return totals, samples
