"""Config-driven command line front end.

One JSON config file describes one reproducible experiment: domain, grid,
coefficients, the non-local coupling, data, tolerances, Monte-Carlo settings,
and the output directory.  Subcommands validate the setup, run the Cauchy or
non-local solves, dump the dense feedback matrix, run the path-estimator
cross-check, evaluate the analytic confinement bound, or run a grid
refinement study.  All outputs are written atomically (temp file + rename).

Exit codes: 0 success, 1 validation failure, 2 non-convergence, 3 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import montecarlo
from .coefficients import CoefficientError, CoefficientSet, as_entry, bounds, validate
from .exprdsl import EvalError, Expr, ExprError, bind
from .fixedpoint import FixedPointDivergence, NonlocalProblem, assemble_feedback_matrix, solve_nonlocal, solve_nonlocal_direct
from .grid import (
    Domain,
    Grid,
    GridError,
    SpaceField,
    SpaceTimeField,
    field_to_csv,
    make_grid,
    sample_levels,
    sup_norm,
)
from .montecarlo import MonteCarloError, PathConfig, compare_mc_pde, comparison_to_csv, confinement_bound
from .nonlocal_ops import (
    Convex,
    InitialValue,
    KernelEntries,
    NonlocalValidationError,
    PointInTime,
    SpaceTimeKernel,
    TimeKernel,
    TwoPoint,
    _snap_before_T,
    kernel_from_csv,
)
from .stepper import CauchyProblem, SolutionRangeError, solve_terminal


class NonConvergence(RuntimeError):
    pass


class ConfigError(ValueError):
    """A config entry is missing, unknown or malformed."""


# Faults of the configuration; any other exception is a bug and propagates.
VALIDATION_ERRORS = (
    ConfigError,
    GridError,
    CoefficientError,
    NonlocalValidationError,
    ExprError,
    MonteCarloError,
    SolutionRangeError,
)


def _number(value, path: str, kind=float):
    """`value`, the entry at dotted `path`, converted by `kind` (float or int);
    a boolean, a non-integral value for int, or one that does not convert is
    reported as `grid.nt: must be an integer, got 10.7`."""
    try:
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (kind is int and isinstance(value, float) and number != value):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{path}: must be {what}, got {value!r}")
    return number


def _positive(value, path: str, kind=float):
    """A positive finite number, or for kind int an integer of at least 1."""
    value = _number(value, path, kind)
    if not (value > 0 and (kind is int or math.isfinite(value))):
        raise ConfigError(f"{path}: must be {'at least 1' if kind is int else 'positive and finite'}, got {value!r}")
    return value


def _list(value, path: str, kind=list):
    """A list (or, for kind str, a string): `output.dir: must be a string, got 5`."""
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: must be {'a list' if kind is list else 'a string'}, got {value!r}")
    return value


def _numbers(value, path: str, kind=float):
    """A list of numbers, converted item by item (`domain.lo[1]`); for kind int
    (`grid.nx`, a node count per axis) one integer stands for every item."""
    if kind is int and not isinstance(value, list):
        return _number(value, path, int)
    if not isinstance(value, list):
        raise ConfigError(f"{path}: must be a list of numbers, got {value!r}")
    return tuple(_number(v, f"{path}[{i}]", kind) for i, v in enumerate(value))


_integer, _string = partial(_number, kind=int), partial(_list, kind=str)


def _built(where: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`; a fault that it finds in the config entry at
    dotted path `where` is reported by that path, as in `coefficients: b must be 1x1`,
    and a coupling's fault by the path of its entry, as in `gamma.parts[1].t1: ...`."""
    try:
        return build(*args, **kwargs)
    except (GridError, CoefficientError, MonteCarloError, NonlocalValidationError) as e:
        entry = getattr(e, "entry", "")
        raise ConfigError(f"{where}{entry and '.'}{entry}: {e}") from None


@dataclass
class RunConfig:
    raw: dict
    entries: dict  # the config read through _CONFIG, every default filled in
    grid: Grid
    cauchy: CauchyProblem
    problem: NonlocalProblem | None  # the cauchy problem coupled by gamma; None without gamma
    mc: PathConfig
    outdir: Path


def _expr(value, path: str, depth: int = 0):
    """The number or expression string at dotted `path` as an Expr or, up to
    `depth` list levels down, as nested lists of them; anything else, or a
    syntax error, is reported as `data.terminal: unexpected 'end of input'`."""
    if isinstance(value, list) and depth > 0:
        return [_expr(v, f"{path}[{i}]", depth - 1) for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{path}: must be a number or an expression, got {value!r}")
    try:
        return as_entry(value)
    except (ExprError, OverflowError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _source(value, path: str):
    """`data.source`: none (null, as when absent), or the number 0, is no source."""
    e = None if value is None else _expr(value, path)
    return None if isinstance(value, (int, float)) and value == 0 else e


def _time_kernel(value, path: str):
    """The time kernel at dotted `path`: a number or an expression, as an
    Expr, or a list of [t, value] pairs of numbers; the compile checks the rest."""
    if not isinstance(value, list):
        return _expr(value, path)
    pairs = "a sampled time kernel must be a sequence of (time, value) pairs"
    samples = []
    for i, pair in enumerate(value):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"{path}[{i}]: {pairs}, got {pair!r}")
        try:
            samples.append([_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(pair)])
        except ConfigError as e:
            raise ConfigError(f"{e} ({pairs})") from None
    return samples


_REQUIRED = object()
# Every entry a config may hold: section -> key -> (reader of the JSON value at
# a dotted path, default).  An absent entry's default is read like a present
# entry unless it is None; a section is required when one of its entries is.
_CONFIG = {
    "domain": {"lo": (_numbers, _REQUIRED), "hi": (_numbers, _REQUIRED)},
    "grid": {"nx": (partial(_numbers, kind=int), _REQUIRED), "nt": (_integer, _REQUIRED), "T": (_number, _REQUIRED)},
    "coefficients": {
        "b": (partial(_expr, depth=2), 1.0),
        "f": (lambda v, path: None if v is None else _expr(v, path, 1), None),
        "lam": (_expr, 0.0),
        "beta": (lambda v, path: _expr(_list(v, path), path, 2), []),
    },
    "gamma": (lambda v, path: v, None),  # read by _gamma once the grid is built
    "data": {"terminal": (_expr, 0.0), "source": (_source, None)},
    "fixedpoint": {"tol": (_positive, 1e-8), "max_iter": (partial(_positive, kind=int), 200)},
    "montecarlo": {
        "dt_mc": (_number, 1e-4),
        "n_paths": (_integer, 10000),
        "seed": (_integer, 0),
        "points": (_list, []),
        "theta_gap": (_positive, None),
    },
    "output": {"dir": (_string, "out")},
}
_TYPE = {"type": (lambda v, path: v, _REQUIRED)}
# gamma type -> (coupling, its entries), built from the entries by name
_GAMMA = {
    "initial_value": (InitialValue, {"weight": (_number, _REQUIRED)}),
    "point_in_time": (PointInTime, {"weight": (_number, _REQUIRED), "t1": (_number, _REQUIRED)}),
    "two_point": (TwoPoint, dict.fromkeys(("weight1", "t1", "weight2", "t2"), (_number, _REQUIRED))),
    "time_kernel": (TimeKernel, {"theta": (_number, _REQUIRED), "kernel": (_time_kernel, _REQUIRED)}),
    "space_time_kernel": (SpaceTimeKernel, {"theta": (_number, _REQUIRED), "csv": (_string, _REQUIRED)}),
    "convex": (Convex, {"weights": (_numbers, _REQUIRED), "parts": (_list, _REQUIRED)}),
}


def _read(value, where: str, table: dict) -> dict:
    """The JSON object at dotted path `where` (the file itself when empty) read
    through `table`: the first key it does not list is reported as
    `fixedpoint.tolerance: unknown entry (did you mean 'tol'?)`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'config file'}: must be an object, got {value!r}")
    for key in value:
        if key not in table:
            from difflib import get_close_matches  # only here: a good config does not need it
            names = {name.lower(): name for name in table}
            close = get_close_matches(key.lower(), names, n=1, cutoff=0.5)  # 0.5: `tolerance` finds `tol`
            hint = f" (did you mean '{names[close[0]]}'?)" if close else ""
            raise ConfigError(f"{where}{'.' if where else ''}{key}: unknown entry{hint}")
    entries = {}
    for key, spec in table.items():
        if isinstance(spec, dict):
            spec = (spec, _REQUIRED if any(d is _REQUIRED for _, d in spec.values()) else {})
        (reader, default), path = spec, f"{where}.{key}" if where else key
        entry = value.get(key, default)
        if entry is _REQUIRED:
            raise ConfigError(f"{path}: missing")
        if key in value or entry is not None:
            entry = _read(entry, path, reader) if isinstance(reader, dict) else reader(entry, path)
        entries[key] = entry
    return entries


def _sample_space(e: Expr, path: str, points: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the expression at dotted `path`, of x[,x2] (and t when the
    time of each point is given), at `points` (npts, dim): (npts,) values."""
    # an overflow is reported below by path, not as a numpy warning
    with np.errstate(all="ignore"):
        try:
            values = np.asarray(e.eval(bind(points.T, t)), dtype=float) * np.ones(len(points))
        except EvalError as err:
            raise ConfigError(f"{path}: {err}") from None
    bad = ~np.isfinite(values)
    if bad.any():
        at = "" if t is None else f" at t = {t[np.argmax(bad)]:.6g}"
        raise ConfigError(f"{path}: evaluates to a non-finite value{at}")
    return values


def _sample_data(grid: Grid, coeffs: CoefficientSet, data: dict) -> CauchyProblem:
    """The Cauchy problem of `coeffs` with the read `data` entries on `grid`:
    the terminal data at the interior nodes, and the source at the interior
    nodes of every level, sampled a chunk of levels at a time
    (`grid.sample_levels`), with the bits a loop over single levels gives."""
    pts, shape = grid.interior_points(), grid.interior_shape
    terminal = SpaceField(grid, _sample_space(data["terminal"], "data.terminal", pts).reshape(shape))
    source = data["source"]
    if source is None:
        return CauchyProblem(grid, coeffs, terminal=terminal)
    values = np.empty((grid.nt + 1, len(pts)))
    for levels, v in sample_levels(pts, grid.times(), partial(_sample_space, source, "data.source")):
        values[levels.start : levels.stop] = v.reshape(len(levels), -1)
    return CauchyProblem(grid, coeffs, SpaceTimeField(grid, values.reshape((grid.nt + 1,) + shape)), terminal)


@contextmanager
def _utf8(path):
    """A byte of the file at `path` that is not UTF-8, met inside, is an i/o error naming it."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise OSError(f"{e} in {path}") from None


@lru_cache(maxsize=1)
def _kernel(data: bytes, grid: Grid, theta: float) -> KernelEntries:
    """The read-only entries of the kernel CSV whose bytes are `data`, read from
    the text that opening the file gives (UTF-8, universal newlines, decoded in
    the same blocks).  Keyed on the bytes themselves, the grid and theta: the
    last kernel read serves every later load of it in the process, a rewritten
    file is read again, and a fault is raised again on every load."""
    return kernel_from_csv(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), grid, theta)


def _gamma(spec, path: str, grid: Grid, base_dir: Path):
    """The coupling that the gamma spec at dotted `path` describes, read from the
    entries `_GAMMA` lists for its `type` (every type's, none required, until the
    type is known) and from its kernel CSV, which needs theta snapped; the rest
    of its rules are checked when its problem is built."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    known = isinstance(kind, str) and kind in _GAMMA
    tables = [_GAMMA[kind][1]] if known else [{k: (r, None) for k, (r, _) in t.items()} for _, t in _GAMMA.values()]
    entries = _read(spec, path, {key: entry for table in (_TYPE, *tables) for key, entry in table.items()})
    if not known:
        raise ConfigError(f"{path}.type: unknown gamma type '{kind}'")
    cls = _GAMMA[entries.pop("type")][0]
    if cls is SpaceTimeKernel:
        _built(path, _snap_before_T, grid, entries["theta"], "theta")
        csv_file = base_dir / entries.pop("csv")
        with _utf8(csv_file):
            entries["kernel"] = _built(f"{path}.csv", _kernel, csv_file.read_bytes(), grid, entries["theta"])
    if cls is Convex:
        parts = enumerate(entries["parts"])
        entries["parts"] = tuple(_gamma(part, f"{path}.parts[{i}]", grid, base_dir) for i, part in parts)
    return cls(**entries)


def load_config(path: str, out_override: str | None = None, seed_override: int | None = None) -> RunConfig:
    with _utf8(path), open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    base_dir = Path(path).resolve().parent
    entries = _read(raw, "", _CONFIG)
    domain = _built("domain", Domain, **entries["domain"])
    grid = _built("grid", make_grid, domain, **entries["grid"])
    coeffs = _built("coefficients", CoefficientSet.create, dim=domain.dim, **entries["coefficients"])
    cauchy = _sample_data(grid, coeffs, entries["data"])
    gamma = None if entries["gamma"] is None else _gamma(entries["gamma"], "gamma", grid, base_dir)
    problem = None if gamma is None else _built("gamma", NonlocalProblem, cauchy, gamma)  # the one compile
    mc = entries["montecarlo"]
    seed = mc["seed"] if seed_override is None else int(seed_override)
    paths = _built("montecarlo", PathConfig, dt_mc=mc["dt_mc"], n_paths=mc["n_paths"], seed=seed)
    for i, pt in enumerate(mc["points"]):
        # a number that float() takes: not a boolean, nor an integer beyond the double range
        numbers = isinstance(pt, list) and all(type(v) is float or type(v) is int and abs(v) <= sys.float_info.max for v in pt)
        if not (numbers and len(pt) == domain.dim + 1):
            form = "[x1, s]" if domain.dim == 1 else "[x1, x2, s]"
            raise ConfigError(f"montecarlo.points[{i}]: must be {domain.dim + 1} numbers {form}, got {pt!r}")
    outdir = Path(out_override) if out_override else base_dir / entries["output"]["dir"]
    return RunConfig(raw, entries, grid, cauchy, problem, paths, outdir)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _validation_block(cfg: RunConfig) -> dict:
    coeffs = cfg.cauchy.coeffs
    rep = validate(coeffs, cfg.grid)
    rep.raise_if_violated()
    block = {
        "delta": rep.delta,
        "argmin_point": list(rep.argmin_point),
        "argmin_time": rep.argmin_time,
    }
    env = bounds(coeffs, cfg.grid)
    block.update({"sup_f1": env.sup_f1, "c_beta": env.c_beta, "delta_qv": env.delta_qv})
    theta_gap = cfg.entries["montecarlo"]["theta_gap"]
    if cfg.problem is not None:
        gamma = cfg.problem.compiled
        block.update(
            {
                "gamma_theta": gamma.theta,
                "gamma_norm_bound": gamma.norm_bound,
                "gamma_snap_distances": list(gamma.snap_distances),
            }
        )
        if theta_gap is None:
            theta_gap = cfg.grid.T - gamma.theta
    if theta_gap is not None:
        nb = confinement_bound(coeffs, cfg.grid, theta_gap)
        block.update({"theta_gap": theta_gap, "nu": nb.nu, "sqrt_nu": nb.sqrt_nu})
    return block


def cmd_validate(cfg: RunConfig, validation: dict) -> dict:
    return {}


def cmd_cauchy(cfg: RunConfig, validation: dict) -> dict:
    out = solve_terminal(cfg.cauchy)
    _write_atomic(cfg.outdir / "solution.csv", field_to_csv(out.u))
    return {
        "diagnostics": asdict(out.diagnostics),
        "norms": {"sup_u": sup_norm(out.u), "sup_terminal": sup_norm(cfg.cauchy.terminal)},
    }


def cmd_solve(cfg: RunConfig, validation: dict) -> dict:
    if cfg.problem is None:
        raise ConfigError("solve requires a gamma section in the config")
    sol = solve_nonlocal(cfg.problem, **cfg.entries["fixedpoint"])
    if not sol.report.converged:
        raise NonConvergence(
            f"fixed point not converged after {sol.report.iterations} iterations "
            f"(last residual {sol.report.residuals[-1]:.3e})"
        )
    fp = sol.report.to_dict()
    fp["nu_bound"] = validation.get("nu")
    fp["sqrt_nu"] = validation.get("sqrt_nu")
    _write_atomic(cfg.outdir / "solution.csv", field_to_csv(sol.u))
    return {
        "fixedpoint": fp,
        "norms": {
            "sup_u": sup_norm(sol.u),
            "sup_terminal": sup_norm(sol.terminal),
            "sup_terminal_rhs": sup_norm(cfg.cauchy.terminal),
        },
    }


def cmd_qmatrix(cfg: RunConfig, validation: dict) -> dict:
    if cfg.problem is None:
        raise ConfigError("qmatrix requires a gamma section in the config")
    fm = assemble_feedback_matrix(cfg.problem)
    lines = [",".join(repr(float(v)) for v in row) for row in fm.matrix]
    _write_atomic(cfg.outdir / "qmatrix.csv", "\n".join(lines) + "\n")
    sol = solve_nonlocal_direct(cfg.problem)
    return {
        "qmatrix": {"sup_norm": fm.sup_norm, "n": fm.matrix.shape[0]},
        "direct": sol.report.to_dict(),
        "norms": {"sup_u": sup_norm(sol.u), "sup_terminal": sup_norm(sol.terminal)},
    }


def cmd_mccheck(cfg: RunConfig, validation: dict) -> dict:
    points = cfg.entries["montecarlo"]["points"]
    if not points:
        raise ConfigError("mccheck requires montecarlo.points in the config")
    rows = compare_mc_pde(cfg.cauchy, points, cfg.mc)
    _write_atomic(cfg.outdir / "mccheck.csv", comparison_to_csv(rows, cfg.grid.dim))
    return {
        "mccheck": {
            "n_points": len(rows),
            "n_flagged": sum(1 for r in rows if r.flagged),
            "normal_sampler": montecarlo.NORMAL_SAMPLER,
        },
    }


def cmd_nubound(cfg: RunConfig, validation: dict) -> dict:
    if "theta_gap" not in validation:
        raise ConfigError("nubound needs montecarlo.theta_gap or a gamma section")
    nb = confinement_bound(cfg.cauchy.coeffs, cfg.grid, validation["theta_gap"]).to_dict()
    _write_atomic(cfg.outdir / "nubound.json", json.dumps(nb, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return {"nubound": nb}


def cmd_converge(cfg: RunConfig, validation: dict) -> dict:
    """Refinement study: solve the Cauchy problem on nx, 2(nx-1)+1, 4(nx-1)+1
    nodes with the same time grid; the observed order comes from sup-norm
    differences at the shared coarse nodes at t = 0."""
    grids = [cfg.grid] + [
        make_grid(cfg.grid.domain, tuple((n - 1) * factor + 1 for n in cfg.grid.nx), cfg.grid.nt, cfg.grid.T)
        for factor in (2, 4)
    ]
    sols = [solve_terminal(cfg.cauchy).u]
    for g in grids[1:]:
        sols.append(solve_terminal(_sample_data(g, cfg.cauchy.coeffs, cfg.entries["data"])).u)

    def restrict(values: np.ndarray, factor: int) -> np.ndarray:
        sl = tuple(slice(factor - 1, None, factor) for _ in range(cfg.grid.dim))
        return values[sl]

    u0 = sols[0].values[0]
    u1 = restrict(sols[1].values[0], 2)
    u2 = restrict(sols[2].values[0], 4)
    d1 = float(np.max(np.abs(u0 - u1)))
    d2 = float(np.max(np.abs(u1 - u2)))
    order = float(np.log2(d1 / d2)) if d1 > 0 and d2 > 0 else None  # none when a difference is 0
    lines = ["nx,hx,diff_to_finer,order"]
    lines.append(f"{grids[0].nx[0]},{grids[0].hx[0]!r},{d1!r},{'' if order is None else repr(order)}")
    lines.append(f"{grids[1].nx[0]},{grids[1].hx[0]!r},{d2!r},")
    lines.append(f"{grids[2].nx[0]},{grids[2].hx[0]!r},,")
    _write_atomic(cfg.outdir / "converge.csv", "\n".join(lines) + "\n")
    return {"converge": {"diff_coarse": d1, "diff_fine": d2, "order": order}}


COMMANDS = {
    "validate": cmd_validate,
    "cauchy": cmd_cauchy,
    "solve": cmd_solve,
    "qmatrix": cmd_qmatrix,
    "mccheck": cmd_mccheck,
    "nubound": cmd_nubound,
    "converge": cmd_converge,
}


def _echo(value):
    """The config `value` as the report echoes it: a NaN or an infinity, which
    JSON has no number for, as its repr string, e.g. 'inf'."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {key: _echo(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_echo(v) for v in value]
    return value


def _run(name: str, cfg: RunConfig) -> None:
    """Validate once, run command `name`, and write its report.json: the
    command's own sections inside the envelope every command shares."""
    t0 = time.perf_counter()
    validation = _validation_block(cfg)
    report = {"command": name, "config": _echo(cfg.raw), "validation": validation}
    report.update(COMMANDS[name](cfg, validation))
    report["timing_seconds"] = time.perf_counter() - t0
    _write_atomic(cfg.outdir / "report.json", json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _seed(text: str) -> int:
    """The value of --seed: a non-negative integer, in decimal digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bspde",
        description="Backward parabolic problems with a non-local terminal condition.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=_seed, default=None, help="seed override for Monte-Carlo commands")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # -h exits 0; a fault of the command line exits 1, as one of the config does
        return 1 if e.code else 0

    try:
        cfg = load_config(args.config, out_override=args.out, seed_override=args.seed)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bspde: i/o error: {e}", file=sys.stderr)
        return 3
    except VALIDATION_ERRORS as e:
        print(f"bspde: invalid configuration: {e}", file=sys.stderr)
        return 1

    try:
        _run(args.command, cfg)
    except (FixedPointDivergence, NonConvergence) as e:
        print(f"bspde: did not converge: {e}", file=sys.stderr)
        return 2
    except VALIDATION_ERRORS as e:
        print(f"bspde: validation failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"bspde: i/o error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
