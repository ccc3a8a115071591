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
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import montecarlo
from .coefficients import CoefficientError, CoefficientSet, bounds, validate
from .exprdsl import EvalError, ExprError, parse
from .fixedpoint import FixedPointDivergence, solve_nonlocal, solve_nonlocal_direct, assemble_feedback_matrix
from .grid import Domain, Grid, GridError, SpaceField, SpaceTimeField, field_to_csv, make_grid, sup_norm
from .montecarlo import CauchyProblem, PathConfig, compare_mc_pde, comparison_to_csv, confinement_bound
from .nonlocal_ops import (
    Convex,
    InitialValue,
    NonlocalValidationError,
    PointInTime,
    SpaceTimeKernel,
    TimeKernel,
    TwoPoint,
    kernel_from_csv,
    validate_spec,
)
from .stepper import solve_terminal

VALIDATION_ERRORS = (GridError, CoefficientError, NonlocalValidationError, ExprError, EvalError, ValueError)


class NonConvergence(RuntimeError):
    pass


class ConfigError(ValueError):
    """A config entry is missing or malformed."""


def _required(section: dict, path: str):
    """The entry at dotted `path` (e.g. `grid.nt`) from `section`, the mapping
    that holds its last key; a missing key is reported as `grid.nt: missing`."""
    try:
        return section[path.rsplit(".", 1)[-1]]
    except KeyError:
        raise ConfigError(f"{path}: missing") from None


def _points(mc: dict, dim: int) -> list:
    """`montecarlo.points`: a list of [x1[, x2], s] entries, dim + 1 numbers each."""
    points = mc.get("points", [])
    if not isinstance(points, list):
        raise ConfigError(f"montecarlo.points: must be a list of points, got {points!r}")
    for i, pt in enumerate(points):
        if not (
            isinstance(pt, list)
            and len(pt) == dim + 1
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pt)
        ):
            form = "[x1, s]" if dim == 1 else "[x1, x2, s]"
            raise ConfigError(f"montecarlo.points[{i}]: must be {dim + 1} numbers {form}, got {pt!r}")
    return points


@dataclass
class RunConfig:
    raw: dict
    domain: Domain
    grid: Grid
    coeffs: CoefficientSet
    gamma: object | None
    terminal: SpaceField
    source: SpaceTimeField | None
    tol: float
    max_iter: int
    mc: PathConfig
    points: list
    theta_gap: float | None
    outdir: Path


def _sample_space(grid: Grid, entry, t: float | None = None) -> np.ndarray:
    """Evaluate a number or expression of x[,x2] (and t, when given) on the interior nodes."""
    if isinstance(entry, (int, float)):
        return np.full(grid.interior_shape, float(entry))
    e = parse(str(entry))
    axes = [grid.axis_coords(a) for a in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    env = {"x1": mesh[0], "x" if grid.dim == 1 else "x2": mesh[-1]}
    if t is not None:
        env["t"] = t
    return np.asarray(e.eval(env), dtype=float) * np.ones(grid.interior_shape)


def _sample_space_time(grid: Grid, entry) -> SpaceTimeField | None:
    if entry is None or (isinstance(entry, (int, float)) and float(entry) == 0.0):
        return None
    return SpaceTimeField(grid, np.stack([_sample_space(grid, entry, t) for t in grid.times()]))


def _sample_data(grid: Grid, data: dict) -> tuple[SpaceField, SpaceTimeField | None]:
    """The terminal data and the source of a config's `data` section on `grid`."""
    terminal = SpaceField(grid, _sample_space(grid, data.get("terminal", 0.0)))
    return terminal, _sample_space_time(grid, data.get("source"))


def _gamma_from_config(section, grid: Grid, base_dir: Path, where: str = "gamma"):
    if section is None:
        return None

    def get(key):
        return _required(section, f"{where}.{key}")

    kind = get("type")
    if kind == "initial_value":
        return InitialValue(weight=float(get("weight")))
    if kind == "point_in_time":
        return PointInTime(weight=float(get("weight")), t1=float(get("t1")))
    if kind == "two_point":
        return TwoPoint(
            weight1=float(get("weight1")),
            t1=float(get("t1")),
            weight2=float(get("weight2")),
            t2=float(get("t2")),
        )
    if kind == "time_kernel":
        return TimeKernel(theta=float(get("theta")), kernel=get("kernel"))
    if kind == "space_time_kernel":
        theta = float(get("theta"))
        csv_path = base_dir / get("csv")
        with open(csv_path, "r", encoding="utf-8") as fh:
            kernel = kernel_from_csv(fh, grid, theta)
        return SpaceTimeKernel(theta=theta, kernel=kernel)
    if kind == "convex":
        parts = tuple(
            _gamma_from_config(p, grid, base_dir, f"{where}.parts[{i}]") for i, p in enumerate(get("parts"))
        )
        return Convex(weights=tuple(float(w) for w in get("weights")), parts=parts)
    raise NonlocalValidationError(f"unknown gamma type '{kind}'")


def load_config(path: str, out_override: str | None = None, seed_override: int | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    base_dir = Path(path).resolve().parent
    dom = _required(raw, "domain")
    domain = Domain(lo=tuple(_required(dom, "domain.lo")), hi=tuple(_required(dom, "domain.hi")))
    gs = _required(raw, "grid")
    grid = make_grid(domain, _required(gs, "grid.nx"), int(_required(gs, "grid.nt")), float(_required(gs, "grid.T")))
    cs = raw.get("coefficients", {})
    coeffs = CoefficientSet.create(
        dim=domain.dim,
        b=cs.get("b", 1.0),
        f=cs.get("f"),
        lam=cs.get("lam", 0.0),
        beta=cs.get("beta", ()),
    )
    gamma = _gamma_from_config(raw.get("gamma"), grid, base_dir)
    terminal, source = _sample_data(grid, raw.get("data", {}))
    fp = raw.get("fixedpoint", {})
    mc = raw.get("montecarlo", {})
    seed = int(mc.get("seed", 0)) if seed_override is None else int(seed_override)
    outdir = Path(out_override) if out_override else base_dir / raw.get("output", {}).get("dir", "out")
    return RunConfig(
        raw=raw,
        domain=domain,
        grid=grid,
        coeffs=coeffs,
        gamma=gamma,
        terminal=terminal,
        source=source,
        tol=float(fp.get("tol", 1e-8)),
        max_iter=int(fp.get("max_iter", 200)),
        mc=PathConfig(
            dt_mc=float(mc.get("dt_mc", 1e-4)),
            n_paths=int(mc.get("n_paths", 10000)),
            seed=seed,
        ),
        points=_points(mc, domain.dim),
        theta_gap=float(mc["theta_gap"]) if "theta_gap" in mc else None,
        outdir=outdir,
    )


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class CoefficientValidationFailure(ValueError):
    """Coefficient validation failed; the message joins the report's issues."""

    def __init__(self, issues):
        super().__init__("; ".join(issues))


def _validation_block(cfg: RunConfig) -> dict:
    rep = validate(cfg.coeffs, cfg.grid)
    if rep.violated:
        raise CoefficientValidationFailure(rep.issues)
    block = {
        "delta": rep.delta,
        "argmin_point": list(rep.argmin_point),
        "argmin_time": rep.argmin_time,
    }
    env = bounds(cfg.coeffs, cfg.grid)
    block.update({"sup_f1": env.sup_f1, "c_beta": env.c_beta, "delta_qv": env.delta_qv})
    theta_gap = cfg.theta_gap
    if cfg.gamma is not None:
        gr = validate_spec(cfg.gamma, cfg.grid)
        block.update(
            {
                "gamma_theta": gr.theta,
                "gamma_norm_bound": gr.norm_bound,
                "gamma_snap_distances": list(gr.snap_distances),
            }
        )
        if theta_gap is None:
            theta_gap = cfg.grid.T - gr.theta
    if theta_gap is not None:
        nb = confinement_bound(cfg.domain, cfg.coeffs, cfg.grid, theta_gap)
        block.update({"theta_gap": theta_gap, "nu": nb.nu, "sqrt_nu": nb.sqrt_nu})
    return block


def cmd_validate(cfg: RunConfig, validation: dict) -> dict:
    return {}


def cmd_cauchy(cfg: RunConfig, validation: dict) -> dict:
    out = solve_terminal(cfg.grid, cfg.coeffs, source=cfg.source, terminal=cfg.terminal)
    _write_atomic(cfg.outdir / "solution.csv", field_to_csv(out.u))
    return {
        "diagnostics": asdict(out.diagnostics),
        "norms": {"sup_u": sup_norm(out.u), "sup_terminal": sup_norm(cfg.terminal)},
    }


def cmd_solve(cfg: RunConfig, validation: dict) -> dict:
    if cfg.gamma is None:
        raise NonlocalValidationError("solve requires a gamma section in the config")
    sol = solve_nonlocal(
        cfg.grid, cfg.coeffs, cfg.source, cfg.terminal, cfg.gamma, tol=cfg.tol, max_iter=cfg.max_iter
    )
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
            "sup_terminal_rhs": sup_norm(cfg.terminal),
        },
    }


def cmd_qmatrix(cfg: RunConfig, validation: dict) -> dict:
    if cfg.gamma is None:
        raise NonlocalValidationError("qmatrix requires a gamma section in the config")
    fm = assemble_feedback_matrix(cfg.grid, cfg.coeffs, cfg.gamma)
    lines = [",".join(repr(float(v)) for v in row) for row in fm.matrix]
    _write_atomic(cfg.outdir / "qmatrix.csv", "\n".join(lines) + "\n")
    sol = solve_nonlocal_direct(cfg.grid, cfg.coeffs, cfg.source, cfg.terminal, cfg.gamma)
    return {
        "qmatrix": {"sup_norm": fm.sup_norm, "n": fm.matrix.shape[0]},
        "direct": sol.report.to_dict(),
        "norms": {"sup_u": sup_norm(sol.u), "sup_terminal": sup_norm(sol.terminal)},
    }


def cmd_mccheck(cfg: RunConfig, validation: dict) -> dict:
    if not cfg.points:
        raise ValueError("mccheck requires montecarlo.points in the config")
    problem = CauchyProblem(grid=cfg.grid, coeffs=cfg.coeffs, source=cfg.source, terminal=cfg.terminal)
    rows = compare_mc_pde(problem, cfg.points, cfg.mc)
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
        raise ValueError("nubound needs montecarlo.theta_gap or a gamma section")
    nb = confinement_bound(cfg.domain, cfg.coeffs, cfg.grid, validation["theta_gap"]).to_dict()
    _write_atomic(cfg.outdir / "nubound.json", json.dumps(nb, indent=2, sort_keys=True) + "\n")
    return {"nubound": nb}


def cmd_converge(cfg: RunConfig, validation: dict) -> dict:
    """Refinement study: solve the Cauchy problem on nx, 2(nx-1)+1, 4(nx-1)+1
    nodes with the same time grid; the observed order comes from sup-norm
    differences at the shared coarse nodes at t = 0."""
    grids = [cfg.grid] + [
        make_grid(cfg.domain, tuple((n - 1) * factor + 1 for n in cfg.grid.nx), cfg.grid.nt, cfg.grid.T)
        for factor in (2, 4)
    ]
    sols = [solve_terminal(cfg.grid, cfg.coeffs, source=cfg.source, terminal=cfg.terminal).u]
    for g in grids[1:]:
        term, src = _sample_data(g, cfg.raw.get("data", {}))
        sols.append(solve_terminal(g, cfg.coeffs, source=src, terminal=term).u)

    def restrict(values: np.ndarray, factor: int) -> np.ndarray:
        sl = tuple(slice(factor - 1, None, factor) for _ in range(cfg.grid.dim))
        return values[sl]

    u0 = sols[0].values[0]
    u1 = restrict(sols[1].values[0], 2)
    u2 = restrict(sols[2].values[0], 4)
    d1 = float(np.max(np.abs(u0 - u1)))
    d2 = float(np.max(np.abs(u1 - u2)))
    order = float(np.log2(d1 / d2)) if d1 > 0 and d2 > 0 else float("nan")
    lines = ["nx,hx,diff_to_finer,order"]
    lines.append(f"{grids[0].nx[0]},{grids[0].hx[0]!r},{d1!r},{order!r}")
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


def _run(name: str, cfg: RunConfig) -> None:
    """Validate once, run command `name`, and write its report.json: the
    command's own sections inside the envelope every command shares."""
    t0 = time.perf_counter()
    validation = _validation_block(cfg)
    report = {"command": name, "config": cfg.raw, "validation": validation}
    report.update(COMMANDS[name](cfg, validation))
    report["timing_seconds"] = time.perf_counter() - t0
    _write_atomic(cfg.outdir / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bspde",
        description="Backward parabolic problems with a non-local terminal condition.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override for Monte-Carlo commands")
    args = parser.parse_args(argv)

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
