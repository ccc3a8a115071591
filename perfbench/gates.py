"""Correctness gates: one per (workload, subcommand) operation.

A gate reads the reports the CLI wrote and returns the list of reasons the
operation failed; an empty list means it passed.  A non-zero exit code or a
missing report is a failure, so a fast wrong answer never counts as a
success.
"""

from __future__ import annotations

import csv
import io
import math

BC_RESIDUAL_MAX = 1e-6
ORACLE_REL_TOL = 1e-6
# Eigenmode experiment: u(.,T) = sin(pi x) + 0.5 u(.,0) with b = 0.1 on [0,1]
# gives a terminal amplitude 1/(1 - 0.5 rho), rho = exp(-0.1 pi^2), and Picard
# ratios 0.5 rho; criterion 2 allows 1% on the amplitude and 5% on the ratios.
EIGEN_RHO = math.exp(-0.1 * math.pi**2)
EIGEN_AMPLITUDE = 1.0 / (1.0 - 0.5 * EIGEN_RHO)
EIGEN_AMPLITUDE_TOL = 0.01
EIGEN_RATIO_TOL = 0.05
CONVERGE_ORDER_MIN = 1.8


def _converged(rep: dict) -> list[str]:
    fp = rep.get("fixedpoint", {})
    out = []
    if fp.get("converged") is not True:
        out.append("solve did not converge")
    bc = fp.get("bc_residual")
    if not (isinstance(bc, (int, float)) and bc <= BC_RESIDUAL_MAX):
        out.append(f"bc_residual {bc} > {BC_RESIDUAL_MAX}")
    return out


def _mccheck_clean(reports: dict, config: dict) -> list[str]:
    mc = reports["mccheck"].get("mccheck", {})
    n_points = len(config["montecarlo"]["points"])
    out = []
    if mc.get("n_flagged") != 0:
        out.append(f"mccheck flagged {mc.get('n_flagged')} points")
    if mc.get("n_points") != n_points:
        out.append(f"mccheck compared {mc.get('n_points')} points, expected {n_points}")
    return out


def _solve_converged(reports: dict, config: dict) -> list[str]:
    return _converged(reports["solve"])


def _picard_qmatrix(reports: dict, config: dict) -> list[str]:
    q = reports["qmatrix"]
    out = []
    sup = q.get("qmatrix", {}).get("sup_norm")
    if not (isinstance(sup, (int, float)) and sup < 1.0):
        out.append(f"qmatrix sup_norm {sup} is not < 1")
    solve = reports.get("solve")
    if solve is None:
        out.append("no solve report to compare the direct oracle against")
        return out
    picard = solve["norms"]["sup_terminal"]
    direct = q["norms"]["sup_terminal"]
    if not abs(picard - direct) <= ORACLE_REL_TOL * abs(direct):
        out.append(f"Picard sup_terminal {picard!r} vs direct {direct!r} differ by more than {ORACLE_REL_TOL} relative")
    return out


def _eigen_solve(reports: dict, config: dict) -> list[str]:
    rep = reports["solve"]
    out = _converged(rep)
    amp = rep["norms"]["sup_terminal"]
    rel = abs(amp - EIGEN_AMPLITUDE) / EIGEN_AMPLITUDE
    if not rel <= EIGEN_AMPLITUDE_TOL:
        out.append(f"terminal amplitude {amp!r} is {rel:.2e} from {EIGEN_AMPLITUDE!r}")
    target = 0.5 * EIGEN_RHO
    ratios = rep["fixedpoint"]["ratios"]
    worst = max((abs(r - target) / target for r in ratios), default=math.inf)
    if not worst <= EIGEN_RATIO_TOL:
        out.append(f"Picard ratios within {worst:.2%} of {target:.4f}, allowed {EIGEN_RATIO_TOL:.0%}")
    return out


def _eigen_converge(reports: dict, config: dict) -> list[str]:
    order = reports["converge"].get("converge", {}).get("order")
    if not (isinstance(order, (int, float)) and order >= CONVERGE_ORDER_MIN):
        return [f"observed order {order} < {CONVERGE_ORDER_MIN}"]
    return []


GATES = {
    "picard-1d": {"solve": _solve_converged, "qmatrix": _picard_qmatrix},
    "eigenmode-mc": {"solve": _eigen_solve, "mccheck": _mccheck_clean, "converge": _eigen_converge},
    "grid-2d": {"solve": _solve_converged, "mccheck": _mccheck_clean},
}


def check(workload: str, config: dict, exit_codes: dict, reports: dict) -> dict:
    """Gate every operation of one workload child.

    exit_codes maps a subcommand to the CLI's exit code (absent if it never
    ran); reports maps it to the parsed report.json (absent if unreadable).
    Returns a map from subcommand to its list of failure reasons.
    """
    ok_reports = {c: r for c, r in reports.items() if exit_codes.get(c) == 0 and r is not None}
    result = {}
    for cmd, gate in GATES[workload].items():
        if cmd not in exit_codes:
            result[cmd] = ["did not run"]
        elif exit_codes[cmd] != 0:
            result[cmd] = [f"exit code {exit_codes[cmd]}"]
        elif cmd not in ok_reports:
            result[cmd] = ["no report.json"]
        else:
            try:
                result[cmd] = gate(ok_reports, config)
            except (KeyError, TypeError, ValueError) as e:
                result[cmd] = [f"malformed report: {e!r}"]
    return result


def bias_max(mccheck_csv: str, sup_u: float) -> float:
    """max |pde - mc| / sup|u| over the rows of mccheck.csv."""
    rows = list(csv.DictReader(io.StringIO(mccheck_csv)))
    if not rows or not sup_u > 0:
        return 0.0
    return max(abs(float(r["pde"]) - float(r["mc"])) for r in rows) / sup_u
