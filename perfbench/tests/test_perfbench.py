"""Tests of the benchmark's own parts: the correctness gates (a tampered
report must count as a failure), the span recorder, the host-speed probe,
the seeded inputs, and the agreement between BENCHMARK.json and run.py.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PICARD_CONFIG = {"montecarlo": {}}
EIGEN_CONFIG = {"montecarlo": {"points": [[0.2, 0.0], [0.5, 0.0], [0.8, 0.0]]}}
GRID_CONFIG = {"montecarlo": {"points": [[0.4, 0.5, 0.0], [0.6, 0.5, 0.0]]}}


def _solve(sup_terminal=7.5678291, ratios=(0.88, 0.88)):
    return {
        "fixedpoint": {"converged": True, "bc_residual": 8e-9, "ratios": list(ratios)},
        "norms": {"sup_terminal": sup_terminal},
    }


def _passing(workload):
    if workload == "picard-1d":
        return PICARD_CONFIG, {
            "solve": _solve(),
            "qmatrix": {"qmatrix": {"sup_norm": 0.969}, "norms": {"sup_terminal": 7.5678292}},
        }
    if workload == "eigenmode-mc":
        rho = gates.EIGEN_RHO
        return EIGEN_CONFIG, {
            "solve": _solve(sup_terminal=gates.EIGEN_AMPLITUDE * 1.001, ratios=(0.5 * rho,) * 10),
            "mccheck": {"mccheck": {"n_points": 3, "n_flagged": 0}},
            "converge": {"converge": {"order": 2.0}},
        }
    return GRID_CONFIG, {
        "solve": _solve(),
        "mccheck": {"mccheck": {"n_points": 2, "n_flagged": 0}},
    }


def _check(workload, reports, config, exit_codes=None):
    codes = {cmd: 0 for cmd in workloads.COMMANDS[workload]} if exit_codes is None else exit_codes
    return gates.check(workload, config, codes, reports)


@pytest.mark.parametrize("workload", sorted(workloads.COMMANDS))
def test_untampered_reports_pass(workload):
    config, reports = _passing(workload)
    result = _check(workload, reports, config)
    assert list(result) == list(workloads.COMMANDS[workload])
    assert all(reasons == [] for reasons in result.values()), result


def _set(path, value):
    def tamper(reports):
        node = reports
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return tamper


TAMPERS = [
    ("picard-1d", "solve", _set(("solve", "fixedpoint", "converged"), False)),
    ("picard-1d", "solve", _set(("solve", "fixedpoint", "bc_residual"), 2e-6)),
    ("picard-1d", "qmatrix", _set(("qmatrix", "qmatrix", "sup_norm"), 1.0)),
    ("picard-1d", "qmatrix", _set(("qmatrix", "norms", "sup_terminal"), 7.5679)),
    ("eigenmode-mc", "solve", _set(("solve", "norms", "sup_terminal"), gates.EIGEN_AMPLITUDE * 1.02)),
    ("eigenmode-mc", "solve", _set(("solve", "fixedpoint", "ratios"), [0.5 * gates.EIGEN_RHO, 0.3])),
    ("eigenmode-mc", "solve", _set(("solve", "fixedpoint", "converged"), False)),
    ("eigenmode-mc", "mccheck", _set(("mccheck", "mccheck", "n_flagged"), 1)),
    ("eigenmode-mc", "mccheck", _set(("mccheck", "mccheck", "n_points"), 2)),
    ("eigenmode-mc", "converge", _set(("converge", "converge", "order"), 1.7)),
    ("eigenmode-mc", "converge", _set(("converge", "converge", "order"), float("nan"))),
    ("grid-2d", "solve", _set(("solve", "fixedpoint", "bc_residual"), float("nan"))),
    ("grid-2d", "solve", _set(("solve", "fixedpoint", "converged"), False)),
    ("grid-2d", "mccheck", _set(("mccheck", "mccheck", "n_flagged"), 2)),
    ("grid-2d", "mccheck", _set(("mccheck", "mccheck"), {})),
]


@pytest.mark.parametrize("workload,cmd,tamper", TAMPERS)
def test_tampered_report_fails_its_gate(workload, cmd, tamper):
    config, reports = _passing(workload)
    reports = copy.deepcopy(reports)
    tamper(reports)
    result = _check(workload, reports, config)
    assert result[cmd], result
    assert all(reasons == [] for c, reasons in result.items() if c != cmd)


@pytest.mark.parametrize("workload", sorted(workloads.COMMANDS))
def test_exit_code_missing_report_and_skipped_command_fail(workload):
    config, reports = _passing(workload)
    first, *rest = workloads.COMMANDS[workload]
    codes = {cmd: 0 for cmd in workloads.COMMANDS[workload]}
    codes[first] = 2
    assert _check(workload, reports, config, codes)[first]
    assert _check(workload, {**reports, first: None}, config)[first]
    del codes[first]
    assert _check(workload, reports, config, codes)[first] == ["did not run"]
    broken = copy.deepcopy(reports)
    del broken[first]["fixedpoint"]
    assert _check(workload, broken, config)[first]


def test_picard_oracle_gate_needs_the_solve():
    config, reports = _passing("picard-1d")
    codes = {"solve": 1, "qmatrix": 0}
    result = _check("picard-1d", reports, config, codes)
    assert result["solve"] and result["qmatrix"]


def test_bias_max_reads_the_csv():
    text = "x1,s,pde,mc,stderr,z\n0.2,0.0,0.5,0.49,0.01,1.0\n0.5,0.0,0.8,0.83,0.01,3.0\n"
    assert gates.bias_max(text, 2.0) == pytest.approx(0.015)
    assert gates.bias_max("x1,s,pde,mc,stderr,z\n", 2.0) == 0.0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    leaf_t = tracer.wrap("m.leaf", "m", leaf)

    def outer():
        time.sleep(0.01)
        leaf_t()
        leaf_t()

    tracer.wrap("m.outer", "m", outer)()
    spans = tracer.spans
    assert [s[tracing.NAME] for s in spans] == ["m.outer", "m.leaf", "m.leaf"]
    assert spans[1][tracing.PARENT] == 0 and spans[2][tracing.PARENT] == 0
    outer_span = spans[0]
    children = sum(s[tracing.END] - s[tracing.START] for s in spans[1:])
    assert outer_span[tracing.CHILD_TIME] == pytest.approx(children)
    assert 0.009 <= tracing.self_time(outer_span) < 0.02
    assert tracing.under(spans, 2, "m.outer") and not tracing.under(spans, 0, "m.outer")


def test_span_recorded_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("m.boom", "m", boom)()
    assert len(tracer.spans) == 1 and tracer.spans[0][tracing.END] >= tracer.spans[0][tracing.START]
    assert tracer._stack == []


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in workloads.COMMANDS:
        a = workloads.generate(workload, 5, tmp_path / f"{workload}-a", ROOT)
        b = workloads.generate(workload, 5, tmp_path / f"{workload}-b", ROOT)
        c = workloads.generate(workload, 6, tmp_path / f"{workload}-c", ROOT)
        assert a == b != c


def test_kernel_csv_norm_is_below_one():
    nx, nt, theta = 9, 20, 0.1
    text = workloads.kernel_csv(3, nx=nx, nt=nt, theta=theta)
    rows = [list(map(float, ln.split(","))) for ln in text.strip().splitlines()[1:]]
    dt, h = 1.0 / nt, 1.0 / (nx - 1)
    n_levels = round(theta / dt) + 1
    assert len(rows) == n_levels * (nx - 2) ** 2
    w = workloads._trapezoid(n_levels, dt)
    per_target = {}
    for t, x, _y, k in rows:
        per_target[x] = per_target.get(x, 0.0) + w[round(t / dt)] * h * abs(k)
    assert max(per_target.values()) == pytest.approx(workloads.P1_KERNEL_BOUND)


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.COMMANDS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert set(gates.GATES) == set(workloads.COMMANDS)
    for w, cmds in workloads.COMMANDS.items():
        assert tuple(gates.GATES[w]) == cmds


def test_percentile_nearest_rank():
    assert run.percentile([3, 1, 2], 0.9) == 3
    assert run.percentile(list(range(1, 11)), 0.9) == 9
    assert run.percentile([5.0], 0.9) == 5.0


def test_traced_child_on_a_small_problem(tmp_path):
    """The trace of a real CLI run reproduces what the code implies: two
    feedback-matrix assemblies per qmatrix and iterations + 1 sweeps per
    Picard solve."""
    cfg = {
        "domain": {"lo": [0.0], "hi": [1.0]},
        "grid": {"nx": [9], "nt": 10, "T": 1.0},
        "coefficients": {"b": [[0.1]], "f": [0.0], "lam": 0.0, "beta": []},
        "gamma": {"type": "initial_value", "weight": 0.5},
        "data": {"terminal": "sin(3.141592653589793*x)", "source": 0.0},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    result = tmp_path / "result.json"
    argv = [
        sys.executable, str(BENCH / "child.py"), "--src", str(ROOT / "src"), "--config", str(config),
        "--out", str(tmp_path / "out"), "--commands", "solve,qmatrix", "--trace", "1", "--result", str(result),
    ]  # fmt: skip
    subprocess.run(argv, check=True, timeout=120)
    res = json.loads(result.read_text())
    assert res["exit_codes"] == {"solve": 0, "qmatrix": 0}
    totals, samples = tracing.child_layer_values(tracing.load(tmp_path / "out" / "spans.json"))
    n = 7  # interior nodes
    assert totals["fixedpoint.feedback_matrix_calls"] == 2
    assert totals["fixedpoint.sweeps_per_solve"] == totals["fixedpoint.iterations"] + 1
    assert totals["stepper.sweeps"] == totals["fixedpoint.iterations"] + 1 + 2 * n + 1
    assert totals["montecarlo.path_steps"] == 0
    assert len(samples["cli.load_config_s"]) == 2


def test_host_speed_rescales_by_the_probe():
    probe = hostspeed.Probe()
    took = 2 * hostspeed.PROBE_REF_S
    probe.samples = [(i / 100, i / 100 + 2 * took, took) for i in range(100)]
    span = probe.span(0.1, 0.6)  # holds the probes started at 0.10 .. 0.59
    assert span["wall_s"] == pytest.approx(0.5)
    assert span["slowdown"] == pytest.approx(2.0)
    assert span["s"] == pytest.approx((0.5 - 100 * took) / 2.0)


def test_host_speed_short_span_and_descheduled_probe():
    probe = hostspeed.Probe()
    ref = hostspeed.PROBE_REF_S
    took = [100 * ref if i == 51 else ref for i in range(100)]
    probe.samples = [(i / 100, i / 100 + took[i], took[i]) for i in range(100)]
    span = probe.span(0.5, 0.52)  # two probes inside, the second one descheduled
    assert span["slowdown"] == pytest.approx(1.0)
    assert span["s"] == pytest.approx(0.02 - 101 * ref)


def test_host_speed_probe_samples_while_started():
    probe = hostspeed.Probe()
    probe.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    span = probe.span(t0, t1)
    assert span["slowdown"] > 0 and 0 < span["s"] < 0.2 * 5
