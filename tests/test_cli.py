import json
import math
from pathlib import Path

import numpy as np
import pytest

from bspde import cli, coefficients, stepper
from bspde.cli import main

PI = "3.141592653589793"


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "domain": {"lo": [0.0], "hi": [1.0]},
        "grid": {"nx": [41], "nt": 50, "T": 1.0},
        "coefficients": {"b": [[0.1]], "f": [0.0], "lam": 0.0, "beta": []},
        "gamma": {"type": "initial_value", "weight": 0.5},
        "data": {"terminal": f"sin({PI}*x)", "source": 0.0},
        "fixedpoint": {"tol": 1e-8, "max_iter": 200},
        "montecarlo": {"dt_mc": 0.01, "n_paths": 500, "seed": 7, "points": [[0.5, 0.0]]},
        "output": {"dir": "out"},
    }
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg, indent=1))
    return path


def read_report(outdir: Path) -> dict:
    return json.loads((outdir / "report.json").read_text())


def test_validate_ok(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rep = read_report(tmp_path / "o")
    assert rep["validation"]["delta"] == pytest.approx(0.1)
    assert rep["validation"]["gamma_norm_bound"] == pytest.approx(0.5)
    assert rep["validation"]["nu"] == pytest.approx(0.9493, abs=2e-4)


def test_validate_rejects_overweight_two_point(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        gamma={"type": "two_point", "weight1": 0.7, "t1": 0.2, "weight2": 0.4, "t2": 0.5},
    )
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_validate_rejects_bad_ellipticity(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        coefficients={"b": [[0.4]], "beta": [[1.0]]},
    )
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_missing_config_is_io_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 3


def test_malformed_json_is_io_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", "--config", str(p)]) == 3


@pytest.mark.parametrize("section,key", [("grid", "nt"), ("gamma", "weight")])
def test_missing_key_names_its_dotted_path(tmp_path, capsys, section, key):
    cfg = write_config(tmp_path / "c.json")
    raw = json.loads(cfg.read_text())
    del raw[section][key]
    cfg.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"invalid configuration: {section}.{key}: missing" in capsys.readouterr().err


def test_internal_key_error_is_not_a_validation_failure(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.json")

    def broken(cfg, validation):
        raise KeyError("internal")

    monkeypatch.setitem(cli.COMMANDS, "validate", broken)
    with pytest.raises(KeyError):
        main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")])


def test_internal_value_error_is_not_a_validation_failure(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "c.json")

    def broken(cfg, validation):
        raise ValueError("internal")

    monkeypatch.setitem(cli.COMMANDS, "validate", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert "validation failed" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "fixedpoint,message",
    [
        ({"tol": 1e-8, "max_iter": 0}, "fixedpoint.max_iter: must be at least 1, got 0"),
        ({"tol": math.nan, "max_iter": 200}, "fixedpoint.tol: must be positive and finite, got nan"),
        ({"tol": math.inf, "max_iter": 200}, "fixedpoint.tol: must be positive and finite, got inf"),
        ({"tol": 1e-8, "max_iter": "ten"}, "fixedpoint.max_iter: must be an integer, got 'ten'"),
        ({"tol": 1e-8, "max_iter": math.inf}, "fixedpoint.max_iter: must be an integer, got inf"),
    ],
)
def test_bad_fixedpoint_controls_name_their_path(tmp_path, capsys, fixedpoint, message):
    cfg = write_config(tmp_path / "c.json", fixedpoint=fixedpoint)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"invalid configuration: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,value,message",
    [
        ("grid", {"nx": [41], "nt": None, "T": 1.0}, "grid.nt: must be an integer, got None"),
        ("grid", {"nx": ["a"], "nt": 50, "T": 1.0}, "grid.nx[0]: must be an integer, got 'a'"),
        ("domain", {"lo": 0.0, "hi": [1.0]}, "domain.lo: must be a list of numbers, got 0.0"),
        ("gamma", {"type": "initial_value", "weight": "half"}, "gamma.weight: must be a number, got 'half'"),
        ("montecarlo", {"dt_mc": "small"}, "montecarlo.dt_mc: must be a number, got 'small'"),
        ("grid", {"nx": [41], "nt": 10.7, "T": 1.0}, "grid.nt: must be an integer, got 10.7"),
        ("montecarlo", {"n_paths": 150.9}, "montecarlo.n_paths: must be an integer, got 150.9"),
        ("grid", {"nx": [41], "nt": True, "T": 1.0}, "grid.nt: must be an integer, got True"),
        ("grid", {"nx": [41], "nt": 50, "T": True}, "grid.T: must be a number, got True"),
        ("grid", {"nx": [True], "nt": 50, "T": 1.0}, "grid.nx[0]: must be an integer, got True"),
        ("grid", {"nx": 41.5, "nt": 50, "T": 1.0}, "grid.nx: must be an integer, got 41.5"),
        ("gamma", {"type": "initial_value", "weight": False}, "gamma.weight: must be a number, got False"),
    ],
)
def test_a_number_entry_that_is_not_a_number_names_its_path(tmp_path, capsys, section, value, message):
    cfg = write_config(tmp_path / "c.json", **{section: value})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"invalid configuration: {message}" in capsys.readouterr().err


def test_integral_number_entries_are_read_as_integers(tmp_path):
    grid = {"nx": ["41"], "nt": "10", "T": "1"}
    mc = {"n_paths": 500.0, "seed": "7", "points": [[0.5, 0.0]]}
    cfg = write_config(tmp_path / "c.json", grid=grid, montecarlo=mc)
    loaded = cli.load_config(str(cfg))
    assert (loaded.grid.nx, loaded.grid.nt, loaded.grid.T) == ((41,), 10, 1.0)
    assert (loaded.mc.n_paths, loaded.mc.seed) == (500, 7)
    assert type(loaded.mc.n_paths) is int


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"data": {"terminal": "x +"}}, "data.terminal: unexpected 'end of input' (at position 3)"),
        ({"data": {"terminal": [1, 2]}}, "data.terminal: must be a number or an expression, got [1, 2]"),
        ({"data": {"terminal": True}}, "data.terminal: must be a number or an expression, got True"),
        ({"data": {"terminal": "x", "source": "t *"}}, "data.source: unexpected 'end of input' (at position 3)"),
        ({"data": {"terminal": "x", "source": {"t": 1}}}, "data.source: must be a number or an expression, got {'t': 1}"),
        ({"data": {"terminal": "x*t"}}, "data.terminal: unbound identifier 't'"),
        ({"data": {"terminal": "x", "source": "sqrt(t - 0.5)"}}, "data.source: sqrt of a negative value"),
        ({"data": {"terminal": "exp(1000*x)"}}, "data.terminal: evaluates to a non-finite value"),
        ({"data": {"terminal": math.nan}}, "data.terminal: evaluates to a non-finite value"),
        ({"data": {"terminal": "x", "source": "exp(1000*t)"}}, "data.source: evaluates to a non-finite value at t = 0.72"),
        ({"coefficients": {"lam": [1]}}, "coefficients.lam: must be a number or an expression, got [1]"),
        ({"coefficients": {"lam": "-x +"}}, "coefficients.lam: unexpected 'end of input' (at position 4)"),
        ({"coefficients": {"b": [["0.1 +"]]}}, "coefficients.b[0][0]: unexpected 'end of input' (at position 5)"),
        ({"coefficients": {"b": 0.1, "f": [True]}}, "coefficients.f[0]: must be a number or an expression, got True"),
        ({"coefficients": {"b": 0.1, "beta": [["x*(1 - x"]]}}, "coefficients.beta[0][0]: expected ')'"),
    ],
)
def test_an_expression_entry_names_its_path(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path / "c.json", **overrides)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"invalid configuration: {message}" in capsys.readouterr().err


def test_the_source_expression_is_parsed_once(tmp_path, monkeypatch):
    texts = []
    real = coefficients.parse

    def spy(text):
        texts.append(text)
        return real(text)

    monkeypatch.setattr(coefficients, "parse", spy)
    grid, data = {"nx": [9], "nt": 10, "T": 1.0}, {"terminal": "x", "source": "x*t"}
    cfg = write_config(tmp_path / "c.json", grid=grid, data=data)
    loaded = cli.load_config(str(cfg))
    assert texts.count("x*t") == 1
    assert loaded.source.values[3] == pytest.approx(loaded.grid.axis_coords(0) * loaded.grid.dt * 3)


@pytest.mark.parametrize(
    "gamma",
    [
        {"type": "initial_value", "weight": math.nan},
        {"type": "point_in_time", "weight": math.nan, "t1": 0.5},
        {"type": "two_point", "weight1": 0.2, "t1": 0.2, "weight2": math.nan, "t2": 0.5},
        {"type": "convex", "weights": [math.nan], "parts": [{"type": "initial_value", "weight": 0.5}]},
    ],
)
def test_a_nan_coupling_weight_is_a_validation_failure(tmp_path, capsys, gamma):
    cfg = write_config(tmp_path / "c.json", grid={"nx": [9], "nt": 10, "T": 1.0}, gamma=gamma)
    for command in ("validate", "solve", "qmatrix"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "= nan is not finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("b", ["0.1 + 0.05*x", "0.1 + 0.05*t"])
def test_reruns_are_served_from_the_store_and_write_the_same_bytes(tmp_path, b):
    cfg = write_config(tmp_path / "c.json", grid={"nx": [9], "nt": 10, "T": 1.0}, coefficients={"b": b})

    def run(name, out):
        assert main([name, "--config", str(cfg), "--out", str(out)]) == 0
        report = read_report(out)
        report.pop("timing_seconds")
        return report, {p.name: p.read_bytes() for p in out.iterdir() if p.name != "report.json"}

    for name in ("cauchy", "solve", "qmatrix"):
        stepper._store.cache_clear()  # the first run builds the store
        first = run(name, tmp_path / name / "first")
        second = run(name, tmp_path / name / "rerun")
        assert stepper._store.cache_info().misses == 1  # the rerun was served the first run's store
        assert second == first


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"domain": 3}, "domain: must be an object, got 3"),
        ({"grid": [41, 50]}, "grid: must be an object, got [41, 50]"),
        ({"coefficients": "x"}, "coefficients: must be an object, got 'x'"),
        ({"gamma": 0.5}, "gamma: must be an object, got 0.5"),
        ({"gamma": {"type": "convex", "weights": [1.0], "parts": 3}}, "gamma.parts: must be a list, got 3"),
        ({"gamma": {"type": "convex", "weights": [1.0], "parts": [4]}}, "gamma.parts[0]: must be an object, got 4"),
        ({"data": 1.0}, "data: must be an object, got 1.0"),
        ({"fixedpoint": 5}, "fixedpoint: must be an object, got 5"),
        ({"montecarlo": [1]}, "montecarlo: must be an object, got [1]"),
        ({"output": "out"}, "output: must be an object, got 'out'"),
        ({"coefficients": {"b": 0.1, "beta": 3}}, "coefficients.beta: must be a list, got 3"),
        ({"output": {"dir": 5}}, "output.dir: must be a string, got 5"),
    ],
)
def test_a_container_of_the_wrong_type_names_its_path(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path / "c.json", **overrides)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"invalid configuration: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"coefficients": {"b": [[0.1, 0.1]]}}, "coefficients: b must be 1x1"),
        ({"coefficients": {"b": 0.1, "f": [0.0, 0.0]}}, "coefficients: f must have 1 components"),
        ({"coefficients": {"b": 0.1, "beta": [[0.0, 0.0]]}}, "coefficients: each beta_i must have 1 components"),
        ({"grid": {"nx": [41, 41], "nt": 50, "T": 1.0}}, "grid: nx must give one node count per axis"),
        ({"domain": {"lo": [0.0, 0.0], "hi": [1.0]}}, "domain: lo and hi must have the same length"),
        ({"grid": {"nx": [2], "nt": 50, "T": 1.0}}, "grid: need at least 3 nodes per axis (2 boundary + 1 interior), got 2"),
        ({"montecarlo": {"n_paths": 5}}, "montecarlo: need at least 100 paths"),
        ({"montecarlo": {"seed": -1}}, "montecarlo: seed must be a non-negative integer"),
        ({"montecarlo": {"dt_mc": math.nan}}, "montecarlo: dt_mc must be positive"),
        ({"grid": {"nx": [41], "nt": 50, "T": math.inf}}, "grid: time horizon must be positive and finite, got inf"),
        ({"domain": {"lo": [-1e308], "hi": [1e308]}}, "domain: width hi - lo is not finite: lo=-1e+308, hi=1e+308"),
        ({"grid": {"nx": [41], "nt": 1e308, "T": 1.0}}, "grid: nx and nt ask for more nodes than a numpy array can hold"),
        ({"grid": {"nx": [1e308], "nt": 50, "T": 1.0}}, "grid: nx and nt ask for more nodes than a numpy array can hold"),
        ({"domain": {"lo": [0.0], "hi": [1e308]}}, "grid: grid step 2.5e+306 is too wide: its square overflows"),
        ({"montecarlo": {"theta_gap": math.inf}}, "montecarlo.theta_gap: must be positive and finite, got inf"),
        ({"montecarlo": {"theta_gap": 0}}, "montecarlo.theta_gap: must be positive and finite, got 0.0"),
        ({"gamma": {"type": "nope"}}, "gamma.type: unknown gamma type 'nope'"),
        ({"gamma": {"type": "space_time_kernel", "theta": 0.5, "csv": 5}}, "gamma.csv: must be a string, got 5"),
        ({"montecarlo": {"n_paths": 1e308}}, "montecarlo: n_paths asks for more paths than a numpy array can hold"),
    ],
)
def test_a_constructor_or_range_fault_names_its_path(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path / "c.json", **overrides)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"invalid configuration: {message}" in capsys.readouterr().err


def test_a_kernel_csv_fault_names_the_csv_entry(tmp_path, capsys):
    (tmp_path / "kern.csv").write_text("t,x1,y1,k\n0.0,0.25,0.5,1.0\n0.0,0.5\n")
    part = {"type": "space_time_kernel", "theta": 0.5, "csv": "kern.csv"}
    gamma = {"type": "convex", "weights": [0.5, 0.5], "parts": [{"type": "initial_value", "weight": 0.5}, part]}
    cfg = write_config(tmp_path / "c.json", grid={"nx": [5], "nt": 4, "T": 1.0}, gamma=gamma)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration: gamma.parts[1].csv: kernel CSV line 3 has 2 fields, the header has 4" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"grid": {"nx": [41], "nt": 50, "T": 1e308}},
        {"coefficients": {"b": 0.1, "f": [1e308]}},
        {"domain": {"lo": [0.0], "hi": [1e-300]}, "data": {"terminal": 1.0}},
    ],
)
def test_a_step_matrix_that_overflows_is_a_validation_failure(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "c.json", **overrides)
    for command in ("validate", "cauchy"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "validation failed: implicit step dt*A_h is not finite at x = (0.0,), t = 0" in capsys.readouterr().err


def test_data_too_large_for_the_solve_is_a_validation_failure(tmp_path, capsys):
    # 2**1019 times the eigenmode: the solution fits, but M x (diagonal 65) overflows
    data = {"terminal": f"{2.0**1019!r}*sin({PI}*x)"}
    cfg = write_config(tmp_path / "c.json", gamma=None, coefficients={"b": 1.0}, data=data)
    assert main(["cauchy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert read_report(tmp_path / "o")["norms"]["sup_u"] == 2.0**1019
    # the max-principle bound 1e308 + T*1e308 is beyond the range of doubles
    cfg = write_config(tmp_path / "c.json", gamma=None, data={"terminal": 1e308, "source": 1e308})
    assert main(["cauchy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "validation failed: a backward step from finite data overflows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "coefficients,name",
    [
        ({"b": "exp(1000)"}, "b"),
        ({"b": 0.1, "f": ["exp(1000)"]}, "f"),
        ({"b": 0.1, "lam": "-exp(1000)"}, "lam"),
        ({"b": 0.1, "beta": [["exp(1000)*x*(1 - x)"]]}, "beta"),
    ],
)
def test_a_coefficient_that_overflows_is_a_validation_failure(tmp_path, capsys, coefficients, name):
    # the overflow is reported by name, not as a numpy warning (an error in this suite) or a traceback
    cfg = write_config(tmp_path / "c.json", grid={"nx": [9], "nt": 10, "T": 1.0}, coefficients=coefficients)
    for command in ("validate", "cauchy"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"validation failed: coefficient {name} is not finite at x = (0.0,), t = 0" in err


@pytest.mark.parametrize("samples", [[[0.0, "a"], [0.5, 0.1]], [[0.0, 0.1], [0.5]]])
def test_malformed_time_kernel_samples_are_a_validation_failure(tmp_path, capsys, samples):
    cfg = write_config(tmp_path / "c.json", gamma={"type": "time_kernel", "theta": 0.5, "kernel": samples})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "sampled time kernel must be a sequence of (time, value) pairs" in capsys.readouterr().err


def test_mccheck_without_points_is_a_validation_failure(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", montecarlo={"dt_mc": 0.01, "n_paths": 500, "seed": 7})
    assert main(["mccheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "validation failed: mccheck requires montecarlo.points in the config" in capsys.readouterr().err


def test_command_table_lists_every_cmd_function():
    names = {name[len("cmd_") :] for name in vars(cli) if name.startswith("cmd_")}
    assert set(cli.COMMANDS) == names
    for name in names:
        assert cli.COMMANDS[name] is getattr(cli, f"cmd_{name}")


def test_every_command_writes_the_report_envelope(tmp_path):
    cfg = write_config(tmp_path / "c.json", grid={"nx": [9], "nt": 10, "T": 1.0})
    for name in cli.COMMANDS:
        out = tmp_path / name
        assert main([name, "--config", str(cfg), "--out", str(out)]) == 0, name
        rep = read_report(out)
        assert rep["command"] == name
        assert rep["config"] == json.loads(cfg.read_text())
        assert rep["validation"]["delta"] == pytest.approx(0.1)
        assert rep["timing_seconds"] >= 0.0


def test_nubound_matches_the_validation_block(tmp_path):
    for mc in ({"theta_gap": 0.4}, {}):
        cfg = write_config(tmp_path / "c.json", montecarlo=mc)
        out = tmp_path / f"o{len(mc)}"
        assert main(["nubound", "--config", str(cfg), "--out", str(out)]) == 0
        nb = json.loads((out / "nubound.json").read_text())
        block = read_report(out)["validation"]
        assert nb["theta_gap"] == block["theta_gap"] == (0.4 if mc else 1.0)
        assert nb["nu"] == block["nu"]


def test_nubound_needs_a_horizon(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", gamma=None)
    assert main(["nubound", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "nubound needs montecarlo.theta_gap or a gamma section" in capsys.readouterr().err


def test_non_convergence_exit_code(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        coefficients={"b": [[0.001]]},
        gamma={"type": "initial_value", "weight": 0.999},
        fixedpoint={"tol": 1e-13, "max_iter": 3},
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cauchy_eigenmode(tmp_path):
    cfg = write_config(tmp_path / "c.json", grid={"nx": [201], "nt": 400, "T": 1.0}, gamma=None)
    out = tmp_path / "o"
    assert main(["cauchy", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["diagnostics"]["monotone"] is True
    assert rep["norms"]["sup_u"] == pytest.approx(1.0, abs=1e-9)
    csv_lines = (out / "solution.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "t,x1,u"
    assert len(csv_lines) == 1 + 401 * 199


def test_solve_eigenmode_report(tmp_path):
    cfg = write_config(tmp_path / "c.json", grid={"nx": [201], "nt": 400, "T": 1.0})
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    fp = rep["fixedpoint"]
    assert fp["converged"] is True
    assert fp["bc_residual"] <= 1e-8
    assert set(fp) >= {"iterations", "residuals", "ratios", "bc_residual", "converged", "nu_bound", "sqrt_nu"}
    rho = math.exp(-0.1 * math.pi**2)
    assert rep["norms"]["sup_terminal"] == pytest.approx(1 / (1 - 0.5 * rho), rel=1e-2)


def test_solve_deterministic_round_trip(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    r1, r2 = read_report(out1), read_report(out2)
    r1.pop("timing_seconds"), r2.pop("timing_seconds")
    assert r1 == r2


def test_qmatrix_command(tmp_path):
    cfg = write_config(tmp_path / "c.json", grid={"nx": [21], "nt": 30, "T": 1.0})
    out = tmp_path / "o"
    assert main(["qmatrix", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["qmatrix"]["n"] == 19
    assert rep["qmatrix"]["sup_norm"] <= 0.5 + 1e-12
    assert rep["direct"]["bc_residual"] <= 1e-10
    rows = (out / "qmatrix.csv").read_text().strip().split("\n")
    q = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert q.shape == (19, 19)


def test_mccheck_command(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        grid={"nx": [41], "nt": 50, "T": 1.0},
        gamma=None,
        montecarlo={"dt_mc": 0.005, "n_paths": 4000, "seed": 3, "points": [[0.5, 0.0], [0.25, 0.5]]},
    )
    out = tmp_path / "o"
    assert main(["mccheck", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["mccheck"]["n_points"] == 2
    assert rep["mccheck"]["n_flagged"] == 0
    lines = (out / "mccheck.csv").read_text().strip().split("\n")
    assert lines[0] == "x1,s,pde,mc,stderr,z"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "points,where",
    [([[0.5]], "montecarlo.points[0]"), ([[0.5, 0.0, 7.0]], "montecarlo.points[0]"), (5, "montecarlo.points")],
)
def test_malformed_mc_points_are_a_validation_failure(tmp_path, capsys, points, where):
    cfg = write_config(tmp_path / "c.json", montecarlo={"dt_mc": 0.01, "n_paths": 500, "seed": 7, "points": points})
    assert main(["mccheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"invalid configuration: {where}: must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "point,message",
    [
        ([math.nan, 0.0], "start point (nan,) must lie strictly inside the domain"),
        ([0.5, 1.2], "s = 1.2 is beyond the horizon T = 1.0"),
        ([0.5, math.nan], "need 0 <= s <= horizon, got s=nan"),
        ({"dt_mc": 1e-300}, "dt_mc = 1e-300 asks for more path steps to the horizon than numpy can index"),
    ],
)
def test_bad_mc_start_point_is_a_validation_failure(tmp_path, capsys, point, message):
    # checked before the solution is interpolated there (which would warn or
    # fail with a grid error); warnings are errors under pytest.  A dict row
    # keeps the point [0.5, 0.0] and overrides other montecarlo entries.
    mc = {"dt_mc": 0.01, "n_paths": 500, "seed": 7, "points": [[0.5, 0.0]]}
    mc.update(point if isinstance(point, dict) else {"points": [point]})
    cfg = write_config(tmp_path / "c.json", montecarlo=mc)
    assert main(["mccheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"validation failed: {message}" in capsys.readouterr().err


def test_nubound_command(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["nubound", "--config", str(cfg), "--out", str(out)]) == 0
    nb = json.loads((out / "nubound.json").read_text())
    # initial-value coupling reads t = 0, so the gap is the whole horizon
    assert nb["theta_gap"] == pytest.approx(1.0)
    assert nb["nu"] == pytest.approx(0.9493, abs=2e-4)
    assert nb["sqrt_nu"] == pytest.approx(math.sqrt(nb["nu"]))
    assert nb["Dhat1"] == [pytest.approx(-1.0), pytest.approx(1.0)]


def test_converge_command(tmp_path):
    cfg = write_config(tmp_path / "c.json", grid={"nx": [26], "nt": 200, "T": 1.0}, gamma=None)
    out = tmp_path / "o"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["converge"]["order"] >= 1.8
    lines = (out / "converge.csv").read_text().strip().split("\n")
    assert lines[0] == "nx,hx,diff_to_finer,order"
    assert len(lines) == 4


def test_space_time_kernel_from_csv_config(tmp_path):
    # kernel CSV: couple every x to node y = 0.5 at t = 0 with weight 1
    g_nx, theta = 5, 0.5
    rows = ["t,x1,y1,k"]
    for x in (0.25, 0.5, 0.75):
        rows.append(f"0.0,{x},0.5,1.0")
    (tmp_path / "kern.csv").write_text("\n".join(rows) + "\n")
    cfg = write_config(
        tmp_path / "c.json",
        grid={"nx": [g_nx], "nt": 4, "T": 1.0},
        gamma={"type": "space_time_kernel", "theta": theta, "csv": "kern.csv"},
        data={"terminal": "x*(1-x)", "source": 0.0},
    )
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["validation"]["gamma_theta"] == pytest.approx(0.5)
    assert rep["fixedpoint"]["converged"] is True


def test_space_time_kernel_from_csv_config_2d(tmp_path):
    # couple every node x to source node y = (0.5, 0.25) at t = 0 with weight 1;
    # the last row overwrites the earlier one for x = (0.25, 0.25)
    theta = 0.5
    nodes = (0.25, 0.5, 0.75)
    rows = ["t,x1,x2,y1,y2,k", "0.0,0.25,0.25,0.5,0.25,9.0"]
    rows += [f"0.0,{x1},{x2},0.5,0.25,1.0" for x1 in nodes for x2 in nodes]
    (tmp_path / "kern.csv").write_text("\n".join(rows) + "\n")
    cfg = write_config(
        tmp_path / "c.json",
        domain={"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        grid={"nx": [5, 5], "nt": 4, "T": 1.0},
        coefficients={"b": [0.1, 0.1], "f": [0.0, 0.0], "lam": 0.0, "beta": []},
        gamma={"type": "space_time_kernel", "theta": theta, "csv": "kern.csv"},
        data={"terminal": "x1*(1-x1)*x2*(1-x2)", "source": 0.0},
        montecarlo={"dt_mc": 0.01, "n_paths": 500, "seed": 7, "points": [[0.5, 0.5, 0.0]]},
    )
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["validation"]["gamma_theta"] == pytest.approx(theta)
    # weight 1 at level 0: trapezoid weight dt/2 times the cell volume h1*h2
    assert rep["validation"]["gamma_norm_bound"] == pytest.approx(0.5 * 0.25 * 0.25**2)
    assert rep["fixedpoint"]["converged"] is True


def test_kernel_csv_nan_coordinate_is_a_validation_failure(tmp_path, capsys):
    (tmp_path / "kern.csv").write_text("t,x1,y1,k\n0.0,0.25,0.5,1.0\n0.0,nan,0.5,1.0\n")
    cfg = write_config(
        tmp_path / "c.json",
        grid={"nx": [5], "nt": 4, "T": 1.0},
        gamma={"type": "space_time_kernel", "theta": 0.5, "csv": "kern.csv"},
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "kernel CSV line 3: t, x and y must be finite" in capsys.readouterr().err


def test_kernel_csv_short_row_is_a_validation_failure(tmp_path, capsys):
    (tmp_path / "kern.csv").write_text("t,x1,y1,k\n0.0,0.25,0.5,1.0\n0.0,0.5\n")
    cfg = write_config(
        tmp_path / "c.json",
        grid={"nx": [5], "nt": 4, "T": 1.0},
        gamma={"type": "space_time_kernel", "theta": 0.5, "csv": "kern.csv"},
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "kernel CSV line 3 has 2 fields, the header has 4" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert main(["validate", "--config", str(cfg), "--out", str(blocker / "sub")]) == 3
