import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bspde import CoefficientSet, Domain, cli, coefficients, make_grid, stepper
from bspde import grid as grid_module
from bspde.cli import main
from bspde.exprdsl import bind, parse

from conftest import validate_spec

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
        (
            "gamma",
            {"type": "time_kernel", "theta": 0.5, "kernel": [[0.0, 0.1], [0.5, True]]},
            "gamma.kernel[1][1]: must be a number, got True",
        ),
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
        ({"data": {"terminal": "0^(-1)"}}, "data.terminal: evaluates to a non-finite value"),
        ({"data": {"terminal": "10^400"}}, "data.terminal: evaluates to a non-finite value"),
        ({"gamma": {"type": "time_kernel", "theta": 0.5, "kernel": True}}, "gamma.kernel: must be a number or an expression, got True"),
        ({"gamma": {"type": "time_kernel", "theta": 0.5, "kernel": "1.5*exp(-t"}}, "gamma.kernel: expected ')'"),
        ({"gamma": {"type": "time_kernel", "theta": 0.5, "kernel": "x1"}}, "gamma.kernel: unbound identifier 'x1'"),
        (
            {"gamma": {"type": "convex", "weights": [1.0], "parts": [{"type": "time_kernel", "theta": 0.5, "kernel": "x"}]}},
            "gamma.parts[0].kernel: unbound identifier 'x'",
        ),
        (
            {"gamma": {"type": "time_kernel", "theta": 0.9, "kernel": "exp(1000*t)"}},
            "gamma.kernel: time kernel k(0.72) = inf is not finite",
        ),
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
    assert loaded.cauchy.source.values[3] == pytest.approx(loaded.grid.axis_coords(0) * loaded.grid.dt * 3)


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
        (
            {"gamma": {"type": "time_kernel", "theta": 0.5, "kernel": [[0.0, 0.1], [0.5]]}},
            "gamma.kernel[1]: a sampled time kernel must be a sequence of (time, value) pairs, got [0.5]",
        ),
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
        (
            {"gamma": {"type": "time_kernel", "theta": 0.5, "kernel": [[math.nan, 0.1], [0.5, 0.2]]}},
            "gamma.kernel[0][0]: a sample time must be finite, got nan",
        ),
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
    "gamma, message",
    [
        (
            {"type": "time_kernel", "theta": -0.1, "kernel": 1.0},
            "invalid configuration: gamma.theta: theta = -0.1 lies outside [0, 1.0]",
        ),
        ({"type": "point_in_time", "weight": 0.5, "t1": 1.5}, "invalid configuration: gamma.t1: t1 = 1.5 lies outside [0, 1.0]"),
        (
            {"type": "two_point", "weight1": 0.5, "t1": 0.25, "weight2": 0.25, "t2": -0.1},
            "invalid configuration: gamma.t2: t2 = -0.1 lies outside [0, 1.0]",
        ),
        (
            {"type": "space_time_kernel", "theta": -0.1, "csv": "kern.csv"},
            "invalid configuration: gamma.theta: theta = -0.1 lies outside [0, 1.0]",
        ),
        (
            {"type": "space_time_kernel", "theta": 1.0, "csv": "kern.csv"},
            "invalid configuration: gamma.theta: theta = 1.0 snaps to the terminal level",
        ),
        (
            {"type": "convex", "weights": [0.5], "parts": [{"type": "space_time_kernel", "theta": 1.5, "csv": "kern.csv"}]},
            "invalid configuration: gamma.parts[0].theta: theta = 1.5 lies outside [0, 1.0]",
        ),
        (
            {"type": "convex", "weights": [0.5, 0.5], "parts": [{"type": "initial_value", "weight": 0.5}, {"type": "point_in_time", "weight": 1.5, "t1": 0.5}]},
            "invalid configuration: gamma.parts[1]: |weight| = 1.5 exceeds 1",
        ),
        (
            {"type": "time_kernel", "theta": 0.5, "kernel": "sqrt(t - 2)"},
            "invalid configuration: gamma.kernel: sqrt of a negative value",
        ),
        (
            {"type": "convex", "weights": [0.5, 0.5], "parts": [{"type": "initial_value", "weight": 0.5}, {"type": "time_kernel", "theta": 0.5, "kernel": "sqrt(t - 2)"}]},
            "invalid configuration: gamma.parts[1].kernel: sqrt of a negative value",
        ),
    ],
)
def test_a_coupling_time_out_of_range_names_its_entry(tmp_path, capsys, gamma, message):
    (tmp_path / "kern.csv").write_text("t,x1,y1,k\n0.0,0.25,0.5,1.0\n")
    cfg = write_config(tmp_path / "c.json", grid={"nx": [5], "nt": 4, "T": 1.0}, gamma=gamma)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"bspde: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["config", "csv"])
def test_a_config_or_kernel_csv_that_is_not_utf8_is_an_io_error(tmp_path, capsys, which):
    kernel = b"t,x1,y1,k\n0.0,0.25,0.5,1.0\n" + (b"0.0,0.5,0.5,\xff\n" if which == "csv" else b"")
    (tmp_path / "kern.csv").write_bytes(kernel)
    gamma = {"type": "space_time_kernel", "theta": 0.5, "csv": "kern.csv"}
    cfg = write_config(tmp_path / "c.json", grid={"nx": [5], "nt": 4, "T": 1.0}, gamma=gamma)
    if which == "config":
        cfg.write_bytes(b'{"domain": \xff}')
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "bspde: i/o error: 'utf-8' codec can't decode byte 0xff" in err
    assert err.rstrip().endswith(f"invalid start byte in {cfg if which == 'config' else tmp_path / 'kern.csv'}")


def test_a_non_utf8_byte_past_the_kernel_csv_header_block_is_an_io_error(tmp_path, capsys):
    # 1000 rows put the byte past the first block the header read decodes, so the row parser meets it
    rows = b"0.0,0.25,0.5,1.0\n" * 1000
    (tmp_path / "k.csv").write_bytes(b"t,x1,y1,k\n" + rows + b"0.0,0.5,0.5,\xff\n")
    gamma = {"type": "space_time_kernel", "theta": 0.5, "csv": "k.csv"}
    cfg = write_config(tmp_path / "c.json", grid={"nx": [5], "nt": 4, "T": 1.0}, gamma=gamma)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "bspde: i/o error: 'utf-8' codec can't decode byte 0xff" in err
    assert err.rstrip().endswith(f"invalid start byte in {tmp_path / 'k.csv'}")


KERNEL_ROWS = ["0.0,0.25,0.5,1.0", "0.25,0.5,0.75,0.5", "0.0,0.75,0.25,0.25"]
KERNEL_GAMMA = {"type": "space_time_kernel", "theta": 0.5, "csv": "kern.csv"}


def _kernel_config(tmp_path: Path, text: str | bytes) -> Path:
    """A 5-node, nt = 4 config coupled by the space-time kernel CSV `text`."""
    kern = tmp_path / "kern.csv"
    kern.write_bytes(text.encode() if isinstance(text, str) else text)
    return write_config(tmp_path / "c.json", grid={"nx": [5], "nt": 4, "T": 1.0}, gamma=KERNEL_GAMMA)


def _loaded_kernel(cfg: Path):
    return cli.load_config(str(cfg)).problem.spec.kernel


def test_two_loads_of_a_kernel_csv_share_one_reading(tmp_path):
    cfg = _kernel_config(tmp_path, "t,x1,y1,k\n" + "\n".join(KERNEL_ROWS) + "\n")
    first = _loaded_kernel(cfg)
    second = _loaded_kernel(cfg)
    assert second is first
    assert (cli._kernel.cache_info().hits, cli._kernel.cache_info().misses) == (1, 1)
    assert [a.tolist() for a in first] == [[0, 0, 1], [0, 1, 2], [2, 0, 1], [0.25, 1.0, 0.5]]


def test_a_kernel_csv_rewritten_with_the_same_length_is_read_again(tmp_path):
    cfg = _kernel_config(tmp_path, "t,x1,y1,k\n0.0,0.25,0.5,1.0\n")
    assert _loaded_kernel(cfg).value.tolist() == [1.0]
    (tmp_path / "kern.csv").write_text("t,x1,y1,k\n0.0,0.25,0.5,0.5\n")
    assert _loaded_kernel(cfg).value.tolist() == [0.5]
    assert cli._kernel.cache_info().misses == 2


def test_the_arrays_of_a_loaded_kernel_are_read_only(tmp_path):
    kernel = _loaded_kernel(_kernel_config(tmp_path, "t,x1,y1,k\n0.0,0.25,0.5,1.0\n"))
    for a in kernel:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize(
    "text, code, message",
    [
        (
            "t,x1,y1,k\n0.0,0.25,0.5,1.0\nabc,0.25,0.5,1.0\n",
            1,
            "bspde: invalid configuration: gamma.csv: kernel CSV line 3: could not convert string to float: 'abc'\n",
        ),
        (b"t,x1,y1,k\n0.0,0.25,0.5,1.0\n0.0,0.5,0.5,\xff\n", 3, "invalid start byte in {kern}\n"),
    ],
    ids=["faulty-row", "not-utf8"],
)
def test_a_faulty_kernel_csv_fails_every_load_alike(tmp_path, capsys, text, code, message):
    cfg = _kernel_config(tmp_path, text)
    message = message.format(kern=tmp_path / "kern.csv")
    errors = []
    for _ in range(2):
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].endswith(message)
    assert cli._kernel.cache_info().currsize == 0


def test_a_kernel_csv_reads_the_same_with_lf_crlf_or_cr_line_ends(tmp_path):
    """The file is read with universal newlines: CRLF and a lone CR end a
    line as LF does, whether the reading is fresh or the cached one."""
    lines = ["t,x1,y1,k", *KERNEL_ROWS[:2], "", KERNEL_ROWS[2], ""]
    expected = None
    for end in ("\n", "\r\n", "\r"):
        cli._kernel.cache_clear()
        cfg = _kernel_config(tmp_path, end.join(lines))
        cold, warm = _loaded_kernel(cfg), _loaded_kernel(cfg)
        assert cli._kernel.cache_info().misses == 1 and warm is cold
        expected = expected or [a.tolist() for a in cold]
        assert [a.tolist() for a in cold] == expected
    assert expected[3] == [0.25, 1.0, 0.5]


def test_commands_write_the_same_bytes_from_a_cached_kernel_as_from_a_fresh_one(tmp_path):
    """solve then qmatrix in one process on a space-time kernel: once with the
    kernel read afresh for every load, once with every load served the cached
    reading; every output but the timing is the same to the byte."""
    xs, rows = [0.125 * i for i in range(1, 8)], []
    for level in range(5):
        for iy, y in enumerate(xs):
            for ix, x in enumerate(xs):
                rows.append(f"{0.125 * level!r},{x!r},{y!r},{1.0 + 0.1 * ((7 * level + 3 * iy + ix) % 5)!r}")
    (tmp_path / "kern.csv").write_text("t,x1,y1,k\n" + "\n".join(rows) + "\n")
    cfg = write_config(
        tmp_path / "c.json",
        grid={"nx": [9], "nt": 8, "T": 1.0},
        gamma=KERNEL_GAMMA,
        data={"terminal": "x*(1-x)", "source": "0.5*x"},
    )

    def outputs(out: Path, cached: bool) -> dict:
        cli._kernel.cache_clear()
        if cached:
            cli.load_config(str(cfg))
        found = {}
        for name in ("solve", "qmatrix"):
            if not cached:
                cli._kernel.cache_clear()
            assert main([name, "--config", str(cfg), "--out", str(out / name)]) == 0
            for p in (out / name).iterdir():
                found[name, p.name] = re.sub(rb'\n  "timing_seconds": [^\n]*', b"", p.read_bytes())
        assert cli._kernel.cache_info().hits == (2 if cached else 0)
        return found

    fresh = outputs(tmp_path / "fresh", cached=False)
    assert set(fresh) == {("solve", "solution.csv"), ("solve", "report.json"), ("qmatrix", "qmatrix.csv"), ("qmatrix", "report.json")}
    assert b"timing_seconds" not in fresh["solve", "report.json"]
    assert outputs(tmp_path / "cached", cached=True) == fresh


def test_a_one_row_kernel_csv_on_a_2d_grid_loads_and_validates_in_little_memory(tmp_path):
    """The kernel is held as the entries its CSV sets: one row on 33 x 33
    nodes with nt = 40 and theta = 0.5, where a dense (levels, n, n) kernel
    would be 21 x 961 x 961 doubles (155 MB), traces a peak under 16 MB."""
    (tmp_path / "kern.csv").write_text("t,x1,x2,y1,y2,k\n0.0,0.5,0.5,0.25,0.25,1.0\n")
    cfg = write_config(
        tmp_path / "c.json",
        domain={"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        grid={"nx": [33, 33], "nt": 40, "T": 1.0},
        coefficients={"b": 0.1},
        gamma={"type": "space_time_kernel", "theta": 0.5, "csv": "kern.csv"},
        data={"terminal": "x1*x2"},
        montecarlo=None,
    )
    tracemalloc.start()
    try:
        loaded = cli.load_config(str(cfg))
        report = validate_spec(loaded.problem.spec, loaded.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.norm_bound == 0.5 * (1 / 40) / 32**2
    assert peak < 16 * 2**20


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
    # r is near 1e308 and the fixed point r / (1 - about 0.99) is beyond it: no numpy warning on the way
    gamma = {"type": "initial_value", "weight": 0.99}
    cfg = write_config(tmp_path / "c.json", gamma=gamma, coefficients={"b": 0.01}, data={"terminal": 0.0, "source": 1e308})
    for command in ("solve", "qmatrix"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "validation failed: the non-local solution overflows: the data are too large" in capsys.readouterr().err


def test_an_rhs_that_overflows_from_finite_data_is_a_validation_failure(tmp_path, capsys):
    # the first step's rhs 1.7e308 + dt*1e308 overflows; it is reported without a numpy warning or a traceback
    data = {"terminal": 1.7e308, "source": 1e308}
    cfg = write_config(tmp_path / "c.json", gamma=None, grid={"nx": [9], "nt": 2, "T": 1.0}, coefficients={"b": 0.1}, data=data)
    assert main(["cauchy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "bspde: validation failed: a backward step from finite data overflows: the data are too large\n"


@pytest.mark.parametrize(
    "coefficients,name",
    [
        ({"b": "exp(1000)"}, "b"),
        ({"b": 0.1, "f": ["exp(1000)"]}, "f"),
        ({"b": 0.1, "lam": "-exp(1000)"}, "lam"),
        ({"b": 0.1, "beta": [["exp(1000)*x*(1 - x)"]]}, "beta"),
        ({"b": "10^400"}, "b"),
        ({"b": 0.1, "lam": "0^(-1)"}, "lam"),
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


def test_an_empty_sampled_time_kernel_names_its_entry(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", gamma={"type": "time_kernel", "theta": 0.5, "kernel": []})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    message = "gamma.kernel: a sampled time kernel must be a sequence of (time, value) pairs, got []"
    assert f"bspde: invalid configuration: {message}" in capsys.readouterr().err


def test_qmatrix_without_gamma_is_a_validation_failure(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", gamma=None)
    assert main(["qmatrix", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "bspde: validation failed: qmatrix requires a gamma section in the config" in capsys.readouterr().err


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
    [
        ([[0.5]], "montecarlo.points[0]"),
        ([[0.5, 0.0, 7.0]], "montecarlo.points[0]"),
        (5, "montecarlo.points"),
        ([[0.5, 10**400]], "montecarlo.points[0]"),  # an integer beyond the double range
    ],
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


@pytest.mark.parametrize(
    "mc", [{"dt_mc": 1e-12, "n_paths": 100}, {"dt_mc": 1e-3, "n_paths": 1e15}], ids=["dt_mc", "n_paths"]
)
def test_a_path_run_beyond_the_work_limit_is_a_validation_failure(tmp_path, mc):
    # in a process of its own with a timeout: without the limit the first run
    # takes about 1e14 path steps and the second asks numpy for 7 PiB
    cfg = write_config(tmp_path / "c.json", montecarlo={"seed": 7, "points": [[0.5, 0.0]], **mc})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    args = [sys.executable, "-m", "bspde.cli", "mccheck", "--config", str(cfg), "--out", str(tmp_path / "o")]
    proc = subprocess.run(args, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "validation failed: 1 montecarlo.points x montecarlo.n_paths" in proc.stderr
    assert "path steps, more than the limit of 1e+11" in proc.stderr


def test_path_values_beyond_the_memory_limit_are_a_validation_failure(tmp_path, capsys):
    # a start at s = T takes no steps, so the work limit passes, but the
    # (points, n_paths) values of 1e17 paths would take 711 PiB
    cfg = write_config(tmp_path / "c.json", montecarlo={"seed": 7, "points": [[0.5, 1.0]], "n_paths": 10**17})
    assert main(["mccheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "validation failed: 1 montecarlo.points x montecarlo.n_paths = 100000000000000000 ask to hold 1e+17 path values" in err
    assert "more than the limit of 2.68e+08" in err


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


def _not_json(constant):
    raise ValueError(f"report.json holds {constant}, which JSON has no number for")


def read_strict_report(outdir: Path) -> dict:
    return json.loads((outdir / "report.json").read_text(), parse_constant=_not_json)


def test_a_max_principle_bound_that_overflows_has_no_slack(tmp_path):
    # sup|terminal| + T sup|source| = 2e308 overflows, while the solution stays below 1.8e308
    data = {"terminal": 1e308, "source": 1e308}
    cfg = write_config(tmp_path / "c.json", grid={"nx": [9], "nt": 1000, "T": 1.0}, data=data, gamma=None)
    out = tmp_path / "o"
    assert main(["cauchy", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read_strict_report(out)
    assert rep["diagnostics"]["max_principle_slack"] is None
    assert 1e308 <= rep["norms"]["sup_u"] < math.inf


def test_converge_on_zero_data_has_no_order(tmp_path):
    cfg = write_config(tmp_path / "c.json", grid={"nx": [9], "nt": 10, "T": 1.0}, data={"terminal": 0.0}, gamma=None)
    out = tmp_path / "o"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_strict_report(out)["converge"] == {"diff_coarse": 0.0, "diff_fine": 0.0, "order": None}
    assert (out / "converge.csv").read_text().splitlines()[1] == "9,0.125,0.0,"


def test_a_non_finite_config_number_is_echoed_as_its_repr(tmp_path):
    mc = {"dt_mc": math.inf, "n_paths": 500, "points": [[math.nan, 0.0]]}
    cfg = write_config(tmp_path / "c.json", montecarlo=mc)
    out = tmp_path / "o"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_strict_report(out)["config"]["montecarlo"] == {"dt_mc": "inf", "n_paths": 500, "points": [["nan", 0.0]]}


def test_qmatrix_compiles_the_coupling_only_while_loading(tmp_path, monkeypatch):
    from bspde import fixedpoint, nonlocal_ops

    parts = [{"type": "initial_value", "weight": 0.5}, {"type": "point_in_time", "weight": 0.5, "t1": 0.5}]
    gamma = {"type": "convex", "weights": [0.5, 0.5], "parts": parts}
    cfg = write_config(tmp_path / "c.json", grid={"nx": [11], "nt": 20, "T": 1.0}, gamma=gamma, data={"source": "x"})
    loading, compiles = [], []
    real_compile, real_load = nonlocal_ops._compile, cli.load_config

    def compile_(spec, grid):
        compiles.append(bool(loading))
        return real_compile(spec, grid)

    def load(*args, **kwargs):
        loading.append(True)
        try:
            return real_load(*args, **kwargs)
        finally:
            loading.pop()

    for module in (fixedpoint, nonlocal_ops):
        monkeypatch.setattr(module, "_compile", compile_)
    monkeypatch.setattr(cli, "load_config", load)
    assert main(["qmatrix", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert compiles and all(compiles)


@pytest.mark.parametrize(
    "gamma,compiles",
    [
        (
            {"type": "convex", "weights": [0.5, 0.5], "parts": [{"type": "initial_value", "weight": 0.5}, {"type": "point_in_time", "weight": 0.5, "t1": 0.5}]},
            3,
        ),
        ({"type": "point_in_time", "weight": 0.5, "t1": 0.5}, 1),
    ],
    ids=["convex", "single"],
)
def test_validate_compiles_the_coupling_once(tmp_path, monkeypatch, gamma, compiles):
    # one compile of the whole coupling, which compiles each convex part once
    from bspde import fixedpoint, nonlocal_ops

    specs, real_compile = [], nonlocal_ops._compile

    def compile_(spec, grid):
        specs.append(spec)
        return real_compile(spec, grid)

    for module in (fixedpoint, nonlocal_ops):
        monkeypatch.setattr(module, "_compile", compile_)
    cfg = write_config(tmp_path / "c.json", gamma=gamma)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(specs) == compiles


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


@pytest.mark.parametrize("k, shown", [("nan", "nan"), ("1e400", "inf")])
def test_kernel_csv_non_finite_k_names_its_line_at_load(tmp_path, capsys, k, shown):
    (tmp_path / "kern.csv").write_text(f"t,x1,y1,k\n0.0,0.25,0.5,1.0\n0.0,0.25,0.5,{k}\n")
    cfg = write_config(
        tmp_path / "c.json",
        grid={"nx": [5], "nt": 4, "T": 1.0},
        gamma={"type": "space_time_kernel", "theta": 0.5, "csv": "kern.csv"},
    )
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"bspde: invalid configuration: gamma.csv: kernel CSV line 3: k = {shown} is not finite" in err


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


@pytest.mark.parametrize(
    "domain,grid,beta,terminal",
    [
        ({"lo": [1e6], "hi": [1e6 + 1]}, {"nx": [21], "nt": 20, "T": 1.0}, [["0.5*(x-1000000)*(1000001-x)"]], f"sin({PI}*(x-1000000))"),
        (
            {"lo": [1e6, 0.0], "hi": [1e6 + 1, 1.0]},
            {"nx": [9, 11], "nt": 10, "T": 1.0},
            [["2*(x1-1000000)*(1000001-x1)*x2*(1-x2)", 0.0]],
            f"sin({PI}*(x1-1000000))*sin({PI}*x2)",
        ),
    ],
    ids=["1d", "2d"],
)
def test_validate_accepts_beta_that_vanishes_on_the_walls_of_an_offset_box(tmp_path, capsys, domain, grid, beta, terminal):
    cfg = write_config(
        tmp_path / "c.json",
        domain=domain,
        grid=grid,
        coefficients={"b": 0.1, "beta": beta},
        data={"terminal": terminal},
        montecarlo=None,
    )
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0, capsys.readouterr().err
    # the terminal data has no t, in 2-D as in 1-D
    cfg = write_config(tmp_path / "c.json", domain=domain, grid=grid, coefficients={"b": 0.1}, data={"terminal": "x1*t"}, montecarlo=None)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "invalid configuration: data.terminal: unbound identifier 't'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "samples", [[[0.0, 0.1], [0.0, 0.9], [0.5, 0.9]], [[0.0, 0.9], [0.0, 0.1], [0.5, 0.9]]], ids=["first", "swapped"]
)
def test_time_kernel_samples_at_one_time_are_a_validation_failure(tmp_path, capsys, samples):
    cfg = write_config(tmp_path / "c.json", gamma={"type": "time_kernel", "theta": 0.5, "kernel": samples})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"invalid configuration: gamma.kernel: sampled time kernel: samples 0 {samples[0]} and 1 {samples[1]} share a time" in err


@pytest.mark.parametrize("path", [("gamma",), ("coefficients", "f"), ("data", "source")], ids=".".join)
def test_a_null_gamma_f_or_source_loads_as_absent(tmp_path, path):
    def run(null: bool):
        raw = json.loads(write_config(tmp_path / "c.json", grid={"nx": [9], "nt": 10, "T": 1.0}).read_text())
        node = raw
        for key in path[:-1]:
            node = node[key]
        if null:
            node[path[-1]] = None
        else:
            del node[path[-1]]
        (tmp_path / "c.json").write_text(json.dumps(raw))
        out = tmp_path / f"o-{null}"
        assert main(["cauchy", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
        report = read_report(out)
        report.pop("timing_seconds"), report.pop("config")
        return report, (out / "solution.csv").read_bytes()

    assert run(null=True) == run(null=False)


CONVEX_PART_T1 = {"type": "convex", "weights": [1.0], "parts": [{"type": "initial_value", "weight": 0.5, "t1": 0.2}]}


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"solver": {"method": "picard"}}, "solver: unknown entry"),
        ({"fixedpoint": {"tolerance": 1e-3}}, "fixedpoint.tolerance: unknown entry (did you mean 'tol'?)"),
        ({"montecarlo": {"npaths": 100}}, "montecarlo.npaths: unknown entry (did you mean 'n_paths'?)"),
        ({"grid": {"nx": [41], "NT": 50, "T": 1.0}}, "grid.NT: unknown entry (did you mean 'nt'?)"),
        ({"output": {"directory": "out"}}, "output.directory: unknown entry (did you mean 'dir'?)"),
        ({"gamma": {"type": "initial_value", "weight": 0.5, "t1": 0.2}}, "gamma.t1: unknown entry"),
        ({"gamma": {"type": "point_in_time", "weigth": 0.5, "t1": 0.2}}, "gamma.weigth: unknown entry (did you mean 'weight'?)"),
        ({"gamma": {"weight": 0.5, "tpye": "initial_value"}}, "gamma.tpye: unknown entry (did you mean 'type'?)"),
        ({"gamma": {"type": "initial_valu", "weight": 0.5}}, "gamma.type: unknown gamma type 'initial_valu'"),
        ({"gamma": CONVEX_PART_T1}, "gamma.parts[0].t1: unknown entry"),
    ],
)
def test_an_unknown_entry_or_type_names_its_dotted_path(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path / "c.json", **overrides)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"bspde: invalid configuration: {message}\n"


def test_the_misspelt_roadmap_config_names_each_unknown_entry_in_turn(tmp_path, capsys):
    # the shipped config with misspelt keys and an extra section: the first
    # unknown entry in table order is reported; deleting it shows the next
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "eigenmode.json").read_text())
    raw["fixedpoint"] = {"tolerance": 1e-3, "max_iters": 3}
    raw["grid"]["NT"] = 5
    raw["montecarlo"]["npaths"] = 100
    raw["gamma"]["t1"] = 0.5
    raw["fixed_point"] = {"method": "gmres"}
    expected = [
        (("fixed_point",), "fixedpoint"),
        (("grid", "NT"), "nt"),
        (("fixedpoint", "tolerance"), "tol"),
        (("fixedpoint", "max_iters"), "max_iter"),
        (("montecarlo", "npaths"), "n_paths"),
        (("gamma", "t1"), None),  # read once the grid is built
    ]
    cfg = tmp_path / "c.json"
    for path, hint in expected:
        cfg.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        message = f"{'.'.join(path)}: unknown entry" + (f" (did you mean '{hint}'?)" if hint else "")
        assert capsys.readouterr().err == f"bspde: invalid configuration: {message}\n"
        node = raw
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    cfg.write_text(json.dumps(raw))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_the_seed_entry_is_read_under_a_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", montecarlo={"dt_mc": 0.01, "n_paths": 500, "seed": "a"})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "3"]) == 1
    assert "invalid configuration: montecarlo.seed: must be an integer, got 'a'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--config", "c.json", "--seed", "abc"], "argument --seed: must be a non-negative integer, got 'abc'"),
        (["validate", "--config", "c.json", "--seed", "-1"], "argument --seed: must be a non-negative integer, got '-1'"),
        (["validate", "--config", "c.json", "--seed", "2.0"], "argument --seed: must be a non-negative integer, got '2.0'"),
        (["nope", "--config", "c.json"], "argument command: invalid choice: 'nope'"),
        (["validate", "--out", "o"], "the following arguments are required: --config"),
        (["validate", "--config"], "argument --config: expected one argument"),
    ],
)
def test_a_command_line_fault_exits_1_and_names_its_argument(tmp_path, monkeypatch, capsys, argv, message):
    """Exit code 2 is non-convergence: a fault of the command line exits 1, as
    one of the config does, and --seed is named, not the config's seed."""
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "c.json", montecarlo={"dt_mc": 0.01, "n_paths": 500, "seed": 7})
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"bspde: error: {message}" in err and "montecarlo" not in err
    assert not (tmp_path / "o").exists()


def test_help_exits_0(capsys):
    assert main(["-h"]) == 0
    assert "--seed" in capsys.readouterr().out


def test_a_grid_too_large_for_a_solve_fails_before_any_data_is_sampled(tmp_path, capsys, monkeypatch):
    def sampled(*args):
        pytest.fail("data was sampled")

    monkeypatch.setattr(cli, "_sample_space", sampled)
    cfg = write_config(tmp_path / "c.json", grid={"nx": [2**20], "nt": 4096, "T": 1.0})
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration: grid: nx = [1048576] and nt = 4096 ask a solve to hold 4.3e+09 doubles" in err


def test_converge_fails_on_a_refined_grid_too_large_before_any_solve(tmp_path, capsys, monkeypatch):
    # 200 nodes at nt = 2**20 hold 2.1e8 doubles, under the limit; 399 nodes hold 4.2e8
    def solved(*args, **kwargs):
        pytest.fail("a solve ran")

    monkeypatch.setattr(cli, "solve_terminal", solved)
    cfg = write_config(tmp_path / "c.json", grid={"nx": [200], "nt": 2**20, "T": 1.0}, gamma=None)
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "validation failed: nx = [399] and nt = 1048576 ask a solve to hold 4.18e+08 doubles" in err


@pytest.mark.parametrize("t_dependent, code", [(True, 1), (False, 0)])
def test_a_level_store_over_the_size_limit_is_a_validation_failure(tmp_path, capsys, monkeypatch, t_dependent, code):
    # 33 x 33 at nt = 40: the solution and a factor hold 137,866 doubles, and the level store
    # 40 slots x 5 bands x 961 nodes with a b that reads t, or 1 slot without
    monkeypatch.setattr(grid_module, "MAX_SOLVE_DOUBLES", 200_000)
    b = ["0.1 + 0.05*sin(3*t)" if t_dependent else 0.1, 0.08]
    cfg = write_config(
        tmp_path / "c.json",
        domain={"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        grid={"nx": [33, 33], "nt": 40, "T": 1.0},
        coefficients={"b": b},
        data={"terminal": "x1*(1 - x1)*x2*(1 - x2)"},
        gamma=None,
        montecarlo={"points": []},
    )
    assert main(["cauchy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if t_dependent:
        assert err == (
            "bspde: validation failed: nx = [33, 33] and nt = 40 ask a solve to hold 3.3e+05 doubles, "
            "1.92e+05 of them in the level store, more than the limit of 2e+05\n"
        )


def _reference_source(g, text):
    """The source sampled one level at a time, at its t, one number."""
    e = parse(text)
    return np.stack([np.asarray(e.eval(bind(g.mesh(), t)), dtype=float) * np.ones(g.interior_shape) for t in g.times()])


SAMPLED_GRIDS = {
    "2d-chunks": make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 33, 40, 1.0),  # 961 nodes: 5 chunks of 8 levels and 1
    "1d-chunks": make_grid(Domain((0.0,), (1.0,)), 2049, 10, 1.0),  # 2047 nodes: 4, 4 and 3 levels
    "1d-one-chunk": make_grid(Domain((0.0,), (1.0,)), 201, 10, 1.0),  # 199 nodes: the 11 levels together
}


@pytest.mark.parametrize("grid_name", ["2d-chunks", "1d-chunks"])
@pytest.mark.parametrize("source", ["x1*(1-x1)*exp(-t)*sin(3*x1)", "exp(-t)", "2.5", "(1 + t)^3*x1 + x1^t"])
def test_the_source_is_sampled_bit_for_bit_as_level_by_level(grid_name, source):
    g = SAMPLED_GRIDS[grid_name]
    data = {"terminal": parse("x1"), "source": parse(source)}
    sampled = cli._sample_data(g, CoefficientSet.create(g.dim, b=0.1), data).source.values
    assert sampled.tobytes() == _reference_source(g, source).tobytes()


def test_the_source_sampler_takes_a_power_of_t_a_chunk_of_levels_at_a_time(monkeypatch):
    calls = []
    real = cli._sample_space

    def spy(grid, e, path, times=None):
        calls.append(None if times is None else len(times))
        return real(grid, e, path, times)

    monkeypatch.setattr(cli, "_sample_space", spy)
    data = {"terminal": parse("x1"), "source": parse("x1*(1-x1)*x2*(1-x2)*(1 + t)^3")}
    cli._sample_data(SAMPLED_GRIDS["2d-chunks"], CoefficientSet.create(2, b=0.1), data)
    assert calls == [None, 8, 8, 8, 8, 8, 1]  # the terminal data, then 8192 // 961 = 8 levels per chunk


@pytest.mark.parametrize(
    "source, message",
    [
        # not finite at t = 0.5 alone
        ("exp(1e5*(0.01 - (t - 0.5)*(t - 0.5)))", "data.source: evaluates to a non-finite value at t = 0.5"),
        # not finite at t = 0.3, and a division by zero from t = 0.5 on, in the one chunk
        ("exp(1e5*(0.01 - (t - 0.3)*(t - 0.3))) + 1/max(0.45 - t, 0)", "data.source: evaluates to a non-finite value at t = 0.3"),
        ("1/max(0.45 - t, 0) + exp(1e5*(0.01 - (t - 0.8)*(t - 0.8)))", "data.source: division by zero"),
    ],
    ids=["one-bad-level", "bad-level-then-division-by-zero", "division-by-zero-then-bad-level"],
)
def test_the_source_sampler_reports_the_first_level_that_fails(source, message):
    g = SAMPLED_GRIDS["1d-one-chunk"]
    with pytest.raises(cli.ConfigError, match=f"^{re.escape(message)}$"):
        cli._sample_data(g, CoefficientSet.create(1, b=0.1), {"terminal": parse("x"), "source": parse(source)})


def test_the_readme_table_lists_every_config_entry_with_its_default():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split("| entry | kind | default |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0].splitlines()
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]

    def default(cell):
        return cli._REQUIRED if cell == "required" else None if cell.startswith("none") else json.loads(cell.strip("`"))

    readme = [(name.strip("`"), default(cell)) for name, _, cell in cells]
    table = []
    for section, entries in cli._CONFIG.items():
        if isinstance(entries, dict):
            table += [(f"{section}.{key}", value) for key, (_, value) in entries.items()]
        else:
            table += [(section, entries[1])] + [(f"gamma.{key}", value) for key, (_, value) in cli._TYPE.items()]
            for kind, (_, kind_entries) in cli._GAMMA.items():
                table += [(f"gamma.{kind}.{key}", value) for key, (_, value) in kind_entries.items()]
    assert readme == table
