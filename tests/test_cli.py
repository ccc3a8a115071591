import json
import math
from pathlib import Path

import numpy as np
import pytest

from bspde import cli
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
