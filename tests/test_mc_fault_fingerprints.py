"""The input checks against the checked-in fingerprints: each command on each
fault input of `tools/artifacts.py` must end with the exit code, the stderr
(by its sha256) and the artifacts that `tools/fingerprints.jsonl` holds for
it.  That is `mccheck` on each `MC_FAULTS` input (the path engine's checks),
and all seven commands on each `FAULTS` input (the config and kernel CSV
checks) and each `TK_FAULTS` input (the time kernel's checks, which evaluate
its expression).  Every one of these runs ends as its input is loaded.  The
commands run in this process; the inputs are written as `artifacts.py`
writes them.  The hashes depend on numpy, scipy and the platform, so on
others the test is skipped, as `artifacts.py --check` runs nothing there."""

import importlib.util
import json
from pathlib import Path

import pytest

from bspde import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("artifacts", ROOT / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)


@pytest.fixture(scope="module")
def fingerprints():
    """(input, command) -> the checked-in runs.jsonl line; skips the module
    when the fingerprints were made with other versions or on another machine."""
    head, *lines = artifacts.FINGERPRINTS.read_text(encoding="utf-8").splitlines()
    if json.loads(head) != artifacts._versions():
        pytest.skip(f"{artifacts.FINGERPRINTS.name} was made with {head}, this is {artifacts._versions()}")
    return {(run["input"], run["command"]): run for run in map(json.loads, lines)}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """workload -> the directory of its seed-101 input."""
    top = tmp_path_factory.mktemp("inputs")
    dirs = {}
    for workload in ("picard-1d", "eigenmode-mc", "grid-2d"):
        dirs[workload] = top / f"{workload}-101"
        artifacts.workloads.generate(workload, 101, dirs[workload], ROOT)
    return dirs


def _run(d: Path, command: str, monkeypatch, capsys) -> dict:
    """The runs.jsonl fields of `command` run in d, but its input name."""
    monkeypatch.chdir(d)
    code = cli.main([command, "--config", "config.json", "--out", command])
    stderr = capsys.readouterr().err.encode()
    files = sorted(p for p in Path(command).rglob("*") if p.is_file())
    return {
        "exit": code,
        "stderr": artifacts._sha256(stderr),
        "artifacts": {str(p.relative_to(command)): artifacts._artifact_digest(p) for p in files},
    }


def _assert_matches(fingerprints, d: Path, commands, monkeypatch, capsys):
    got = {command: _run(d, command, monkeypatch, capsys) for command in commands}
    want = {command: {key: fingerprints[(d.name, command)][key] for key in got[command]} for command in commands}
    assert got == want


@pytest.mark.parametrize("fault", list(artifacts.MC_FAULTS))
def test_mccheck_on_a_fault_input_matches_its_fingerprint(fingerprints, inputs, fault, monkeypatch, capsys):
    base = inputs["eigenmode-mc"]
    d = artifacts._edited(base, base.parent / f"{base.name}-{fault}", artifacts.MC_FAULTS[fault])
    _assert_matches(fingerprints, d, ["mccheck"], monkeypatch, capsys)


@pytest.mark.parametrize("fault", list(artifacts.FAULTS))
def test_every_command_on_a_config_fault_input_matches_its_fingerprint(fingerprints, inputs, fault, monkeypatch, capsys):
    base = inputs["picard-1d"]
    d = artifacts._fault(base, base.parent / f"{base.name}-{fault}", artifacts.FAULTS[fault])
    _assert_matches(fingerprints, d, artifacts.COMMANDS, monkeypatch, capsys)


@pytest.mark.parametrize("fault", list(artifacts.TK_FAULTS))
def test_every_command_on_a_time_kernel_fault_input_matches_its_fingerprint(fingerprints, inputs, fault, monkeypatch, capsys):
    base = inputs["grid-2d"]
    d = artifacts._edited(base, base.parent / f"{base.name}-{fault}", artifacts.TK_FAULTS[fault])
    _assert_matches(fingerprints, d, artifacts.COMMANDS, monkeypatch, capsys)
