"""The path engine's input checks against the checked-in fingerprints:
`mccheck` on each `MC_FAULTS` input of `tools/artifacts.py` must end with the
exit code, the stderr (by its sha256) and the artifacts that
`tools/fingerprints.jsonl` holds for it.  The commands run in this process;
the inputs are written as `artifacts.py` writes them.  The hashes depend on
numpy, scipy and the platform, so on others the test is skipped, as
`artifacts.py --check` runs nothing there."""

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
def base(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs") / "eigenmode-mc-101"
    artifacts.workloads.generate("eigenmode-mc", 101, d, ROOT)
    return d


@pytest.mark.parametrize("fault", list(artifacts.MC_FAULTS))
def test_mccheck_on_a_fault_input_matches_its_fingerprint(fingerprints, base, fault, monkeypatch, capsys):
    d = artifacts._edited(base, base.parent / f"{base.name}-{fault}", artifacts.MC_FAULTS[fault])
    monkeypatch.chdir(d)
    code = cli.main(["mccheck", "--config", "config.json", "--out", "mccheck"])
    stderr = capsys.readouterr().err.encode()
    files = sorted(p for p in Path("mccheck").rglob("*") if p.is_file())
    got = {
        "exit": code,
        "stderr": artifacts._sha256(stderr),
        "artifacts": {str(p.relative_to("mccheck")): artifacts._artifact_digest(p) for p in files},
    }
    want = fingerprints[(d.name, "mccheck")]
    assert got == {key: want[key] for key in got}, stderr.decode()
