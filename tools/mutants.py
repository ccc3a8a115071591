"""Source mutants of the guarantees, each run against the tests meant to catch it.

    python3 tools/mutants.py            # every mutant in MUTANTS
    python3 tools/mutants.py NAME ...   # the named ones
    python3 tools/mutants.py --list

Each row of MUTANTS names a file under `src/`, a piece of its text that must
occur exactly once, the text that replaces it, the guarantee it breaks, and
the tests expected to fail.  The tool copies this checkout's `src/` and
`tests/` with `pyproject.toml` into a temporary directory, applies the row
there and runs the row's tests with pytest.  It prints one line per mutant:

- `killed`: every expected test failed;
- `partly killed`: some did, and the line names those that passed;
- `SURVIVED`: none did, so no named test guards the guarantee.

It exits 0 when every mutant is killed by every test expected to kill it,
1 otherwise, and 2 when a row no longer matches its file (the text is gone
or occurs more than once): a row is kept in step with the code it mutates.
It is not part of `pytest`; the checkout itself is never written.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    guarantee: str
    tests: tuple[str, ...]


_ENGINE = "tests/test_mc_engine.py::"

MUTANTS = (
    Mutant(
        "clip skipped for x-reading sets",
        "src/bspde/montecarlo.py",
        "clip = source is not None or coeffs.reads_x",
        "clip = source is not None",
        "the path oracle: coefficients that read x are read inside the box, exited paths included",
        (_ENGINE + "test_exited_paths_of_a_set_that_reads_x_are_clipped",),
    ),
    Mutant(
        "exited paths not killed",
        "src/bspde/montecarlo.py",
        "lp.active &= ~gone\n",
        "pass\n",
        "the path oracle: a path is frozen at its first exit",
        (
            _ENGINE + "test_engine_1d_constant_with_source_and_discount",
            _ENGINE + "test_exited_paths_of_a_set_that_reads_x_are_clipped",
            "tests/test_montecarlo.py::test_paths_freeze_after_exit",
        ),
    ),
    Mutant(
        "discount dropped",
        "src/bspde/montecarlo.py",
        "discount = not coeffs.lam_is_zero",
        "discount = False",
        "the path oracle: the payoff is discounted by exp(integral of lam)",
        (
            _ENGINE + "test_engine_1d_constant_with_source_and_discount",
            _ENGINE + "test_engine_2d_constant_full_diffusion",
            "tests/test_montecarlo.py::test_discount_sign_against_closed_form",
        ),
    ),
    Mutant(
        "draw rows taken with mode=clip",
        "src/bspde/montecarlo.py",
        'np.take(draws, lp.slot, axis=0, mode="wrap")',
        'np.take(draws, lp.slot, axis=0, mode="clip")',
        "the stream layout: every point's paths read the draw rows of a run of that point alone",
        (
            _ENGINE + "test_engine_1d_constant_with_source_and_discount",
            _ENGINE + "test_engine_at_the_real_batch_size",
        ),
    ),
)


def _mutated_copy(m: Mutant, d: Path) -> None:
    """Copy src/, tests/ and pyproject.toml into d and apply m there."""
    shutil.copytree(ROOT / "src", d / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", d / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", d / "pyproject.toml")
    path = d / m.file
    path.write_text(path.read_text(encoding="utf-8").replace(m.text, m.replacement), encoding="utf-8")


def _failed(m: Mutant, d: Path) -> set[str]:
    """The tests of m that fail in the mutated copy d."""
    env = {**os.environ, "PYTHONPATH": str(d / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *m.tests],
        cwd=d,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest could not run the tests of {m.name!r}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {t for t in m.tests if re.search(rf"^(FAILED|ERROR) {re.escape(t)}\b", proc.stdout, re.M)}


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.file}: {m.guarantee}")
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))} (see --list)", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    stale = [m for m in chosen if (ROOT / m.file).read_text(encoding="utf-8").count(m.text) != 1]
    for m in stale:
        print(f"{m.name}: the text to replace does not occur exactly once in {m.file}", file=sys.stderr)
    if stale:
        return 2
    status = 0
    for m in chosen:
        with tempfile.TemporaryDirectory(prefix="bspde-mutant-") as tmp:
            _mutated_copy(m, Path(tmp))
            failed = _failed(m, Path(tmp))
        passed = [t for t in m.tests if t not in failed]
        if not passed:
            print(f"killed         {m.name}: {len(failed)} of {len(m.tests)} tests fail")
            continue
        status = 1
        verdict = "SURVIVED      " if not failed else "partly killed "
        print(f"{verdict} {m.name}: still passing: {', '.join(passed)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
