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
_STEPPER = "tests/test_stepper.py::"
_SURVEY = "tests/test_coefficients.py::"
_SOURCE = "tests/test_cli.py::test_the_source_is_sampled_bit_for_bit_as_level_by_level"

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
    Mutant(
        "shared step values ignore t",
        "src/bspde/montecarlo.py",
        "reads_t = coeffs.is_time_dependent",
        "reads_t = False",
        "the path oracle: a set that reads t but no position is stepped with the values at each step's own time",
        (
            _ENGINE + "test_step_values_shared_in_t_change_no_bit[1d source]",
            _ENGINE + "test_step_values_shared_in_t_change_no_bit[2d no source]",
            _ENGINE + "test_step_values_are_evaluated_once_per_what_they_read[1e-3*(1 + t)-step time-128+72]",
            _ENGINE + "test_entries_kept_as_single_values_change_no_bit[1d in t-all-source]",
        ),
    ),
    Mutant(
        "short last batch reads the buffer of the batch before it",
        "src/bspde/montecarlo.py",
        "draws = bufs[j % 3]",
        "draws = batches[0][2][j % 3]",
        "the stream layout: a short last batch stepped with the batch before it reads its own draws",
        (
            _ENGINE + "test_step_values_shared_in_t_change_no_bit[1d source]",
            _ENGINE + "test_engine_1d_constant_with_source_and_discount",
            _ENGINE + "test_engine_at_the_real_batch_size",
        ),
    ),
    Mutant(
        "seed stream shifted",
        "src/bspde/montecarlo.py",
        "np.random.default_rng([cfg.seed, bi])",
        "np.random.default_rng([cfg.seed + 1, bi])",
        "determinism: batch bi of a run draws from default_rng([seed, bi]), the layout NORMAL_SAMPLER names",
        (
            _ENGINE + "test_engine_1d_constant_with_source_and_discount",
            _ENGINE + "test_each_batch_draws_one_block_per_step_and_none_at_the_horizon",
        ),
    ),
    Mutant(
        "sweep residual against slot 0",
        "src/bspde/stepper.py",
        "r = self._abs_residual(rhs, x, slice(lo, hi) if self.nslots > 1 else slice(0, 1))",
        "r = self._abs_residual(rhs, x, slice(0, 1))",
        "the linear residual: each step of a sweep is checked against the bands of its own level",
        (
            _STEPPER + "test_sweep_matches_the_per_step_reference[23-30-coeffs2-True-None]",
            _STEPPER + "test_sweep_matches_the_per_step_reference[nx6-12-coeffs6-True-7]",
            _STEPPER + "test_a_sweep_whose_residual_is_rescaled_matches_the_per_step_reference[1d-time]",
            _STEPPER + "test_level_store_serves_every_later_sweep",
        ),
    ),
    Mutant(
        "sweep residual from the last step of a chunk",
        "src/bspde/stepper.py",
        "chunk = float(np.max(r))",
        "chunk = float(np.max(r[-1]))",
        "the linear residual: a sweep reports the largest residual over every step",
        (
            _STEPPER + "test_sweep_residual_is_the_max_over_every_step[coeffs0]",
            _STEPPER + "test_sweep_residual_is_the_max_over_every_step[coeffs1]",
        ),
    ),
    Mutant(
        "non-finite sweep residual let through",
        "src/bspde/stepper.py",
        "if not math.isfinite(chunk):",
        "if False:",
        "the linear residual: a sweep whose residual is not finite is rescaled, or refused as out of range or failed",
        (
            _STEPPER + "test_an_rhs_that_overflows_from_finite_data_is_a_range_error[1.0-1.7e+308-coeffs0]",
            _STEPPER + "test_an_rhs_that_overflows_from_finite_data_is_a_range_error[1.0-1.7e+308-coeffs1]",
            _STEPPER + "test_an_rhs_that_overflows_from_finite_data_is_a_range_error[10.0-0.0-coeffs0]",
            _STEPPER + "test_an_rhs_that_overflows_from_finite_data_is_a_range_error[10.0-0.0-coeffs1]",
            _STEPPER + "test_non_finite_data_or_coefficients_are_not_a_range_error[coeffs0]",
            _STEPPER + "test_non_finite_data_or_coefficients_are_not_a_range_error[coeffs1]",
        ),
    ),
    Mutant(
        "band storage not reset before a factorisation",
        "src/bspde/stepper.py",
        "            ab[w:] = 0.0  # dgbtrf does not read rows 0..w-1\n",
        "",
        "the linear solve: each level is factored from its own bands alone, not from the factor before it",
        (
            _STEPPER + "test_sweep_matches_the_per_step_reference[nx6-12-coeffs6-True-7]",
            _STEPPER + "test_sweep_matches_the_per_step_reference[nx7-12-coeffs7-False-None]",
        ),
    ),
    Mutant(
        "slot marked factored before dgbtrf's info is read",
        "src/bspde/stepper.py",
        "_, self.piv, info = dgbtrf(ab, w, w, overwrite_ab=1)\n",
        "_, self.piv, info = dgbtrf(ab, w, w, overwrite_ab=1)\n            self.factored = j\n",
        "the linear solve: a refused factorisation is never used to solve",
        (
            _STEPPER + "test_a_refused_factorisation_leaves_no_slot_factored[constant-in-t]",
            _STEPPER + "test_a_refused_factorisation_leaves_no_slot_factored[time]",
        ),
    ),
    Mutant(
        "chunk boundary level skipped",
        "src/bspde/grid.py",
        "range(lo, min(lo + step, n_levels)) for lo in",
        "range(lo, min(lo + step - 1, n_levels)) for lo in",
        "the chunked samplers: every level is sampled, once",
        (
            _STEPPER + "test_store_matches_the_per_level_reference[2d-time-chunks]",
            _STEPPER + "test_store_matches_the_per_level_reference[1d-time-chunks]",
            _STEPPER + "test_the_store_assembles_a_chunk_of_levels_per_evaluation",
            _SOURCE + "[x1*(1-x1)*exp(-t)*sin(3*x1)-2d-chunks]",
            _SOURCE + "[x1*(1-x1)*exp(-t)*sin(3*x1)-1d-chunks]",
        ),
    ),
    Mutant(
        "chunk boundary level repeated",
        "src/bspde/grid.py",
        "range(lo, min(lo + step, n_levels)) for lo in",
        "range(lo, min(lo + step + 1, n_levels)) for lo in",
        "the chunked samplers: every level is sampled, once",
        (_STEPPER + "test_the_store_assembles_a_chunk_of_levels_per_evaluation",),
    ),
    Mutant(
        "survey argmin time from the chunk's first level",
        "src/bspde/coefficients.py",
        "arg_t = float(times[levels[j]])",
        "arg_t = float(times[levels[0]])",
        "the ellipticity report: the margin is reported at the (x, t) where it is smallest",
        (
            _SURVEY + "test_survey_matches_the_loop_over_single_levels_bit_for_bit[only-beta-reads-t-1d-one-chunk]",
            _SURVEY + "test_survey_matches_the_per_level_loops[only-beta-reads-t]",
            _SURVEY + "test_survey_sets_cover_their_cases",
        ),
    ),
    Mutant(
        "chunk error not resampled level by level",
        "src/bspde/grid.py",
        "            if len(levels) == 1:\n                raise\n",
        "            raise\n",
        "the chunked samplers: an evaluation error is the one a loop over single levels meets first",
        (
            "tests/test_cli.py::test_the_source_sampler_reports_the_first_level_that_fails[bad-level-then-division-by-zero]",
            "tests/test_nonlocal.py::test_an_expression_time_kernel_reports_the_fault_of_its_first_failing_level",
        ),
    ),
    Mutant(
        "variable exponent left unmaterialised",
        "src/bspde/exprdsl.py",
        "b = np.array(np.broadcast_to(b_arr, shape or (1,)))",
        "b = b_arr",
        "one rounding rule: a power's bits do not depend on how many points it is evaluated at",
        (
            "tests/test_exprdsl.py::test_a_value_has_the_same_bits_at_any_number_of_points",
            "tests/test_exprdsl.py::test_the_draws_reach_the_fast_paths_of_power",
            _SOURCE + "[(1 + t)^3*x1 + x1^t-1d-chunks]",
        ),
    ),
    Mutant(
        "kernel reading keyed without its bytes",
        "src/bspde/cli.py",
        "@lru_cache(maxsize=1)\ndef _kernel(",
        # the last reading, kept for any file of the same length
        "def _by_length(read):\n"
        "    last = {}\n\n"
        "    def cached(data, grid, theta):\n"
        "        key = (len(data), grid, theta)\n"
        "        if key not in last:\n"
        "            last.clear()\n"
        "            last[key] = read(data, grid, theta)\n"
        "        return last[key]\n\n"
        "    cached.cache_clear = last.clear\n"
        "    return cached\n\n\n"
        "@_by_length\ndef _kernel(",
        "the kernel a command couples by is the one its CSV holds now, even when an earlier load in the process read another",
        ("tests/test_cli.py::test_a_kernel_csv_rewritten_with_the_same_length_is_read_again",),
    ),
    Mutant(
        "kernel text read without newline translation",
        "src/bspde/cli.py",
        'io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")',
        'io.StringIO(data.decode("utf-8"))',
        "the kernel CSV's lines end as the file opened as text ends them: LF, CRLF or a lone CR",
        ("tests/test_cli.py::test_a_kernel_csv_reads_the_same_with_lf_crlf_or_cr_line_ends",),
    ),
    Mutant(
        "coupling bound check loosened",
        "src/bspde/nonlocal_ops.py",
        "if c.norm_bound > 1 + 1e-12:",
        "if c.norm_bound > 1 + 1e-6:",
        "contraction: a kernel coupling is refused when its discrete norm bound exceeds 1 by more than rounding",
        (
            "tests/test_nonlocal.py::test_a_kernel_bound_above_one_by_more_than_rounding_is_refused[time]",
            "tests/test_nonlocal.py::test_a_kernel_bound_above_one_by_more_than_rounding_is_refused[space-time]",
        ),
    ),
    Mutant(
        "coupling reads one level past its horizon",
        "src/bspde/nonlocal_ops.py",
        "vals = u.values[:L].reshape(L, -1)",
        "vals = u.values[1 : L + 1].reshape(L, -1)",
        "truncation at theta: the coupling reads u at levels 0..max_level alone",
        (
            "tests/test_nonlocal.py::test_truncation_battery",
            "tests/test_nonlocal.py::test_truncation_negative_control",
            "tests/test_uniqueness.py::test_kernel_entries_apply_as_the_dense_kernel",
        ),
    ),
    Mutant(
        "upwind drift sides swapped",
        "src/bspde/stepper.py",
        "stencil[tuple(e)] = baa + np.maximum(f[..., a], 0.0) / h\n"
        "        stencil[tuple(-e)] = baa + np.maximum(-f[..., a], 0.0) / h",
        "stencil[tuple(e)] = baa + np.maximum(-f[..., a], 0.0) / h\n"
        "        stencil[tuple(-e)] = baa + np.maximum(f[..., a], 0.0) / h",
        "the monotone scheme: the drift is taken from the upwind side",
        # the grids with more than one interior node on some axis (3 and (3, 3) have one)
        tuple(_STEPPER + f"test_one_step_against_dense[{nx}]" for nx in ("12", "nx3", "nx4", "nx5", "nx6")),
    ),
    Mutant(
        "cross stencil sign flipped",
        "src/bspde/stepper.py",
        "stencil.update({(1, 1): cross, (-1, -1): cross, (1, -1): -cross, (-1, 1): -cross})",
        "stencil.update({(1, 1): -cross, (-1, -1): -cross, (1, -1): cross, (-1, 1): cross})",
        "the scheme: the mixed term b_12 enters through the 4-point cross stencil with its own sign",
        # the grids with more than one interior node on both axes, so that some node has a diagonal neighbour
        (
            _STEPPER + "test_one_step_against_dense[nx5]",
            _STEPPER + "test_one_step_against_dense[nx6]",
            _STEPPER + "test_manufactured_2d_mixed_derivative_exact",
        ),
    ),
    Mutant(
        "Picard first-pass rule dropped",
        "src/bspde/fixedpoint.py",
        "if res <= tol and (m >= 2 or (res == 0.0 and not np.any(phi))):",
        "if res <= tol:",
        "the Picard iteration: a nonzero problem gets at least one confirming pass",
        (
            "tests/test_fixedpoint.py::test_kappa_zero_reduces_to_terminal_data",
            "tests/test_fixedpoint.py::test_a_first_pass_within_tol_is_confirmed_by_a_second",
        ),
    ),
    Mutant(
        "trapezoid end weights not halved",
        "src/bspde/nonlocal_ops.py",
        "        w[[0, -1]] *= 0.5\n",
        "",
        "the coupling's quadrature: kernels are integrated in time by the trapezoid rule",
        (
            "tests/test_nonlocal.py::test_time_kernel_constant_bound",
            "tests/test_uniqueness.py::test_kernel_entries_apply_as_the_dense_kernel",
            "tests/test_acceptance.py::test_criterion_06_contraction_vs_confinement_bound",
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
    return {t for t in m.tests if re.search(rf"^(FAILED|ERROR) {re.escape(t)}(?= |$)", proc.stdout, re.M)}


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
