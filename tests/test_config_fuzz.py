"""Fuzz the config loader: one or two entries of a working config are deleted
or set to awkward values, and every command must then end with an exit code,
never a traceback or a warning, and a run that ends with 0 writes a
report.json that is strict JSON (no NaN or Infinity).  Every configuration
fault names its dotted path or section.  The entries are those of the config
and those of the loader's table, so absent optional entries are set too.  A
key the table does not list, added or made by misspelling a present key, must
be reported by its dotted path as an unknown entry."""

import contextlib
import copy
import io
import json
import math
import re
import signal
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from bspde import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def _not_json(constant):
    raise ValueError(f"report.json holds {constant}, which JSON has no number for")


def main(argv):
    """cli.main; a run that ends with 0 must have written a strict JSON report.
    The check sits here, not in a test body, because Hypothesis derives the
    derandomized examples of a test from its source."""
    code = cli.main(argv)
    if code == 0:
        out = Path(argv[argv.index("--out") + 1])
        json.loads((out / "report.json").read_text(), parse_constant=_not_json)
    return code


POOL = (0, -1, 1e-300, 1e308, math.inf, -math.inf, math.nan, True, "a", [], {})
COMMANDS = ("validate", "cauchy", "nubound", "solve", "qmatrix", "mccheck", "converge")
# qmatrix and converge run on the 1-D bases only: on grid-2d one t-dependent 961-column
# assembly takes seconds and converge refines to 129 x 129.  eigenmode-mc is the shipped
# config with another montecarlo section, which qmatrix does not read.
SKIP = {"grid-2d": ("qmatrix", "converge"), "eigenmode-mc": ("qmatrix",)}
# `invalid configuration: <dotted path>: ...` or `validation failed: ...`
EXIT_1 = re.compile(r"bspde: (invalid configuration: [A-Za-z_0-9]+(\.[A-Za-z_0-9]+|\[\d+\])*: |validation failed: )")


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """Name -> directory holding config.json: the shipped config and the
    three workloads, with their Monte-Carlo sections cut to 200 paths."""
    out = {"shipped": tmp_path_factory.mktemp("shipped")}
    (out["shipped"] / "config.json").write_text((ROOT / "configs" / "eigenmode.json").read_text())
    for name in workloads.COMMANDS:
        out[name] = tmp_path_factory.mktemp(name)
        workloads.generate(name, 101, out[name], ROOT)
    for d in out.values():
        config = json.loads((d / "config.json").read_text())
        if "montecarlo" in config:
            config["montecarlo"]["n_paths"] = 200
        (d / "config.json").write_text(json.dumps(config))
    return out


def _entries(node, path=()):
    """The path (a tuple of keys and indices) of every entry below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _entries(value, path + (key,))


# (section, key) of every entry in the loader's table; the gamma keys of every type
TABLE_PATHS = [(section, key) for section, table in cli._CONFIG.items() if isinstance(table, dict) for key in table]
TABLE_PATHS += [("gamma", key) for table in (cli._TYPE, *(t for _, t in cli._GAMMA.values())) for key in table]
NAMES = {key for section, key in TABLE_PATHS} | set(cli._CONFIG)


def _mutate(config, path, value):
    """Delete the entry at `path` (value is None) or set it to `value`.  The
    section of a table path is made when it is missing, and left alone when
    an earlier mutation made it something other than an object."""
    *parents, last = path
    node = config
    for key in parents:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    if value is None:
        del node[last]
    elif isinstance(node, dict) or isinstance(last, int):
        node[last] = copy.deepcopy(value)


def _at(config, path):
    for key in path:
        config = config[key]
    return config


def _dotted(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


MUTATIONS = st.lists(st.tuples(st.integers(0, 1 << 16), st.none() | st.sampled_from(POOL)), min_size=1, max_size=2)


@seed(23547972845249817337653449001762655931664642425105187973153632340080903705525825905367852770895326993652362974626595)
@settings(
    max_examples=80,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(base=st.sampled_from(["shipped", *workloads.COMMANDS]), mutations=MUTATIONS)
def test_a_mutated_config_ends_with_an_exit_code(bases, base, mutations):
    d = bases[base]
    config = json.loads((d / "config.json").read_text())
    for pick, value in mutations:
        # an entry is deleted from the config, or set from the config or the table
        paths = list(dict.fromkeys([*_entries(config), *(TABLE_PATHS if value is not None else ())]))
        if paths:
            _mutate(config, paths[pick % len(paths)], value)
    path = d / "mutated.json"
    path.write_text(json.dumps(config))
    for command in (c for c in COMMANDS if c not in SKIP.get(base, ())):
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command, "--config", str(path), "--out", str(d / "out")])
        assert code in (0, 1, 2, 3), (command, config)
        if code == 1:
            assert EXIT_1.match(err.getvalue()), (command, err.getvalue())


KEY = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8)


@seed(3460419325213386404778460643449253820426602327444980315532772520793742595297913654407191014526095023853499248401767)
@settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    base=st.sampled_from(["shipped", *workloads.COMMANDS]),
    misspell=st.booleans(),
    pick=st.integers(0, 1 << 16),
    edit=st.tuples(st.sampled_from(["insert", "delete", "replace", "swap"]), st.integers(0, 16), KEY),
)
def test_a_key_the_table_does_not_list_is_an_unknown_entry(bases, capsys, base, misspell, pick, edit):
    d = bases[base]
    config = json.loads((d / "config.json").read_text())
    if misspell:  # one character of a present key inserted, deleted, replaced or swapped
        keys = [path for path in _entries(config) if isinstance(path[-1], str)]
        *parents, key = keys[pick % len(keys)]
        how, at, char = edit
        at, char = at % (len(key) + 1), char[0]
        new = {
            "insert": key[:at] + char + key[at:],
            "delete": key[:at] + key[at + 1 :],
            "replace": key[:at] + char + key[at + 1 :],
            "swap": key[: at - 1] + key[at : at + 1] + key[at - 1 : at] + key[at + 1 :] if at else key,
        }[how]
    else:  # a new key in the config or in one of its objects
        objects = [()] + [path for path in _entries(config) if isinstance(_at(config, path), dict)]
        parents, key, new = list(objects[pick % len(objects)]), None, edit[2]
    assume(new and new not in NAMES)
    node = _at(config, parents)
    node[new] = node.pop(key) if key is not None else 1.0
    (d / "mutated.json").write_text(json.dumps(config))
    assert main(["validate", "--config", str(d / "mutated.json"), "--out", str(d / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bspde: invalid configuration: {_dotted([*parents, new])}: unknown entry"), err


@pytest.mark.parametrize(
    "base,path,value,message",
    [
        ("shipped", ("coefficients", "b", 0, 0), 1e-15, ""),
        ("shipped", ("coefficients", "b", 0, 0), 1e-17, ""),
        ("grid-2d", ("coefficients", "b"), 1e-300, ""),
        ("shipped", ("grid", "T"), 1e-300, ""),
        # h**2 underflows and |f|/h overflows: the backward step cannot be formed
        ("shipped", ("domain", "hi", 0), 1e-300, "validation failed: implicit step dt*A_h is not finite"),
        ("grid-2d", ("coefficients", "f", 0), 1e308, "validation failed: implicit step dt*A_h is not finite"),
    ],
)
def test_a_tiny_or_huge_confinement_input_is_validated_within_a_second(bases, capsys, base, path, value, message):
    # the odd-mode series of the confinement bound needs about 1/sqrt(c) terms
    d = bases[base]
    config = json.loads((d / "config.json").read_text())
    _mutate(config, path, value)
    (d / "mutated.json").write_text(json.dumps(config))

    def overtime(signum, frame):
        pytest.fail("validate took over a second")

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code = main(["validate", "--config", str(d / "mutated.json"), "--out", str(d / "out")])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code == (1 if message else 0)
    assert message in capsys.readouterr().err
