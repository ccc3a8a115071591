"""The vectorised kernel-CSV reader against an independent per-row reader.

`_reference_kernel_from_csv` reads one row at a time: it snaps the time
with its own copy of the level rule (floor(t/dt + 0.5), ties down, then
clipped) and each coordinate to argmin |xs - c| (ties to the first node),
and writes out[level, y, x] row by row, so a later row overwrites an
earlier one.  Beyond that it rejects a non-finite t, x or y, which argmin
would otherwise snap to node 0, and a non-finite k, and reports every
rejected row by its physical line as `Rejected`.  The reader under test
returns the entries it sets; `_dense_from_csv` writes them into the same
array, which must equal the reference's bit for bit, or the reader must
reject the same line.
"""

import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bspde import Domain, make_grid
from bspde.nonlocal_ops import NonlocalValidationError, kernel_from_csv


class Rejected(Exception):
    def __init__(self, line):
        super().__init__(line)
        self.line = line


def _reference_level(grid, t):
    if not 0.0 <= t <= grid.T + 1e-12 * max(1.0, grid.T):
        raise ValueError(f"time {t} outside [0, {grid.T}]")
    raw = t / grid.dt
    k = int(np.floor(raw + 0.5))
    if k - raw == 0.5:
        k -= 1
    return min(max(k, 0), grid.nt)


def _reference_kernel_from_csv(fh, grid, theta):
    k_theta = _reference_level(grid, theta)
    n_int = grid.n_interior
    out = np.zeros((k_theta + 1, n_int, n_int))
    dim = grid.dim
    reader = csv.reader(fh)
    next(reader)

    def node_index(coords):
        idx = 0
        for a in range(dim):
            xs = grid.axis_coords(a)
            j = int(np.argmin(np.abs(xs - coords[a])))
            if abs(xs[j] - coords[a]) > 0.5 * grid.hx[a]:
                raise ValueError(f"coordinate {coords[a]} is not a grid node")
            idx = idx * len(xs) + j
        return idx

    for row in reader:
        if not row:
            continue
        try:
            if len(row) != 2 + 2 * dim:
                raise ValueError("wrong width")
            vals = [float(v) for v in row]
            if not all(math.isfinite(v) for v in vals):
                raise ValueError("non-finite")
            t, xs, ys, kval = vals[0], vals[1 : 1 + dim], vals[1 + dim : 1 + 2 * dim], vals[-1]
            lvl = _reference_level(grid, t)
            if lvl > k_theta:
                raise ValueError("beyond theta")
            out[lvl, node_index(ys), node_index(xs)] = kval
        except ValueError:
            raise Rejected(reader.line_num) from None
    return out


def _dense_from_csv(fh, grid, theta):
    """kernel_from_csv's entries written into a (levels, n, n) array; they
    must come in (level, y, x) order, each address once."""
    entries = kernel_from_csv(fh, grid, theta)
    n = grid.n_interior
    out = np.zeros((grid.nearest_level(theta)[0] + 1, n, n))
    flat = np.ravel_multi_index((entries.level, entries.source, entries.target), out.shape)
    assert np.all(np.diff(flat) > 0)
    out.flat[flat] = entries.value
    return out


def _outcome(read, text, grid, theta):
    """('ok', shape, bytes) for an accepted file, ('rejected', line) otherwise."""
    try:
        out = read(io.StringIO(text), grid, theta)
    except Rejected as err:
        return ("rejected", err.line)
    except NonlocalValidationError as err:
        m = re.match(r"kernel CSV line (\d+)[: ]", str(err))
        assert m, str(err)
        return ("rejected", int(m.group(1)))
    return ("ok", out.shape, out.tobytes())


@st.composite
def grids(draw):
    """A 1-D or 2-D grid with lo != 0 and a theta on a level below nt.

    Dyadic grids make node midpoints and half levels exact in floating
    point, so the tie rules are exercised; the others have arbitrary steps."""
    dim = draw(st.sampled_from([1, 2]))
    nx = [draw(st.integers(3, 7)) for _ in range(dim)]
    if draw(st.booleans()):
        lo = [draw(st.sampled_from([-1.5, -0.75, 0.25, 1.25])) for _ in range(dim)]
        hx = [draw(st.sampled_from([0.125, 0.25, 0.5])) for _ in range(dim)]
        hi = [a + h * (n - 1) for a, h, n in zip(lo, hx, nx)]
        nt = draw(st.sampled_from([1, 2, 4, 8]))
        T = draw(st.sampled_from([0.5, 1.0, 2.0]))
    else:
        lo = [draw(st.floats(-3.0, 3.0).filter(lambda v: v != 0.0)) for _ in range(dim)]
        hi = [a + draw(st.floats(0.3, 4.0)) for a in lo]
        nt = draw(st.integers(1, 9))
        T = draw(st.floats(0.1, 5.0))
    grid = make_grid(Domain(tuple(lo), tuple(hi)), tuple(nx), nt, T)
    k_theta = draw(st.integers(0, nt - 1))
    return grid, k_theta * grid.dt, k_theta


def _time(draw, grid, lvl, max_offset, ties):
    kind = draw(st.sampled_from(["exact", "perturbed", "tie_below", "tie_above"] if ties else ["exact", "perturbed"]))
    if kind == "perturbed":
        lo = 0.0 if lvl == 0 else -max_offset
        return (lvl + draw(st.floats(lo, max_offset))) * grid.dt
    if kind == "tie_below" and lvl > 0:
        return (lvl - 0.5) * grid.dt
    if kind == "tie_above":
        return (lvl + 0.5) * grid.dt
    return lvl * grid.dt


def _coord(draw, grid, axis, j, max_offset, ties):
    xs = grid.axis_coords(axis)
    h = grid.hx[axis]
    kind = draw(st.sampled_from(["exact", "perturbed", "midpoint", "half_step"] if ties else ["exact", "perturbed"]))
    if kind == "perturbed":
        return xs[j] + draw(st.floats(-max_offset, max_offset)) * h
    if kind == "midpoint" and j + 1 < len(xs):
        return 0.5 * (xs[j] + xs[j + 1])
    if kind == "half_step":
        return xs[j] + draw(st.sampled_from([-0.5, 0.5])) * h
    return xs[j]


@st.composite
def kernel_files(draw, max_offset=0.4999, ties=True):
    """A kernel CSV over a few addresses, each written by any number of rows
    in any order, with blank lines here and there; returns the text, the
    grid, theta and theta's level.  Without ties and with offsets well
    below half a step every row is valid."""
    grid, theta, k_theta = draw(grids())
    dim = grid.dim
    shape = grid.interior_shape
    addresses = draw(
        st.lists(
            st.tuples(
                st.integers(0, k_theta),
                st.tuples(*[st.integers(0, m - 1) for m in shape]),
                st.tuples(*[st.integers(0, m - 1) for m in shape]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    picks = draw(st.lists(st.integers(0, len(addresses) - 1), max_size=30))
    header = ",".join(["t"] + [f"x{a + 1}" for a in range(dim)] + [f"y{a + 1}" for a in range(dim)] + ["k"])
    lines = [header]
    for p in picks:
        lvl, y, x = addresses[p]
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("")
        fields = [_time(draw, grid, lvl, max_offset, ties)]
        fields += [_coord(draw, grid, a, x[a], max_offset, ties) for a in range(dim)]
        fields += [_coord(draw, grid, a, y[a], max_offset, ties) for a in range(dim)]
        fields.append(draw(st.floats(allow_nan=False, allow_infinity=False)))
        lines.append(",".join(repr(float(v)) for v in fields))
    return "\n".join(lines) + "\n", grid, theta, k_theta


PROPERTY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(kernel_files())
def test_same_kernel_as_the_per_row_reader(case):
    text, grid, theta, _ = case
    expected = _outcome(_reference_kernel_from_csv, text, grid, theta)
    assert _outcome(_dense_from_csv, text, grid, theta) == expected


def _fault(draw, grid, k_theta):
    """Fields of a row with exactly one fault, as strings."""
    dim = grid.dim
    shape = grid.interior_shape
    t = repr(0.0)
    x = [repr(float(grid.axis_coords(a)[draw(st.integers(0, shape[a] - 1))])) for a in range(dim)]
    y = [repr(float(grid.axis_coords(a)[draw(st.integers(0, shape[a] - 1))])) for a in range(dim)]
    k = "1.0"
    kind = draw(
        st.sampled_from(
            ["word", "empty", "short", "long", "early", "late", "beyond", "wall", "outside", "nonfinite", "nonfinite_k"]
        )
    )
    fields = [t, *x, *y, k]
    if kind in ("word", "empty"):
        fields[draw(st.integers(0, len(fields) - 1))] = "abc" if kind == "word" else ""
    elif kind == "nonfinite_k":
        fields[-1] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400"]))
    elif kind == "short":
        fields.pop(draw(st.integers(0, len(fields) - 1)))
    elif kind == "long":
        fields.append("1.0")
    elif kind == "early":
        fields[0] = repr(-0.25 * grid.dt)
    elif kind == "late":
        fields[0] = repr(grid.T + grid.dt)
    elif kind == "beyond":
        fields[0] = repr((k_theta + 1) * grid.dt)
    else:
        pos = 1 + draw(st.integers(0, 2 * dim - 1))
        a = (pos - 1) % dim
        if kind == "wall":
            fields[pos] = repr(draw(st.sampled_from([grid.domain.lo[a], grid.domain.hi[a]])))
        elif kind == "outside":
            xs = grid.axis_coords(a)
            fields[pos] = repr(float(draw(st.sampled_from([xs[0] - 0.75 * grid.hx[a], xs[-1] + 0.6 * grid.hx[a], 1e300]))))
        else:
            fields[draw(st.integers(0, 2 * dim))] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]))
    return fields


@PROPERTY
@given(st.data())
def test_both_readers_reject_the_same_row(data):
    text, grid, theta, k_theta = data.draw(kernel_files(max_offset=0.45, ties=False))
    rows = text.splitlines()
    at = data.draw(st.integers(1, len(rows)))
    rows.insert(at, ",".join(_fault(data.draw, grid, k_theta)))
    text = "\n".join(rows) + "\n"
    expected = _outcome(_reference_kernel_from_csv, text, grid, theta)
    assert expected == ("rejected", at + 1)
    assert _outcome(_dense_from_csv, text, grid, theta) == expected


def test_both_readers_keep_the_last_row_and_round_ties_down():
    g = make_grid(Domain((0.25,), (1.25,)), 5, 4, 1.0)  # interior nodes 0.5, 0.75, 1.0
    text = "t,x1,y1,k\n0.125,0.625,0.5,1.0\n0.0,0.5,0.5,2.0\n0.125,0.625,0.5,3.0\n"
    for read in (_reference_kernel_from_csv, _dense_from_csv):
        out = read(io.StringIO(text), g, 0.5)
        assert out[0, 0, 0] == 3.0
        assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("dim", [1, 2])
def test_same_kernel_on_a_full_table(dim):
    """Every (level, y, x) once, in reverse order, then level 0 again."""
    g = make_grid(Domain((-0.5,) * dim, (0.7,) * dim), (6,) * dim, 10, 1.0)
    pts = g.interior_points()
    header = ",".join(["t"] + [f"x{a + 1}" for a in range(dim)] + [f"y{a + 1}" for a in range(dim)] + ["k"])
    rows = []
    for lvl in range(4):
        for iy, y in enumerate(pts):
            for ix, x in enumerate(pts):
                vals = [lvl * g.dt, *x, *y, lvl + 0.01 * iy - 0.001 * ix]
                rows.append(",".join(repr(float(v)) for v in vals))
    rows = rows[::-1] + rows[: len(pts) ** 2 // 2]
    text = header + "\n" + "\n".join(rows) + "\n"
    expected = _reference_kernel_from_csv(io.StringIO(text), g, 0.3)
    assert _dense_from_csv(io.StringIO(text), g, 0.3).tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def picard_1d_kernel():
    """Every (level, y, x) of a 41-node, nt = 100 grid up to theta = 0.15
    once, 24,336 rows written like the benchmark's picard-1d kernel."""
    g = make_grid(Domain((0.0,), (1.0,)), 41, 100, 1.0)
    xs = [repr(float(v)) for v in g.axis_coords(0)]
    k = iter(np.random.default_rng(41).random(16 * len(xs) ** 2).tolist())
    rows = [f"{lvl * g.dt!r},{x},{y},{next(k)!r}" for lvl in range(16) for y in xs for x in xs]
    return g, "t,x1,y1,k\n" + "\n".join(rows) + "\n"


def test_same_kernel_on_a_picard_1d_size_table(picard_1d_kernel):
    g, text = picard_1d_kernel
    assert text.count("\n") == 24_337
    expected = _outcome(_reference_kernel_from_csv, text, g, 0.15)
    assert expected[0] == "ok" and np.count_nonzero(np.frombuffer(expected[2])) == 24_336
    assert _outcome(_dense_from_csv, text, g, 0.15) == expected


def test_reading_a_picard_1d_size_table_traces_under_4_mb(picard_1d_kernel, tmp_path):
    """The rows stream from the file: the parsed table and the arrays built
    from it, not the text, make the peak."""
    import tracemalloc

    g, text = picard_1d_kernel
    path = tmp_path / "kernel.csv"
    path.write_text(text, encoding="utf-8")
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            tracemalloc.reset_peak()
            entries = kernel_from_csv(fh, g, 0.15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(entries.value) == 24_336
    assert peak < 4 * 2**20


G4 = make_grid(Domain((0.0,), (1.0,)), 5, 4, 1.0)  # interior nodes 0.25, 0.5, 0.75
ROWS = ["0.0,0.25,0.5,1.0", "0.25,0.5,0.75,2.0", "0.0,0.25,0.5,3.0"]


@pytest.mark.parametrize(
    "text",
    [
        "t,x1,y1,k\r\n" + "\r\n".join(ROWS) + "\r\n",
        "t,x1,y1,k\n" + "\n".join(ROWS),
        "t,x1,y1,k\r\n" + "\r\n".join(ROWS),
        "t,x1,y1,k\r\n\r\n" + "\r\n\r\n".join(ROWS) + "\r\n\r\n",
        '"t","x1",y1,"k"\n' + "\n".join(",".join(f'"{v}"' for v in row.split(",")) for row in ROWS) + "\n",
        "t,x1,y1,k\n" + "\n".join(f' {row.replace(",", " , ")}\t' for row in ROWS) + "\n",
    ],
    ids=["crlf", "no-final-newline", "crlf-no-final-newline", "crlf-blank-lines", "quoted", "spaces"],
)
def test_same_kernel_whatever_the_line_ends_and_quotes(text):
    expected = _outcome(_reference_kernel_from_csv, text, G4, 0.5)
    assert expected[0] == "ok"
    assert _outcome(_dense_from_csv, text, G4, 0.5) == expected


@pytest.mark.parametrize("text", ["t,x1,y1,k\n", "t,x1,y1,k", "t,x1,y1,k\r\n\r\n\n"])
def test_a_header_only_file_sets_no_entry(text):
    # a numpy warning ("input contained no data") would fail this suite
    entries = kernel_from_csv(io.StringIO(text), G4, 0.5)
    assert all(len(a) == 0 for a in entries)
    assert _outcome(_dense_from_csv, text, G4, 0.5) == _outcome(_reference_kernel_from_csv, text, G4, 0.5)


@pytest.mark.parametrize(
    "text, message",
    [
        ("t,x1,y1,k\n0.0,0.25,0.5,1.0,9.0\n", "kernel CSV line 2 has 5 fields, the header has 4"),
        ("t,x1,y1,k\n\n0.0,0.25,0.5\n", "kernel CSV line 3 has 3 fields, the header has 4"),
        ("t,x1,y1,k\n0.0,0.25,0.5,1.0,9.0\n0.0,0.25,0.5,1.0,9.0\n", "kernel CSV line 2 has 5 fields, the header has 4"),
        ("t,x1,y1,k\n\n\n0.0,0.25,0.5,1.0\n\n\n0.0,abc,0.5,1.0\n", "kernel CSV line 7: could not convert string to float: 'abc'"),
        ("t,x1,y1,k\r\n\r\n0.0,0.25,0.5,1.0\r\n\r\n\r\n0.0,0.25,0.5,\r\n", "kernel CSV line 6: could not convert string to float: ''"),
        ("t,x1,y1,k\n\n0.0,0.25,0.5,1.0\n\n\n0.75,0.25,0.5,1.0\n", "kernel CSV line 6: row at t = 0.75 lies beyond theta = 0.5"),
        ('t,x1,y1,k\n"0.0","0.25\n",0.5,1.0\n\n0.0,0.0,0.5,1.0\n', "kernel CSV line 5: coordinate 0.0 is not a grid node"),
    ],
    ids=["only-row-long", "only-row-short", "every-row-long", "word", "empty-field", "beyond-theta", "quoted-newline"],
)
def test_a_fault_names_its_physical_line(text, message):
    with pytest.raises(NonlocalValidationError) as err:
        kernel_from_csv(io.StringIO(text), G4, 0.5)
    assert str(err.value) == message
    line = int(re.match(r"kernel CSV line (\d+)", message).group(1))
    assert _outcome(_reference_kernel_from_csv, text, G4, 0.5) == ("rejected", line)


@pytest.mark.parametrize("field", ["1_0", "1_000.5", "١", "1.٠"])
def test_a_number_outside_the_ascii_grammar_is_refused(field):
    """Python's float() takes underscore digit groups and non-ASCII digits;
    the reader does not."""
    text = f"t,x1,y1,k\n0.0,0.25,0.5,1.0\n\n0.0,0.25,0.5,{field}\n"
    with pytest.raises(NonlocalValidationError) as err:
        kernel_from_csv(io.StringIO(text), G4, 0.5)
    assert str(err.value) == f"kernel CSV line 4: could not convert string to float: {field!r}"


@PROPERTY
@given(
    st.one_of(
        st.text(alphabet="0123456789.eE+-_ \t\u00a0infatyINFATY\u0661xj", max_size=8),
        st.from_regex(r"[ +-]?[0-9_]{0,3}\.?[0-9]{0,3}(?:[eE][+-]?[0-9]{0,2})?[ ]?", fullmatch=True),
    )
)
def test_the_line_scan_refuses_exactly_the_fields_np_loadtxt_refuses(field):
    """A field that np.loadtxt refuses is named by its line, and one that it
    takes passes the scan, which goes on to name the later row at fault."""
    text = f"t,x1,y1,k\n0.0,0.25,0.5,{field}\n0.75,0.25,0.5,1.0\n"
    with pytest.raises(NonlocalValidationError) as err:
        kernel_from_csv(io.StringIO(text), G4, 0.5)
    try:
        value = np.loadtxt(io.StringIO(f"{field},0\n"), delimiter=",")[0]
    except ValueError:
        assert str(err.value) == f"kernel CSV line 2: could not convert string to float: {field!r}"
    else:
        if np.isfinite(value):
            assert str(err.value) == "kernel CSV line 3: row at t = 0.75 lies beyond theta = 0.5"
        else:
            assert str(err.value) == f"kernel CSV line 2: k = {value} is not finite"


def test_a_lone_cr_inside_a_line_is_refused_by_its_line():
    text = "t,x1,y1,k\n0.0,0.25,0.5,1.0\n0.0,0.25,0.5,1.0\r0.0,0.5,0.5,1.0\n"
    with pytest.raises(NonlocalValidationError, match="^kernel CSV line 3: new-line character seen in unquoted field"):
        kernel_from_csv(io.StringIO(text), G4, 0.5)


def test_a_refusal_the_line_scan_cannot_place_gives_numpys_reason(monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("the reason np.loadtxt gives")

    monkeypatch.setattr(np, "loadtxt", refuse)
    with pytest.raises(NonlocalValidationError, match="^kernel CSV: the reason np.loadtxt gives$"):
        kernel_from_csv(io.StringIO("t,x1,y1,k\n0.0,0.25,0.5,1.0\n"), G4, 0.5)
