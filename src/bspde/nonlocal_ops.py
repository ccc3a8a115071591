"""The family of non-local terminal couplings: linear maps taking a space-time
field u to a terminal-time space field that reads u only on [0, theta] with
theta strictly below the horizon.

Supported forms: a multiple of u(.,0) or of u(.,t1), a two-point combination,
a time-kernel integral, a full space-time kernel integral, and convex
combinations of these.  `_compile` alone checks them: it snaps every time
to the nearest grid level (ties round down), resamples kernels onto grid
levels, and bounds the resulting discrete weights by 1 in the sup-to-sup
operator norm, naming the entry at fault; the application routine uses exactly
the same weights, so contractivity of the discrete operator holds by construction.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .exprdsl import EvalError, Expr, ExprError, parse
from .grid import Grid, SpaceField, SpaceTimeField


class NonlocalValidationError(ValueError):
    """A coupling breaks a rule at `entry`, its dotted path inside the coupling:
    "t1", "kernel[0][0]", "parts[0].theta", or "" for the coupling itself."""

    def __init__(self, message: str, entry: str = ""):
        super().__init__(message)
        self.entry = entry


@dataclass(frozen=True)
class InitialValue:
    """weight * u(., 0), |weight| <= 1."""

    weight: float


@dataclass(frozen=True)
class PointInTime:
    """weight * u(., t1), |weight| <= 1, t1 snapped to a level strictly before T."""

    weight: float
    t1: float


@dataclass(frozen=True)
class TwoPoint:
    """weight1 * u(., t1) + weight2 * u(., t2) with |weight1| + |weight2| <= 1."""

    weight1: float
    t1: float
    weight2: float
    t2: float


@dataclass(frozen=True)
class TimeKernel:
    """integral_0^theta k(t) u(., t) dt by trapezoid rule on grid levels.

    kernel may be a number, an expression (string or Expr) in t, or a sequence
    of (time, value) samples that are linearly resampled onto grid levels.
    """

    theta: float
    kernel: object


class KernelEntries(NamedTuple):
    """The entries a space-time kernel sets, four 1-D arrays of one length: time
    level, source node y, target node x (flat interior indices) and k there."""

    level: np.ndarray
    source: np.ndarray
    target: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class SpaceTimeKernel:
    """integral_0^theta dt integral_D k(t, y, x) u(y, t) dy on grid nodes, with k
    the KernelEntries at levels 0..theta's level: others are 0, repeats add."""

    theta: float
    kernel: KernelEntries


@dataclass(frozen=True)
class Convex:
    """Positively weighted combination with total weight <= 1."""

    weights: tuple[float, ...]
    parts: tuple["NonlocalSpec", ...]


NonlocalSpec = Union[InitialValue, PointInTime, TwoPoint, TimeKernel, SpaceTimeKernel, Convex]


def _snap_before_T(grid: Grid, t: float, what: str) -> tuple[int, float]:
    if not grid.time_in_range(t):
        raise NonlocalValidationError(f"{what} = {t} lies outside [0, {grid.T}]", what)
    k, dist = grid.nearest_level(t)
    if k >= grid.nt:
        raise NonlocalValidationError(
            f"{what} = {t} snaps to the terminal level; the non-local operator "
            f"must read strictly before T = {grid.T}",
            what,
        )
    return k, dist


class _Compiled:
    """Discrete realization: per-level scalar weights plus space-time entries,
    applied additively: weight[i] (trapezoid weight and cell volume folded in)
    times u at flat index read[i] = level * n_interior + y, summed per node
    target[i] by np.bincount in entry order, which is (level, y) for one CSV.
    It is also the coupling's report: its horizon `theta`, its discrete norm
    bound and the distances its times moved when snapped to levels."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.level_weights = np.zeros(grid.nt + 1)
        self.read = self.target = np.zeros(0, dtype=np.intp)
        self.weight = np.zeros(0)
        self.max_level = 0
        self.snap_distances: tuple[float, ...] = ()
        self.norm_bound = 0.0

    @property
    def theta(self) -> float:
        return float(self.max_level * self.grid.dt)

    def apply(self, u: SpaceTimeField) -> SpaceField:
        if u.grid is not self.grid and u.grid != self.grid:
            raise NonlocalValidationError("field grid does not match the validated grid")
        L = self.max_level + 1
        vals = u.values[:L].reshape(L, -1)
        out = self.level_weights[:L] @ vals
        if self.target.size:
            out = out + np.bincount(self.target, self.weight * vals.take(self.read), self.grid.n_interior)
        return SpaceField(self.grid, out.reshape(self.grid.interior_shape))


def _resample_time_kernel(kernel, grid: Grid, n_levels: int) -> np.ndarray:
    """The time kernel's values on levels 0..n_levels-1; a fault of it is raised
    at entry "kernel", or at "kernel[i][0]" for a sample time not finite."""
    ts = grid.times()[:n_levels]
    if isinstance(kernel, (bool, np.bool_)):  # not the number 0 or 1
        what = f"a time kernel must be a number, an expression in t or samples, got {kernel!r}"
        raise NonlocalValidationError(what, "kernel")
    if isinstance(kernel, (int, float, np.integer, np.floating)):
        kv = np.full(n_levels, float(kernel))
    elif isinstance(kernel, (str, Expr)):
        try:
            e = parse(kernel) if isinstance(kernel, str) else kernel
            with np.errstate(all="ignore"):  # a non-finite value is reported by its time below
                kv = np.asarray([np.asarray(e.eval({"t": float(t)}), dtype=float) for t in ts], dtype=float)
        except (ExprError, EvalError) as err:
            raise NonlocalValidationError(str(err), "kernel") from None
    else:
        try:
            samples = np.asarray(kernel, dtype=float)
        except (TypeError, ValueError, OverflowError):
            samples = np.empty(0)  # ragged or not numbers
        if samples.ndim != 2 or samples.shape[1] != 2 or not samples.size:
            pairs = f"a sampled time kernel must be a sequence of (time, value) pairs, got {kernel!r}"
            raise NonlocalValidationError(pairs, "kernel")
        # np.interp needs finite, distinct times; which of two samples at one time wins would be a guess
        s = samples.tolist()
        first: dict[float, int] = {}  # time -> index of the first sample at it
        for i, (t, _) in enumerate(s):
            if not np.isfinite(t):
                raise NonlocalValidationError(f"a sample time must be finite, got {t!r}", f"kernel[{i}][0]")
            j = first.setdefault(t, i)
            if j != i:
                same = f"sampled time kernel: samples {j} {s[j]} and {i} {s[i]} share a time"
                raise NonlocalValidationError(same, "kernel")
        order = np.argsort(samples[:, 0])
        kv = np.interp(ts, samples[order, 0], samples[order, 1])
    bad = np.flatnonzero(~np.isfinite(kv))
    if bad.size:
        _finite(kv[bad[0]], f"time kernel k({int(bad[0]) * grid.dt!r})", "kernel")
    return kv


def _finite(weight, name: str, entry: str = "") -> None:
    """Reject a NaN or infinite coupling weight, which every bound check passes or misreads."""
    if not np.isfinite(weight):
        raise NonlocalValidationError(f"{name} = {weight} is not finite", entry)


def _point_terms(spec) -> list[tuple[str, float, str | None, float | None]]:
    """The (weight name, weight, time name, time) terms of a point coupling;
    an initial value reads level 0 and has no time to snap."""
    if isinstance(spec, InitialValue):
        return [("weight", spec.weight, None, None)]
    if isinstance(spec, PointInTime):
        return [("weight", spec.weight, "t1", spec.t1)]
    return [("weight1", spec.weight1, "t1", spec.t1), ("weight2", spec.weight2, "t2", spec.t2)]


def _compile(spec: NonlocalSpec, grid: Grid) -> _Compiled:
    c = _Compiled(grid)
    if isinstance(spec, (InitialValue, PointInTime, TwoPoint)):
        terms = _point_terms(spec)  # the times are checked before the weights
        snaps = [(0, None) if tname is None else _snap_before_T(grid, t, tname) for _, _, tname, t in terms]
        c.snap_distances = tuple(dist for _, dist in snaps if dist is not None)
        for name, w, _, _ in terms:
            _finite(w, name)
        total = sum(abs(w) for _, w, _, _ in terms)
        if total > 1:
            names = " + ".join(f"|{name}|" for name, _, _, _ in terms)
            raise NonlocalValidationError(f"{names} = {total} exceeds 1")
        for (_, w, _, _), (k, _) in zip(terms, snaps):
            c.level_weights[k] += w
            c.max_level = max(c.max_level, k)
        c.norm_bound = total
    elif isinstance(spec, (TimeKernel, SpaceTimeKernel)):
        k_theta, dist = _snap_before_T(grid, spec.theta, "theta")
        c.snap_distances = (dist,)
        c.max_level = k_theta
        w = np.full(k_theta + 1, grid.dt if k_theta else 0.0)  # trapezoid weights; all 0 when theta's level is 0
        w[[0, -1]] *= 0.5
        if isinstance(spec, TimeKernel):
            kv = _resample_time_kernel(spec.kernel, grid, k_theta + 1)
            c.level_weights[: k_theta + 1] = w * kv
            c.norm_bound = float(np.sum(w * np.abs(kv)))
            what, where = "time-kernel quadrature of the absolute kernel is", ""
        else:
            n = grid.n_interior
            entries = [np.asarray(a) for a in spec.kernel] if isinstance(spec.kernel, KernelEntries) else []
            if not entries or entries[0].ndim != 1 or len({a.shape for a in entries}) != 1:
                raise NonlocalValidationError("space-time kernel must be KernelEntries: four 1-D arrays of one length")
            *index, value = entries
            for name, idx, top in zip(("levels", "source nodes", "target nodes"), index, (k_theta, n - 1, n - 1)):
                if not np.issubdtype(idx.dtype, np.integer) or np.any((idx < 0) | (idx > top)):
                    raise NonlocalValidationError(f"space-time kernel {name} must be integers in [0, {top}]")
            if not np.all(np.isfinite(value)):
                raise NonlocalValidationError("space-time kernel has non-finite values")
            level, source, c.target = (a.astype(np.intp) for a in index)
            c.read = level * n + source
            c.weight = w[level] * value * grid.cell_volume
            c.norm_bound = float(np.bincount(c.target, np.abs(c.weight), n).max())
            what, where = "space-time kernel bound is", " at some target node"
        if c.norm_bound > 1 + 1e-12:
            raise NonlocalValidationError(f"{what} {c.norm_bound:.6g} > 1{where}")
    elif isinstance(spec, Convex):
        if len(spec.weights) != len(spec.parts) or not spec.parts:
            raise NonlocalValidationError("convex combination needs matching weights and parts")
        ws = np.asarray(spec.weights, dtype=float)
        for i, w in enumerate(ws):
            _finite(w, f"convex weights[{i}]")
        if np.any(ws <= 0):
            raise NonlocalValidationError("convex weights must be positive")
        if float(np.sum(ws)) > 1 + 1e-12:
            raise NonlocalValidationError(f"convex weights sum to {float(np.sum(ws)):.6g} > 1")
        c.norm_bound = 0.0
        for i, (w, part) in enumerate(zip(ws, spec.parts)):
            try:
                sub = _compile(part, grid)
            except NonlocalValidationError as e:  # named by its part
                raise NonlocalValidationError(str(e), f"parts[{i}]" + (e.entry and f".{e.entry}")) from None
            c.level_weights += w * sub.level_weights
            c.read = np.concatenate([c.read, sub.read])
            c.target = np.concatenate([c.target, sub.target])
            c.weight = np.concatenate([c.weight, w * sub.weight])
            c.max_level = max(c.max_level, sub.max_level)
            c.snap_distances += sub.snap_distances
            c.norm_bound += w * sub.norm_bound
    else:
        raise NonlocalValidationError(f"unknown non-local operator type {type(spec)!r}")
    return c


def _snap_nodes(grid: Grid, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat lexicographic index of the interior node nearest to each row of
    coords (rows, dim), and per axis whether that node lies within half a
    step.  Along each axis the nearest node is argmin |xs - c| with ties to
    the lower index; distances are monotone on either side of c, so it is
    one of the two nodes around c's sorted position."""
    idx = np.zeros(len(coords), dtype=np.intp)
    ok = np.empty(coords.shape, dtype=bool)
    for a in range(grid.dim):
        xs = grid.axis_coords(a)
        c = coords[:, a]
        hi = np.minimum(np.searchsorted(xs, c), len(xs) - 1)
        lo = np.maximum(hi - 1, 0)
        j = np.where(np.abs(xs[lo] - c) <= np.abs(xs[hi] - c), lo, hi)
        ok[:, a] = np.abs(xs[j] - c) <= 0.5 * grid.hx[a]
        idx = idx * len(xs) + j
    return idx, ok


# a number as np.loadtxt reads it, once stripped of whitespace: Python's float
# grammar in ASCII and without underscores
_NUMBER = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)", re.ASCII | re.IGNORECASE)


def _kernel_csv_line(fh, start: int, width: int, row: int = -1) -> str | None:
    """Scan the kernel CSV's data rows again from `start`, one at a time:
    'line N' for the non-empty data row numbered `row` (from 0), else the
    first row that np.loadtxt refuses, as 'line N has ... fields, ...' or
    'line N: why', else None.  N is the physical line; the header is line 1."""
    fh.seek(start)
    reader = csv.reader(fh)
    try:
        for i, fields in enumerate(f for f in reader if f):
            line = reader.line_num + 1
            if i == row:
                return f"line {line}"
            if len(fields) != width:
                return f"line {line} has {len(fields)} fields, the header has {width}"
            bad = [v for v in fields if not _NUMBER.fullmatch(v.strip())]
            if bad:
                return f"line {line}: could not convert string to float: {bad[0]!r}"
    except csv.Error as err:  # a lone CR inside a line, say
        return f"line {reader.line_num + 1}: {err}"
    return None


def kernel_from_csv(fh, grid: Grid, theta: float) -> KernelEntries:
    """Read a tabulated space-time kernel from the CSV file object `fh`, with
    columns t,x1[,x2],y1[,y2],k.

    Each row sets k at one (level, source node y, target node x): t snaps to
    the nearest grid level (ties round down) and must lie in [0, T] and at or
    below theta's level; each coordinate snaps to the nearest interior node
    (ties to the lower node) and must lie within half a step of it.  Entries
    that no row sets are zero, and a later row for the same (level, y, x)
    overwrites an earlier one.  Every non-empty row has exactly as many
    fields as the header, and every field is a finite number in Python's
    float grammar written in ASCII without underscores (surrounding
    whitespace and double quotes allowed); a row that breaks any of these
    rules raises NonlocalValidationError naming its 1-based physical line.
    Returns the KernelEntries for SpaceTimeKernel(theta, ...), one per
    (level, y, x) set, in that order, as read-only arrays, so that one
    reading can be shared.

    The data rows are parsed by one np.loadtxt call streaming from `fh`; only
    when it refuses the file, or a parsed row breaks a rule, are the rows read
    again one at a time to name the line.
    """
    k_theta, _ = _snap_before_T(grid, theta, "theta")
    n_int = grid.n_interior
    dim = grid.dim
    expected = ["t"] + [f"x{i+1}" for i in range(dim)] + [f"y{i+1}" for i in range(dim)] + ["k"]
    width = len(expected)
    header = next(csv.reader([fh.readline()]))
    if [h.strip() for h in header] != expected:
        raise NonlocalValidationError(f"kernel CSV header must be {','.join(expected)}")

    start = fh.tell()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # header only
            rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"')
        if rows.size == 0:
            rows = rows.reshape(0, width)
        elif rows.shape[1] != width:  # np.loadtxt takes the first row's width for every row
            raise ValueError(f"rows of {rows.shape[1]} fields, the header has {width}")
    except UnicodeDecodeError:
        raise
    except ValueError as err:
        where = _kernel_csv_line(fh, start, width)
        raise NonlocalValidationError(f"kernel CSV {where}" if where else f"kernel CSV: {err}") from None

    t, xs, ys, kv = rows[:, 0], rows[:, 1 : 1 + dim], rows[:, 1 + dim : 1 + 2 * dim], rows[:, -1]
    finite = np.isfinite(rows).all(axis=1)
    timely = grid.time_in_range(t)
    lvl = grid.nearest_levels(np.where(timely, t, 0.0))
    y, y_ok = _snap_nodes(grid, ys)
    x, x_ok = _snap_nodes(grid, xs)
    bad = ~(finite & timely & (lvl <= k_theta) & y_ok.all(axis=1) & x_ok.all(axis=1))
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            why = f"k = {kv[i]} is not finite" if np.isfinite(rows[i, :-1]).all() else "t, x and y must be finite"
        elif not timely[i]:
            why = f"time {t[i]} outside [0, {grid.T}]"
        elif lvl[i] > k_theta:
            why = f"row at t = {t[i]} lies beyond theta = {theta}"
        else:
            off = np.concatenate([ys[i][~y_ok[i]], xs[i][~x_ok[i]]])
            why = f"coordinate {off[0]} is not a grid node"
        raise NonlocalValidationError(f"kernel CSV {_kernel_csv_line(fh, start, width, i)}: {why}")

    flat = (lvl * n_int + y) * n_int + x
    # each address's last row, in (level, y, x) order
    _, first_from_end = np.unique(flat[::-1], return_index=True)
    last = len(flat) - 1 - first_from_end
    entries = KernelEntries(lvl[last], y[last], x[last], kv[last])
    for a in entries:
        a.flags.writeable = False
    return entries
