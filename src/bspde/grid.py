"""Uniform space-time grids on axis-aligned boxes, and the fields living on them.

Fields store interior nodes only: the homogeneous Dirichlet wall is structural,
not data. All grids are uniform per axis; time levels are k*dt, k = 0..nt.
`Grid.mesh` gives the node coordinates in node shape to every sampler of a
function or expression on the grid.
Between nodes a field is multilinear and zero on the wall: `Interpolant` is
the one implementation of that rule, read by the path estimator (terminal
data, source, grid solution).  `stepper.CauchyProblem` refuses a field on
another grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Doubles a backward solve may hold, checked before anything is allocated: 2 GiB, a
# quarter of 8 GB and 500 times the largest grid in the test suite (41 x 41 at nt 200).
MAX_SOLVE_DOUBLES = 2**28

# (level, node) points that a sampler of every level evaluates at once: the
# coefficient survey, the stepper's level store and residual, and the CLI's
# source sampler take the levels in chunks of at most this many points (one
# level when a level alone has more).  So a 33 x 33 grid at nt = 40 takes 5
# chunks of 8 levels, and a 129 x 129 grid (16129 interior nodes) one level
# at a time, which keeps its temporaries to one level's.  2**14 points made
# the grid-2d benchmark's peak RSS 0.3-0.7 MB larger for no measurable gain.
CHUNK_POINTS = 2**13


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Domain:
    """Axis-aligned open box in 1 or 2 dimensions."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise GridError("lo and hi must have the same length")
        if self.dim not in (1, 2):
            raise GridError(f"only 1-D and 2-D boxes are supported, got dim={self.dim}")
        for a, b in zip(self.lo, self.hi):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise GridError("domain bounds must be finite")
            if not a < b:
                raise GridError(f"degenerate domain: lo={a} >= hi={b}")
            if not math.isfinite(b - a):
                raise GridError(f"width hi - lo is not finite: lo={a}, hi={b}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def contains(self, x) -> bool:
        """Strict interior membership."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(x > np.asarray(self.lo)) and np.all(x < np.asarray(self.hi)))


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on domain x [0, T].

    nx counts nodes per axis including both boundary nodes, so there are
    nx[i] - 2 interior nodes along axis i.  dt = T / nt exactly.
    """

    domain: Domain
    nx: tuple[int, ...]
    nt: int
    T: float
    hx: tuple[float, ...] = field(init=False)
    dt: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "nx", tuple(int(n) for n in self.nx))
        if len(self.nx) != self.domain.dim:
            raise GridError("nx must give one node count per axis")
        for n in self.nx:
            if n < 3:
                raise GridError(f"need at least 3 nodes per axis (2 boundary + 1 interior), got {n}")
        if self.nt < 1:
            raise GridError(f"nt must be >= 1, got {self.nt}")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise GridError(f"time horizon must be positive and finite, got {self.T}")
        # a field of doubles on every node of every level must fit in one numpy array
        if 8 * (self.nt + 1) * math.prod(self.nx) > np.iinfo(np.intp).max:
            raise GridError("nx and nt ask for more nodes than a numpy array can hold")
        self.check_solve_size()
        object.__setattr__(
            self,
            "hx",
            tuple(w / (n - 1) for w, n in zip(self.domain.widths, self.nx)),
        )
        object.__setattr__(self, "dt", self.T / self.nt)
        for h in self.hx:
            if h * h == math.inf:
                raise GridError(f"grid step {h} is too wide: its square overflows")

    def check_solve_size(self, store: int = 0) -> None:
        """Refuse a backward solve on this grid that would hold more than
        MAX_SOLVE_DOUBLES doubles: the solution on every level, one level's
        band LU factor, (3w + 1) rows of n_interior, where the stepper's
        half-bandwidth w is 1 in 1-D and (interior nodes of the last axis) + 1
        in 2-D, and `store` more, the stepper's level store."""
        w = 1 if len(self.nx) == 1 else self.nx[-1] - 1
        doubles = (self.nt + 1) * math.prod(self.nx) + (3 * w + 1) * math.prod(n - 2 for n in self.nx) + store
        if doubles > MAX_SOLVE_DOUBLES:
            need = f"nx = {list(self.nx)} and nt = {self.nt} ask a solve to hold {doubles:.3g} doubles"
            held = f", {store:.3g} of them in the level store" if store else ""
            raise GridError(f"{need}{held}, more than the limit of {MAX_SOLVE_DOUBLES:.3g}")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(n - 2 for n in self.nx)

    @property
    def n_interior(self) -> int:
        return int(np.prod(self.interior_shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.hx))

    def axis_coords(self, axis: int, interior_only: bool = True) -> np.ndarray:
        lo = self.domain.lo[axis]
        xs = lo + self.hx[axis] * np.arange(self.nx[axis])
        return xs[1:-1] if interior_only else xs

    def mesh(self, interior_only: bool = True) -> tuple[np.ndarray, ...]:
        """Node coordinates, one array per axis, each in node shape:
        interior_shape, or nx when every node (the wall included) is asked for."""
        axes = [self.axis_coords(a, interior_only) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def interior_points(self) -> np.ndarray:
        """Coordinates of interior nodes, shape (n_interior, dim), lexicographic order."""
        return np.stack([m.ravel() for m in self.mesh()], axis=-1)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt + 1)

    def time_in_range(self, t):
        """Whether t lies in [0, T] (up to a relative 1e-12 above T); False for NaN.
        Works elementwise on arrays."""
        return (0.0 <= t) & (t <= self.T + 1e-12 * max(1.0, self.T))

    def nearest_levels(self, t) -> np.ndarray:
        """Nearest grid level of each time in range (see time_in_range); ties round down."""
        raw = np.asarray(t, dtype=float) / self.dt
        k = np.floor(raw + 0.5)
        k = np.where(k - raw == 0.5, k - 1, k)  # tie: round down
        return np.clip(k, 0, self.nt).astype(np.intp)

    def nearest_level(self, t: float) -> tuple[int, float]:
        """Snap a time to the nearest grid level; ties round down.

        Returns (level, snap_distance).
        """
        if not self.time_in_range(t):
            raise GridError(f"time {t} outside [0, {self.T}]")
        k = int(self.nearest_levels(t))
        return k, abs(k * self.dt - t)


def level_chunks(n_levels: int, per_level: int) -> list[range]:
    """Levels 0..n_levels - 1 in consecutive ranges of at most
    CHUNK_POINTS // per_level levels (at least one).  An expression has the
    same bits whichever chunks its levels are sampled in (see `exprdsl`)."""
    step = max(1, CHUNK_POINTS // per_level)
    return [range(lo, min(lo + step, n_levels)) for lo in range(0, n_levels, step)]


def sample_levels(chunks: list[range], sample):
    """(levels, sample(levels)) for each range of `chunks` in turn.  A range
    whose sample raises a ValueError (a coefficient or an expression that
    does not evaluate) is sampled again one level at a time, so the error is
    the one that a loop over single levels meets first."""
    for levels in chunks:
        try:
            result = sample(levels)
        except ValueError:
            if len(levels) == 1:
                raise
            for j in levels:
                yield range(j, j + 1), sample(range(j, j + 1))
        else:
            yield levels, result


def level_points(points: np.ndarray, times: np.ndarray, levels: range) -> tuple[np.ndarray, np.ndarray]:
    """`points` (npts, dim) once per level of `levels`, level-major, and the
    time of each point, a single level as any other."""
    return np.tile(points, (len(levels), 1)), np.repeat(times[levels.start : levels.stop], len(points))


def make_grid(domain: Domain, nx, nt: int, T: float) -> Grid:
    """Build a uniform grid; nx may be an int (same count on every axis) or a sequence."""
    if isinstance(nx, (int, np.integer)):
        nx = (int(nx),) * domain.dim
    return Grid(domain=domain, nx=tuple(nx), nt=int(nt), T=float(T))


@dataclass(frozen=True)
class SpaceField:
    """Values at interior nodes of one time slice; the boundary is implicitly 0."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.interior_shape:
            raise GridError(f"field shape {v.shape} != interior shape {self.grid.interior_shape}")
        if not np.all(np.isfinite(v)):
            raise GridError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, grid: Grid) -> "SpaceField":
        return cls(grid, np.zeros(grid.interior_shape))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "SpaceField":
        """Sample fn at interior nodes; fn takes dim positional coordinates."""
        return cls(grid, np.asarray(fn(*grid.mesh()), dtype=float) * np.ones(grid.interior_shape))


@dataclass(frozen=True)
class SpaceTimeField:
    """One interior-node slice per time level 0..nt on a shared grid."""

    grid: Grid
    values: np.ndarray  # shape (nt + 1, *interior_shape)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        shape = (self.grid.nt + 1,) + self.grid.interior_shape
        if v.shape != shape:
            raise GridError(f"space-time field shape {v.shape} != (nt + 1, *interior shape) {shape}")
        if not np.all(np.isfinite(v)):
            raise GridError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def n_levels(self) -> int:
        return self.values.shape[0]

    def level(self, k: int) -> SpaceField:
        return SpaceField(self.grid, self.values[k])

    @classmethod
    def zeros(cls, grid: Grid) -> "SpaceTimeField":
        return cls(grid, np.zeros((grid.nt + 1,) + grid.interior_shape))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "SpaceTimeField":
        """Sample fn(*coords, t) at every interior node and time level."""
        mesh, ones = grid.mesh(), np.ones(grid.interior_shape)
        return cls(grid, np.stack([np.asarray(fn(*mesh, t), dtype=float) * ones for t in grid.times()]))


def sup_norm(f: SpaceField | SpaceTimeField) -> float:
    """Max absolute node value (over all time levels for a space-time field)."""
    v = f.values
    return float(np.max(np.abs(v))) if v.size else 0.0


class Interpolant:
    """Multilinear interpolation on `grid`, zero on the wall, of each level of
    a stack of fields of shape (n_levels, *interior_shape); a space field is
    a one-level stack.  A point outside the box reads the nearest edge."""

    def __init__(self, grid: Grid, levels: np.ndarray):
        self.grid = grid
        self.full = np.zeros((levels.shape[0],) + grid.nx)
        self.full[(slice(None),) + (slice(1, -1),) * grid.dim] = levels

    def __call__(self, pts: np.ndarray, level: int = 0) -> np.ndarray:
        """Level `level` at the positions pts, shape (n, dim); each of the
        2**dim corners of a cell is read with one `take` at the flat index
        of the cell's first node plus the corner's offset, and the corners
        are summed with the first axis varying fastest."""
        g = self.grid
        full = self.full[level].ravel()
        base, offsets, weights = None, [0], []
        for a, n in enumerate(g.nx):  # flat indices are row-major: i * n + j
            u = (pts[:, a] - g.domain.lo[a]) / g.hx[a]  # node i of the axis at i
            c = np.clip(np.floor(u).astype(np.intp), 0, n - 2)
            f = np.clip(u - c, 0.0, 1.0)
            base = c if base is None else base * n + c
            offsets = [o * n + side for side in (0, 1) for o in offsets]
            weights.append((1 - f, f))
        total = None
        for corner, offset in enumerate(offsets):
            term = full.take(base + offset if offset else base)
            for a, w in enumerate(weights):
                term = term * w[(corner >> a) & 1]
            total = term if total is None else total + term
        return total


def field_to_csv(f: SpaceField | SpaceTimeField) -> str:
    """CSV dump: header t,x1[,x2],u; rows time-major then lexicographic node order.
    Numbers are written as the repr of Python floats."""
    grid = f.grid
    if isinstance(f, SpaceField):
        levels = [(grid.T, f.values)]
    else:
        times = grid.times()
        levels = [(times[k], f.values[k]) for k in range(f.n_levels)]
    coord_cols = ["x1"] if grid.dim == 1 else ["x1", "x2"]
    # one level's rows as the pieces t, ",x1[,x2],", u, "\n" of each row in turn;
    # the coordinate and newline pieces stay, t and u are replaced per level
    parts = ["\n"] * (4 * grid.n_interior)
    parts[1::4] = ["," + ",".join(map(repr, p)) + "," for p in grid.interior_points().tolist()]
    chunks = [",".join(["t"] + coord_cols + ["u"]) + "\n"]
    for t, v in levels:
        parts[0::4] = [repr(float(t))] * grid.n_interior
        parts[2::4] = map(repr, v.ravel().tolist())
        # one string per level, so the value strings of only one level are alive at a time
        chunks.append("".join(parts))
    return "".join(chunks)
