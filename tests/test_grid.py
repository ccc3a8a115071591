import numpy as np
import pytest

from bspde import (
    Domain,
    GridError,
    SpaceField,
    SpaceTimeField,
    field_to_csv,
    make_grid,
    sup_norm,
)

from bspde.grid import Interpolant
from conftest import random_field


def test_make_grid_1d_spacing():
    g = make_grid(Domain((0.0,), (1.0,)), 5, 4, 1.0)
    assert g.hx == (0.25,)
    assert g.dt == 0.25
    assert g.n_interior == 3
    assert np.allclose(g.axis_coords(0), [0.25, 0.5, 0.75])


def test_make_grid_2d_counts():
    g = make_grid(Domain((0.0, 0.0), (1.0, 2.0)), (5, 9), 10, 0.5)
    assert g.hx == (0.25, 0.25)
    assert g.interior_shape == (3, 7)
    assert g.dt == 0.05


def test_make_grid_rejects_bad_inputs():
    dom = Domain((0.0,), (1.0,))
    with pytest.raises(GridError):
        make_grid(dom, 2, 4, 1.0)
    with pytest.raises(GridError):
        make_grid(dom, 5, 4, 0.0)
    with pytest.raises(GridError):
        make_grid(dom, 5, 0, 1.0)
    with pytest.raises(GridError):
        Domain((0.0,), (0.0,))
    with pytest.raises(GridError):
        Domain((0.0,), (np.inf,))


def test_sup_norm_cases():
    g = make_grid(Domain((0.0,), (1.0,)), 101, 4, 1.0)
    assert sup_norm(SpaceField.zeros(g)) == 0.0
    v = np.zeros(g.interior_shape)
    v[3] = -3.0
    assert sup_norm(SpaceField(g, v)) == 3.0
    f = SpaceField.from_function(g, lambda x: np.sin(np.pi * x))
    assert sup_norm(f) == pytest.approx(1.0, abs=1e-12)  # x = 0.5 is a node


def test_sup_norm_is_a_norm():
    rng = np.random.default_rng(0)
    g = make_grid(Domain((0.0,), (1.0,)), 17, 5, 1.0)
    for _ in range(50):
        a = random_field(rng, g)
        b = random_field(rng, g)
        s = float(rng.uniform(-3, 3))
        assert sup_norm(SpaceField(g, s * a.values)) == pytest.approx(abs(s) * sup_norm(a), rel=1e-14)
        assert sup_norm(SpaceField(g, a.values + b.values)) <= sup_norm(a) + sup_norm(b) + 1e-15


@pytest.mark.parametrize("dim", [1, 2])
def test_interpolant_reproduces_cellwise_multilinear_data(dim):
    # a sum of products of per-axis hats, piecewise linear between the nodes
    # and zero at both walls, is multilinear on each cell and zero on the
    # wall; np.interp evaluates it independently (and reads the end value
    # outside the box)
    rng = np.random.default_rng(70 + dim)
    lo, hi, nx = (-0.5, 0.25)[:dim], (1.5, 2.0)[:dim], (7, 5)[:dim]
    g = make_grid(Domain(lo, hi), nx, 3, 1.0)
    nodes = [g.axis_coords(a, interior_only=False) for a in range(dim)]
    hats = [[np.r_[0.0, rng.standard_normal(n - 2), 0.0] for n in nx] for _ in range(3)]

    def exact(pts):
        return sum(np.prod([np.interp(pts[:, a], nodes[a], h[a]) for a in range(dim)], axis=0) for h in hats)

    nodal = exact(g.interior_points()).reshape(g.interior_shape)
    interp = Interpolant(g, np.stack([nodal, -2.0 * nodal]))
    width = np.asarray(hi) - np.asarray(lo)
    inside = rng.uniform(lo, hi, size=(200, dim))
    faces = rng.uniform(lo, hi, size=(200, dim))  # one coordinate on a node line, the wall included
    axis = rng.integers(0, dim, size=200)
    faces[np.arange(200), axis] = [nodes[a][rng.integers(0, nx[a])] for a in axis]
    outside = rng.uniform(np.asarray(lo) - width, np.asarray(hi) + width, size=(200, dim))
    outside = outside[~np.all((outside >= lo) & (outside <= hi), axis=1)]
    pts = np.concatenate([inside, faces, outside])
    assert len(outside) > 50
    for level, scale in ((0, 1.0), (1, -2.0)):
        assert np.max(np.abs(interp(pts, level) - scale * exact(pts))) <= 1e-14
    # a point outside the box reads the nearest point of its edge
    assert np.array_equal(interp(outside), interp(np.clip(outside, lo, hi)))


def _fancy_index_interpolate(interp, pts, level=0):
    """`Interpolant.__call__` as it was before its corners were read from flat
    node indices: per axis the clipped cell and fraction, then each corner
    gathered by fancy indexing with one index array per axis."""
    g = interp.grid
    coords = [(pts[:, a] - g.domain.lo[a]) / g.hx[a] for a in range(g.dim)]
    full = interp.full[level]
    nodes, weights = [], []
    for n, u in zip(g.nx, coords):
        c = np.clip(np.floor(u).astype(int), 0, n - 2)
        f = np.clip(u - c, 0.0, 1.0)
        nodes.append((c, c + 1))
        weights.append((1 - f, f))
    total = None
    for corner in range(1 << len(coords)):
        sides = [(corner >> a) & 1 for a in range(len(coords))]
        term = full[tuple(i[s] for i, s in zip(nodes, sides))]
        for w, s in zip(weights, sides):
            term = term * w[s]
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("dim", [1, 2])
def test_interpolant_matches_the_fancy_index_reference_bit_for_bit(dim):
    rng = np.random.default_rng(90 + dim)
    lo, hi, nx = (-0.5, 0.25)[:dim], (1.5, 2.0)[:dim], (7, 12)[:dim]  # unequal axes: a swapped stride shows
    g = make_grid(Domain(lo, hi), nx, 3, 1.0)
    nodes = [g.axis_coords(a, interior_only=False) for a in range(dim)]
    interp = Interpolant(g, rng.standard_normal((4,) + g.interior_shape))
    width = np.asarray(hi) - np.asarray(lo)
    inside = rng.uniform(lo, hi, size=(300, dim))
    on_nodes = np.stack([nodes[a][rng.integers(0, nx[a], size=300)] for a in range(dim)], axis=-1)
    on_wall = rng.uniform(lo, hi, size=(300, dim))
    axis = rng.integers(0, dim, size=300)
    on_wall[np.arange(300), axis] = np.stack([lo, hi])[rng.integers(0, 2, size=300), axis]
    outside = rng.uniform(np.asarray(lo) - width, np.asarray(hi) + width, size=(300, dim))
    outside = outside[~np.all((outside >= lo) & (outside <= hi), axis=1)]
    assert len(outside) > 100
    for pts in (inside, on_nodes, on_wall, outside):
        for level in range(4):
            want = _fancy_index_interpolate(interp, pts, level)
            assert interp(pts, level).tobytes() == want.tobytes()


def test_nearest_level_snapping_ties_round_down():
    g = make_grid(Domain((0.0,), (1.0,)), 5, 4, 1.0)  # dt = 0.25
    assert g.nearest_level(0.3) == (1, pytest.approx(0.05))
    k, dist = g.nearest_level(0.375)  # exact tie between 1 and 2
    assert k == 1
    assert dist == pytest.approx(0.125)


def test_field_csv_layout():
    g = make_grid(Domain((0.0,), (1.0,)), 4, 2, 1.0)
    f = SpaceTimeField.from_function(g, lambda x, t: x + t)
    csv = field_to_csv(f)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,x1,u"
    # time-major: levels 0, 1, 2 with 2 interior nodes each
    assert len(lines) == 1 + 3 * 2
    t0, x0, u0 = (float(v) for v in lines[1].split(","))
    assert (t0, x0) == (0.0, pytest.approx(1 / 3))
    assert u0 == pytest.approx(1 / 3)


def _reference_field_to_csv(f):
    """The row-by-row writer: repr of every coordinate and value, row by row."""
    grid = f.grid
    if isinstance(f, SpaceField):
        levels = [(grid.T, f.values)]
    else:
        levels = [(grid.times()[k], f.values[k]) for k in range(f.n_levels)]
    rows = ["t," + ("x1" if grid.dim == 1 else "x1,x2") + ",u\n"]
    for t, v in levels:
        for p, val in zip(grid.interior_points(), v.ravel()):
            coords = ",".join(repr(float(c)) for c in p)
            rows.append(f"{float(t)!r},{coords},{float(val)!r}\n")
    return "".join(rows)


@pytest.mark.parametrize("nx", [6, (5, 4)])
def test_field_csv_matches_the_row_by_row_writer(nx):
    rng = np.random.default_rng(21)
    lo, hi = ((0.1,), (2.3,)) if isinstance(nx, int) else ((-1.0, 0.3), (2.0, 1.7))
    g = make_grid(Domain(lo, hi), nx, 5, 0.7)
    v = rng.standard_normal((g.nt + 1,) + g.interior_shape) * 10.0 ** rng.integers(-30, 30, (g.nt + 1,) + g.interior_shape)
    v.flat[:3] = (0.0, -0.0, 1e300)
    for f in (SpaceTimeField(g, v), SpaceField(g, v[2])):
        assert field_to_csv(f) == _reference_field_to_csv(f)


@pytest.mark.parametrize("nx", [6, (5, 4)])
def test_a_space_time_field_holds_every_level_or_is_refused(nx):
    lo, hi = ((0.0,), (1.0,)) if isinstance(nx, int) else ((0.0, 0.0), (1.0, 1.0))
    g = make_grid(Domain(lo, hi), nx, 5, 1.0)
    for n_levels in (1, 2, g.nt, g.nt + 2):
        with pytest.raises(GridError, match=r"!= \(nt \+ 1, \*interior shape\) \(6, "):
            SpaceTimeField(g, np.zeros((n_levels,) + g.interior_shape))
    with pytest.raises(GridError, match="nt \\+ 1"):
        SpaceTimeField(g, np.zeros(g.interior_shape))  # one level without its axis
    assert SpaceTimeField.zeros(g).n_levels == g.nt + 1


def test_boundary_is_structurally_zero():
    # fields carry interior nodes only; the wall never enters any norm
    g = make_grid(Domain((0.0,), (1.0,)), 5, 2, 1.0)
    f = SpaceField.from_function(g, lambda x: np.ones_like(x))
    assert f.values.shape == (3,)
    assert sup_norm(f) == 1.0


@pytest.mark.parametrize("lo,hi,nx", [((0.0,), (1.0,), (6,)), ((1e6, 0.0), (1e6 + 1, 1.0), (5, 7))])
def test_mesh_agrees_with_axis_coords_and_interior_points(lo, hi, nx):
    g = make_grid(Domain(lo, hi), nx, 3, 1.0)
    for interior_only, shape in ((True, g.interior_shape), (False, g.nx)):
        mesh = g.mesh(interior_only=interior_only)
        assert len(mesh) == g.dim
        for a, m in enumerate(mesh):
            # coordinate a varies along array axis a alone
            along_a = [1] * g.dim
            along_a[a] = -1
            assert m.shape == shape
            assert np.array_equal(m, np.broadcast_to(g.axis_coords(a, interior_only).reshape(along_a), shape))
    assert all(np.array_equal(m, d) for m, d in zip(g.mesh(interior_only=True), g.mesh()))
    assert np.array_equal(g.interior_points(), np.stack([m.ravel() for m in g.mesh()], axis=-1))
