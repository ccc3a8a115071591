import io

import numpy as np
import pytest

from bspde import (
    Convex,
    Domain,
    EvalError,
    InitialValue,
    KernelEntries,
    NonlocalValidationError,
    PointInTime,
    SpaceField,
    SpaceTimeField,
    SpaceTimeKernel,
    TimeKernel,
    TwoPoint,
    kernel_from_csv,
    make_grid,
    sup_norm,
)
from bspde.exprdsl import parse
from bspde.nonlocal_ops import _resample_time_kernel

from conftest import apply_nonlocal, dense_entries, random_spec, random_st_field, truncation_check, validate_spec


@pytest.fixture
def grid():
    return make_grid(Domain((0.0,), (1.0,)), 13, 20, 1.0)


def test_two_point_weight_bound(grid):
    with pytest.raises(NonlocalValidationError):
        validate_spec(TwoPoint(0.7, 0.2, 0.4, 0.5), grid)
    rep = validate_spec(TwoPoint(0.6, 0.2, 0.4, 0.5), grid)
    assert rep.norm_bound == pytest.approx(1.0)
    assert rep.theta == pytest.approx(0.5)


def test_time_kernel_constant_bound(grid):
    rep = validate_spec(TimeKernel(theta=0.5, kernel=2.0), grid)
    assert rep.norm_bound == pytest.approx(1.0)
    with pytest.raises(NonlocalValidationError):
        validate_spec(TimeKernel(theta=0.5, kernel=2.1), grid)


def test_point_at_terminal_time_rejected(grid):
    with pytest.raises(NonlocalValidationError):
        validate_spec(PointInTime(0.5, grid.T), grid)
    with pytest.raises(NonlocalValidationError):
        validate_spec(InitialValue(1.2), grid)


def test_initial_value_reads_level_zero(grid):
    rng = np.random.default_rng(1)
    u = random_st_field(rng, grid)
    out = apply_nonlocal(InitialValue(1.0), u)
    assert np.array_equal(out.values, u.values[0])


def test_mean_kernel_exact_on_time_constant(grid):
    u = SpaceTimeField.from_function(grid, lambda x, t: np.cos(3 * x))
    out = apply_nonlocal(TimeKernel(theta=0.5, kernel=1 / 0.5), u)
    assert np.allclose(out.values, np.cos(3 * grid.axis_coords(0)), atol=1e-13)


def test_convex_of_identical_parts_is_identity(grid):
    rng = np.random.default_rng(2)
    u = random_st_field(rng, grid)
    combo = Convex(weights=(0.5, 0.5), parts=(InitialValue(1.0), InitialValue(1.0)))
    assert np.allclose(apply_nonlocal(combo, u).values, u.values[0], atol=1e-15)


def test_snap_distance_reported():
    g = make_grid(Domain((0.0,), (1.0,)), 5, 4, 1.0)  # dt = 0.25
    rep = validate_spec(PointInTime(0.5, 0.3), g)
    assert rep.theta == pytest.approx(0.25)
    assert rep.snap_distances == (pytest.approx(0.05),)


def test_expression_time_kernel(grid):
    rep = validate_spec(TimeKernel(theta=0.5, kernel="2*t"), grid)
    # trapezoid of |2t| over [0, 0.5] is 0.25 exactly (piecewise linear)
    assert rep.norm_bound == pytest.approx(0.25)


KERNEL_GRIDS = {
    "1d-one-chunk": make_grid(Domain((0.0,), (1.0,)), 13, 20, 1.0),
    "2d-one-chunk": make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 9, 40, 2.0),
    "1d-chunks": make_grid(Domain((0.0,), (1.0,)), 3, 20000, 1.0),  # 20000 levels: chunks of 8192, 8192 and 3616
}


@pytest.mark.parametrize("grid_name", sorted(KERNEL_GRIDS))
@pytest.mark.parametrize("kernel", ["1.5*exp(-t)", "2", "t^0.5", "(1 + t)^t"])
def test_an_expression_time_kernel_has_the_bits_of_a_loop_over_single_levels(grid_name, kernel):
    """The kernel on levels 0..nt - 1, t bound to a chunk of levels at a time,
    against each level alone with t bound as one number."""
    g = KERNEL_GRIDS[grid_name]
    e = parse(kernel)
    want = np.asarray([np.asarray(e.eval({"t": float(t)}), dtype=float) for t in g.times()[: g.nt]], dtype=float)
    assert _resample_time_kernel(kernel, g, g.nt).tobytes() == want.tobytes()


def test_an_expression_time_kernel_reports_the_fault_of_its_first_failing_level(grid):
    # level 2 is t = 0.1, a division by zero; every level above t = 0.3 takes the root of a negative value,
    # which is what one evaluation of every level at once would report
    with pytest.raises(NonlocalValidationError, match="^division by zero$") as err:
        validate_spec(TimeKernel(theta=0.5, kernel="sqrt(0.3 - t) + 1/(t - 0.1)"), grid)
    assert err.value.entry == "kernel"


def test_space_time_kernel_shapes_and_bound(grid):
    n = grid.n_interior
    lvl = 4
    k = np.ones((lvl + 1, n, n))
    spec = SpaceTimeKernel(theta=lvl * grid.dt, kernel=dense_entries(k))
    rep = validate_spec(spec, grid)
    # integral of 1 over y in D and t in [0, 0.2]: cellvol*n*dt-sum = ~0.2 * (11/12)
    assert 0 < rep.norm_bound <= 1
    with pytest.raises(NonlocalValidationError, match="bound is 3.66667 > 1"):
        validate_spec(SpaceTimeKernel(theta=lvl * grid.dt, kernel=dense_entries(k * 20.0)), grid)


@pytest.mark.parametrize("form", ["time", "space-time"])
def test_a_kernel_bound_above_one_by_more_than_rounding_is_refused(grid, form):
    """The bound check forgives rounding (a relative 1e-12) and no more: a
    kernel scaled to a bound of 1 passes, and one scaled to 1 + 1e-9 does not."""

    def spec(scale):
        if form == "time":
            return TimeKernel(theta=0.5, kernel=2.0 * scale)
        k = np.ones((5, grid.n_interior, grid.n_interior))
        return SpaceTimeKernel(theta=4 * grid.dt, kernel=dense_entries(scale * k))

    unit = validate_spec(spec(1.0), grid).norm_bound
    assert validate_spec(spec(1 / unit), grid).norm_bound == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(NonlocalValidationError, match=r" > 1"):
        validate_spec(spec((1 + 1e-9) / unit), grid)


def _entries(**changes):
    """One valid entry, level 1, node 2 to node 3, k = 0.5, with some fields replaced."""
    fields = {"level": [1], "source": [2], "target": [3], "value": [0.5]} | changes
    return KernelEntries(*(np.asarray(v) for v in fields.values()))


@pytest.mark.parametrize(
    "kernel, message",
    [
        (np.ones((5, 11, 11)), "must be KernelEntries: four 1-D arrays of one length"),
        (_entries(value=[0.5, 0.5]), "must be KernelEntries: four 1-D arrays of one length"),
        (_entries(level=[[1]], source=[[2]], target=[[3]], value=[[0.5]]), "four 1-D arrays of one length"),
        (_entries(level=[1.0]), r"levels must be integers in \[0, 4\]"),
        (_entries(level=[5]), r"levels must be integers in \[0, 4\]"),
        (_entries(level=[-1]), r"levels must be integers in \[0, 4\]"),
        (_entries(source=[11]), r"source nodes must be integers in \[0, 10\]"),
        (_entries(source=[True]), r"source nodes must be integers in \[0, 10\]"),
        (_entries(target=[-1]), r"target nodes must be integers in \[0, 10\]"),
        (_entries(value=[np.nan]), "space-time kernel has non-finite values"),
        (_entries(value=[-np.inf]), "space-time kernel has non-finite values"),
    ],
)
def test_space_time_kernel_entries_that_break_a_check(grid, kernel, message):
    validate_spec(SpaceTimeKernel(theta=0.2, kernel=_entries()), grid)
    with pytest.raises(NonlocalValidationError, match=message):
        validate_spec(SpaceTimeKernel(theta=0.2, kernel=kernel), grid)


def test_apply_is_linear(grid):
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = random_spec(rng, grid)
        u, v = random_st_field(rng, grid), random_st_field(rng, grid)
        a, b = rng.uniform(-2, 2, 2)
        lhs = apply_nonlocal(spec, SpaceTimeField(grid, a * u.values + b * v.values)).values
        rhs = a * apply_nonlocal(spec, u).values + b * apply_nonlocal(spec, v).values
        denom = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) / denom <= 1e-13


def test_contractivity_battery(grid):
    rng = np.random.default_rng(4)
    for _ in range(200):
        spec = random_spec(rng, grid, max_bound=1.0)
        rep = validate_spec(spec, grid)
        u = random_st_field(rng, grid, scale=rng.uniform(0.5, 2.0))
        assert sup_norm(apply_nonlocal(spec, u)) <= rep.norm_bound * sup_norm(u) + 1e-12


def test_truncation_battery(grid):
    rng = np.random.default_rng(5)
    for _ in range(100):
        spec = random_spec(rng, grid)
        u = random_st_field(rng, grid)
        assert truncation_check(spec, u)


def test_truncation_negative_control(grid):
    # an operator that claims horizon 0.2 but reads t = 0.5 must fail the check
    rng = np.random.default_rng(6)
    u = random_st_field(rng, grid)
    spec = PointInTime(0.5, 0.5)
    assert truncation_check(spec, u)
    assert not truncation_check(spec, u, theta=0.2)
    assert truncation_check(InitialValue(0.7), u, theta=0.0)


def test_convex_weight_validation(grid):
    with pytest.raises(NonlocalValidationError):
        validate_spec(Convex(weights=(0.7, 0.6), parts=(InitialValue(1.0), InitialValue(1.0))), grid)
    with pytest.raises(NonlocalValidationError):
        validate_spec(Convex(weights=(-0.1,), parts=(InitialValue(1.0),)), grid)


@pytest.mark.parametrize(
    "spec,name",
    [
        (InitialValue(np.nan), "weight"),
        (PointInTime(np.nan, 0.5), "weight"),
        (TwoPoint(0.2, 0.2, np.nan, 0.5), "weight2"),
        (TwoPoint(np.inf, 0.2, 0.1, 0.5), "weight1"),
        (Convex(weights=(0.5, np.nan), parts=(InitialValue(1.0), InitialValue(0.5))), r"convex weights\[1\]"),
        (Convex(weights=(0.5,), parts=(InitialValue(np.nan),)), "weight"),
        (TimeKernel(theta=0.5, kernel="t^(-0.5)"), r"time kernel k\(0\.0\)"),
        (TimeKernel(theta=0.5, kernel="10^400"), r"time kernel k\(0\.0\)"),
        (TimeKernel(theta=0.9, kernel="exp(1000*t)"), r"time kernel k\(0\.75\)"),
    ],
)
def test_a_non_finite_weight_is_rejected_by_name(grid, spec, name):
    # abs(nan) > 1 and nan <= 0 are both False, so no bound check sees a NaN
    with pytest.raises(NonlocalValidationError, match=rf"^{name} = (nan|inf) is not finite$"):
        validate_spec(spec, grid)


@pytest.mark.parametrize(
    "samples,message",
    [
        ([[np.nan, 0.1], [0.5, 0.2]], r"a sample time must be finite, got nan"),
        ([[0.0, 0.1], [np.inf, 0.2]], r"a sample time must be finite, got inf"),
        ([[0, 0.1], [0, 0.9], [0.5, 0.9]], r"sampled time kernel: samples 0 \[0\.0, 0\.1\] and 1 \[0\.0, 0\.9\] share a time"),
        ([[0, 0.9], [0, 0.1], [0.5, 0.9]], r"sampled time kernel: samples 0 \[0\.0, 0\.9\] and 1 \[0\.0, 0\.1\] share a time"),
        ([[0.5, 0.9], [0.25, 0.1], [0.5, 0.2]], r"sampled time kernel: samples 0 \[0\.5, 0\.9\] and 2 \[0\.5, 0\.2\] share a time"),
    ],
    ids=["nan-time", "inf-time", "same-time", "same-time-swapped", "same-time-apart"],
)
def test_time_kernel_samples_without_one_time_order_are_rejected_by_name(grid, samples, message):
    # np.interp needs finite, strictly increasing times; any order of them would be a guess
    with pytest.raises(NonlocalValidationError, match=rf"^{message}$"):
        validate_spec(TimeKernel(theta=0.5, kernel=samples), grid)


@pytest.mark.parametrize(
    "spec,message",
    [
        (InitialValue(1.5), "|weight| = 1.5 exceeds 1"),
        (PointInTime(-2.0, 0.5), "|weight| = 2.0 exceeds 1"),
        (TwoPoint(0.7, 0.2, -0.5, 0.5), f"|weight1| + |weight2| = {0.7 + 0.5} exceeds 1"),
    ],
)
def test_a_point_coupling_over_the_bound_names_its_weights(grid, spec, message):
    with pytest.raises(NonlocalValidationError) as err:
        validate_spec(spec, grid)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "spec,entry",
    [
        (TwoPoint(0.5, 0.25, 0.25, 1.5), "t2"),
        (Convex(weights=(0.5, 0.5), parts=(InitialValue(0.5), TimeKernel(theta=-0.1, kernel=1.0))), "parts[1].theta"),
        (Convex(weights=(0.5,), parts=(Convex(weights=(0.5, 0.5), parts=(InitialValue(0.5), PointInTime(0.5, 1.0))),)), "parts[0].parts[1].t1"),
        (Convex(weights=(0.5,), parts=(TimeKernel(theta=0.5, kernel="sqrt(t - 2)"),)), "parts[0].kernel"),
        (TimeKernel(theta=0.5, kernel=2.1), ""),
        (TimeKernel(theta=0.5, kernel="x1"), "kernel"),
        (TimeKernel(theta=0.5, kernel=[[np.nan, 1.0], [0.5, 1.0]]), "kernel[0][0]"),
        (Convex(weights=(0.5,), parts=(TimeKernel(theta=0.5, kernel="x"),)), "parts[0].kernel"),
        (TimeKernel(theta=0.5, kernel=True), "kernel"),  # not the constant kernel 1
        (TimeKernel(theta=0.5, kernel=np.False_), "kernel"),
    ],
    ids=[
        "time",
        "part-time",
        "nested-part-time",
        "part-eval",
        "bound",
        "kernel-var",
        "kernel-nan-time",
        "part-kernel-var",
        "kernel-bool",
        "kernel-numpy-bool",
    ],
)
def test_a_coupling_fault_names_its_entry(grid, spec, entry):
    with pytest.raises(NonlocalValidationError) as err:
        validate_spec(spec, grid)
    assert err.value.entry == entry
    assert not isinstance(err.value, EvalError)


def test_effective_theta_is_max_over_parts(grid):
    combo = Convex(
        weights=(0.3, 0.3),
        parts=(PointInTime(1.0, 0.25), TimeKernel(theta=0.6, kernel=1.0)),
    )
    rep = validate_spec(combo, grid)
    assert rep.theta == pytest.approx(0.6)
    assert rep.norm_bound == pytest.approx(0.3 * 1.0 + 0.3 * 0.6)


def test_kernel_csv_roundtrip():
    g = make_grid(Domain((0.0,), (1.0,)), 5, 4, 1.0)
    rows = ["t,x1,y1,k"]
    # k(t, y, x) = 1 at t=0 coupling node y=0.25 into every x
    for x in (0.25, 0.5, 0.75):
        rows.append(f"0.0,{x},0.25,1.0")
    kern = kernel_from_csv(io.StringIO("\n".join(rows)), g, theta=0.5)
    assert [a.tolist() for a in kern] == [[0, 0, 0], [0, 0, 0], [0, 1, 2], [1.0, 1.0, 1.0]]
    spec = SpaceTimeKernel(theta=0.5, kernel=kern)
    validate_spec(spec, g)
    with pytest.raises(NonlocalValidationError):
        kernel_from_csv(io.StringIO("t,x1,y1,k\n0.9,0.25,0.25,1.0"), g, theta=0.5)
    with pytest.raises(NonlocalValidationError):
        kernel_from_csv(io.StringIO("bad,header\n"), g, theta=0.5)
    with pytest.raises(NonlocalValidationError):
        kernel_from_csv(io.StringIO(""), g, theta=0.5)


@pytest.mark.parametrize("row", ["0.0,0.5", "0.0,0.5,0.5,1.0,9.0"])
def test_kernel_csv_row_of_the_wrong_width(row):
    g = make_grid(Domain((0.0,), (1.0,)), 5, 4, 1.0)
    text = f"t,x1,y1,k\n0.0,0.25,0.5,1.0\n\n{row}\n"
    fields = len(row.split(","))
    with pytest.raises(NonlocalValidationError, match=f"line 4 has {fields} fields, the header has 4"):
        kernel_from_csv(io.StringIO(text), g, theta=0.5)


@pytest.mark.parametrize(
    "row, why",
    [
        ("0.0,abc,0.5,1.0", "could not convert string to float: 'abc'"),
        ("1.5,0.25,0.5,1.0", "time 1.5 outside [0, 1.0]"),
        ("0.75,0.25,0.5,1.0", "row at t = 0.75 lies beyond theta = 0.5"),
        ("0.0,0.25,0.0,1.0", "coordinate 0.0 is not a grid node"),
        ("0.0,nan,0.5,1.0", "t, x and y must be finite"),
        ("inf,0.25,0.5,1.0", "t, x and y must be finite"),
        ("0.0,0.25,0.5,nan", "k = nan is not finite"),
        ("0.0,0.25,0.5,-1e400", "k = -inf is not finite"),
    ],
)
def test_kernel_csv_row_errors_name_the_line(row, why):
    g = make_grid(Domain((0.0,), (1.0,)), 5, 4, 1.0)
    text = f"t,x1,y1,k\n0.0,0.25,0.5,1.0\n\n{row}\n0.0,0.5,0.5,1.0\n"
    with pytest.raises(NonlocalValidationError) as err:
        kernel_from_csv(io.StringIO(text), g, theta=0.5)
    assert str(err.value) == f"kernel CSV line 4: {why}"


def test_grid_mismatch_rejected(grid):
    from bspde.nonlocal_ops import _compile

    other = make_grid(Domain((0.0,), (1.0,)), 17, 20, 1.0)
    rng = np.random.default_rng(7)
    u = random_st_field(rng, other)
    with pytest.raises(NonlocalValidationError):
        _compile(InitialValue(1.0), grid).apply(u)


def test_a_field_on_a_grid_of_another_horizon_is_rejected():
    """Same nodes and levels, T = 2 instead of 1: the weights compiled for
    dt = 0.05 would give 0.5 where the field's own grid integrates to 1.0."""
    from bspde.nonlocal_ops import _compile

    g1, g2 = (make_grid(Domain((0.0,), (1.0,)), 11, 20, T) for T in (1.0, 2.0))
    compiled = _compile(TimeKernel(0.5, 1.0), g1)
    ones = np.ones((21, 9))
    assert np.allclose(compiled.apply(SpaceTimeField(g1, ones)).values, 0.5)
    assert np.allclose(apply_nonlocal(TimeKernel(1.0, 1.0), SpaceTimeField(g2, ones)).values, 1.0)
    with pytest.raises(NonlocalValidationError, match="field grid does not match the validated grid"):
        compiled.apply(SpaceTimeField(g2, ones))
