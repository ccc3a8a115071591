import json

import numpy as np
import pytest

from bspde import (
    CauchyProblem,
    CoefficientSet,
    Domain,
    PathConfig,
    SpaceField,
    bounds,
    cli,
    compare_mc_pde,
    confinement_probability,
    feynman_kac,
    make_grid,
    validate,
)
from bspde.coefficients import CoefficientError, _samples, _survey, _sym_eig_range

from conftest import random_coeffs_1d, reference_outer, reference_spd_sqrt


@pytest.fixture
def grid1():
    return make_grid(Domain((0.0,), (1.0,)), 21, 10, 1.0)


@pytest.fixture
def grid2():
    return make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (9, 11), 8, 1.0)


def test_validate_scalar_cases(grid1):
    assert validate(CoefficientSet.create(1, b=1.0), grid1).delta == pytest.approx(1.0)
    # constant beta = 1: margin is 1 - 0.5 = 0.5 but the wall condition fails
    rep = validate(CoefficientSet.create(1, b=1.0, beta=[[1.0]]), grid1)
    assert rep.delta == pytest.approx(0.5)
    assert rep.violated
    rep2 = validate(CoefficientSet.create(1, b=0.4, beta=[[1.0]]), grid1)
    assert rep2.delta == pytest.approx(-0.1)
    assert rep2.violated


def test_validate_flags_positive_lam(grid1):
    rep = validate(CoefficientSet.create(1, b=1.0, lam=0.5), grid1)
    assert rep.violated
    assert any("<= 0" in m for m in rep.issues)


def test_validate_accepts_boundary_vanishing_beta(grid1):
    c = CoefficientSet.create(1, b=0.5, beta=[["0.8*x*(1-x)"]])
    rep = validate(c, grid1)
    assert not rep.violated
    assert rep.delta > 0.4


def test_delta_is_a_true_minimum(grid1):
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = random_coeffs_1d(rng)
        rep = validate(c, grid1)
        assert not rep.violated
        # re-sample: every node/time margin is >= the reported minimum
        pts = grid1.interior_points()
        for t in grid1.times():
            m = c.b_at(pts, t)[:, 0, 0]
            if c.n_beta:
                bsum = c.beta_at(pts, t)
                m = m - 0.5 * np.sum(bsum[:, :, 0] ** 2, axis=0)
            assert np.min(m) >= rep.delta - 1e-14


# The square-root decomposition 2b = sum beta_i beta_i^T + sum btilde_j btilde_j^T
# gives the noise columns btilde_j the path engine draws with; `columns` reads
# them from `CoefficientSet.noise_at`.


def columns(coeffs, pts, t):
    """(npts, n, n) noise columns btilde_j at the points: column j is the btilde
    term of `noise_at` for the unit draw of btilde_j, exactly the root's entries."""
    N, n = coeffs.n_beta, coeffs.dim
    cols = []
    for j in range(n):
        draws = np.zeros((len(pts), N + n))
        draws[:, N + j] = 1.0
        cols.append(coeffs.noise_at(pts, t, draws)[0])
    return np.stack(cols, axis=-1)


def max_residual(coeffs, grid):
    """Largest error of 2b rebuilt from beta and the noise columns over the
    nodes and levels the survey samples (t = 0 alone when no entry reads t)."""
    pts, _, times = _samples(coeffs, grid)
    worst = 0.0
    for t in times:
        two_b = 2.0 * coeffs.b_at(pts, t)
        outer = reference_outer(coeffs, pts, t)
        cols = columns(coeffs, pts, t)
        recon = np.einsum("pik,pjk->pij", cols, cols) + outer
        worst = max(worst, float(np.max(np.abs(two_b - recon))))
    return worst


def test_decompose_scalar_values(grid1):
    assert max_residual(CoefficientSet.create(1, b=1.0, beta=[["1*x*(1-x)"]]), grid1) <= 1e-10
    pts = grid1.interior_points()
    assert np.allclose(columns(CoefficientSet.create(1, b=0.1), pts, 0.0)[:, 0, 0], np.sqrt(0.2))


def test_decompose_2d_identity(grid2):
    c = CoefficientSet.create(2, b=[[1.0, 0.0], [0.0, 1.0]])
    cols = columns(c, grid2.interior_points(), 0.0)
    assert np.allclose(cols, np.sqrt(2.0) * np.eye(2)[None, :, :])
    assert max_residual(c, grid2) <= 1e-10


def test_decompose_2d_mixed_reconstructs(grid2):
    assert max_residual(CoefficientSet.create(2, b=[[0.3, 0.1], [0.1, 0.2]]), grid2) <= 1e-10


def test_decompose_rejects_indefinite(grid1):
    """2b - beta^2 = -0.2: there are no noise columns, and every path entry
    refuses the set with the survey's issues, before it checks a start point
    (1.5 lies outside the box)."""
    c = CoefficientSet.create(1, b=0.4, beta=[[1.0]])
    with pytest.raises(CoefficientError, match="residual diffusion is not positive definite"):
        columns(c, grid1.interior_points(), 0.0)
    problem = CauchyProblem(grid1, c, terminal=SpaceField.zeros(grid1))
    control = CauchyProblem(grid1, CoefficientSet.create(1, b=0.4))
    cfg = PathConfig(dt_mc=0.05, n_paths=100, seed=1)
    runs = [
        lambda: feynman_kac(problem, [1.5], 0.0, cfg),
        lambda: confinement_probability(problem, [1.5], 0.0, 0.5, cfg),
        lambda: compare_mc_pde(problem, [[1.5, 0.0]], cfg),
        lambda: compare_mc_pde(control, [[1.5, 0.0]], cfg, mc_coeffs=c),
    ]
    for run in runs:
        with pytest.raises(CoefficientError) as err:
            run()
        assert str(err.value) == "; ".join(validate(c, grid1).issues)
        assert str(err.value).startswith("uniform ellipticity violated: margin delta = -0.1")


def test_path_entries_read_the_cached_survey(grid1):
    c = CoefficientSet.create(1, b="0.2 + 0.1*x")
    assert not validate(c, grid1).violated
    misses = _survey.cache_info().misses
    problem = CauchyProblem(grid1, c, terminal=SpaceField.zeros(grid1))
    cfg = PathConfig(dt_mc=0.05, n_paths=100, seed=1)
    feynman_kac(problem, [0.5], 0.0, cfg)
    confinement_probability(problem, [0.5], 0.0, 0.5, cfg)
    compare_mc_pde(problem, [[0.5, 0.0]], cfg)
    assert _survey.cache_info().misses == misses


def test_bounds_cases(grid1, grid2):
    env = bounds(CoefficientSet.create(1, b=0.1), grid1)
    assert env == pytest.approx((0.0, 0.2, 0.2))
    env2 = bounds(CoefficientSet.create(1, b=0.1, f="sin(t)"), grid1)
    assert 0.0 < env2.sup_f1 <= 1.0
    env3 = bounds(CoefficientSet.create(2, b=[0.1, 0.3]), grid2)
    assert env3.delta_qv == pytest.approx(0.2)
    assert env3.c_beta == pytest.approx(0.6)


def test_delta_qv_at_least_twice_delta(grid1):
    rng = np.random.default_rng(5)
    for _ in range(30):
        c = random_coeffs_1d(rng)
        rep = validate(c, grid1)
        env = bounds(c, grid1)
        assert not rep.violated
        assert env.delta_qv >= 2.0 * rep.delta - 1e-12


def test_reconstruction_battery(grid1):
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_coeffs_1d(rng)
        assert max_residual(c, grid1) <= 1e-10


def test_evaluation_error_carries_context(grid1):
    c = CoefficientSet.create(1, b="sqrt(x - 2)")  # negative under the root on (0,1)
    with pytest.raises(CoefficientError):
        validate(c, grid1)


def test_create_shape_errors():
    with pytest.raises(CoefficientError):
        CoefficientSet.create(1, b=[[1.0, 0.0]])
    with pytest.raises(CoefficientError):
        CoefficientSet.create(2, b=1.0, f=[1.0])
    with pytest.raises(CoefficientError):
        CoefficientSet.create(1, b=1.0, beta=[[1.0, 2.0]])


# ---------------------------------------------------------------------------
# The survey against the per-level loops it replaced
# ---------------------------------------------------------------------------
#
# The reference functions below are the earlier validate, bounds and
# decompose (the square-root decomposition): each walks every node at every one of the nt + 1 levels with its
# own loop, whether or not an entry reads t.  The survey samples t = 0 alone
# when no entry reads t and validates and bounds from one pass; it must give
# the same numbers bit for bit.


def _reference_nodes(grid):
    axes = [grid.axis_coords(a, interior_only=False) for a in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    on_boundary = np.zeros(pts.shape[0], dtype=bool)
    for a in range(grid.dim):
        on_boundary |= np.isclose(pts[:, a], grid.domain.lo[a]) | np.isclose(pts[:, a], grid.domain.hi[a])
    return pts, on_boundary


def reference_validate(coeffs, grid):
    pts, on_boundary = _reference_nodes(grid)
    delta = np.inf
    arg_pt = tuple(pts[0])
    arg_t = 0.0
    issues = []
    lam_max = -np.inf
    beta_wall_max = 0.0
    beta_sup = 0.0
    for t in grid.times():
        lo, _ = _sym_eig_range(coeffs.b_at(pts, t) - 0.5 * reference_outer(coeffs, pts, t))
        k = int(np.argmin(lo))
        if lo[k] < delta:
            delta = float(lo[k])
            arg_pt = tuple(float(c) for c in pts[k])
            arg_t = float(t)
        lam_max = max(lam_max, float(np.max(coeffs.lam_at(pts, t))))
        if coeffs.n_beta:
            bs = coeffs.beta_at(pts, t)
            beta_sup = max(beta_sup, float(np.max(np.abs(bs))))
            beta_wall_max = max(beta_wall_max, float(np.max(np.abs(bs[:, on_boundary, :]), initial=0.0)))
    if not np.isfinite(delta):
        issues.append("ellipticity sampling produced non-finite values")
    if delta <= 0:
        issues.append(f"uniform ellipticity violated: margin delta = {delta:.6g} at x = {arg_pt}, t = {arg_t:.6g}")
    if lam_max > 0:
        issues.append(f"zeroth-order coefficient must be <= 0, found max {lam_max:.6g}")
    if beta_wall_max > 1e-12 * max(1.0, beta_sup):
        issues.append(f"beta must vanish on the boundary, found |beta| = {beta_wall_max:.6g} there")
    return (float(delta), arg_pt, arg_t, bool(issues), tuple(issues))


def reference_bounds(coeffs, grid):
    pts, _ = _reference_nodes(grid)
    sup_f1, c_beta, delta_qv = 0.0, -np.inf, np.inf
    for t in grid.times():
        sup_f1 = max(sup_f1, float(np.max(np.abs(coeffs.f_at(pts, t)[:, 0]))))
        lo, hi = _sym_eig_range(2.0 * coeffs.b_at(pts, t))
        delta_qv = min(delta_qv, float(np.min(lo)))
        c_beta = max(c_beta, float(np.max(hi)))
    return (sup_f1, c_beta, delta_qv)


def reference_max_residual(coeffs, grid):
    pts, _ = _reference_nodes(grid)
    max_resid = 0.0
    for t in grid.times():
        two_b = 2.0 * coeffs.b_at(pts, t)
        outer = reference_outer(coeffs, pts, t)
        root = reference_spd_sqrt(two_b - outer)
        recon = np.einsum("pik,pjk->pij", root, root) + outer
        max_resid = max(max_resid, float(np.max(np.abs(two_b - recon))))
    return max_resid


def _as_tuple(rep):
    return (rep.delta, rep.argmin_point, rep.argmin_time, rep.violated, rep.issues)


SURVEY_SETS = {
    "1d-constant-in-t": (1, dict(b="0.5 + 0.2*x*(1-x)", f="0.3*x", lam="-0.1*x", beta=[["0.4*x*(1-x)"]])),
    "1d-t-dependent": (1, dict(b="0.5 + 0.1*sin(3*t) + 0.2*x", f="cos(t)", lam=-0.2, beta=[["0.3*x*(1-x)*(1+t)"]])),
    "2d-constant-in-t": (
        2,
        dict(
            b=[["0.3", "0.05*x1"], ["0.05*x1", "0.2 + 0.1*x2"]],
            f=["0.1", "-0.2*x2"],
            lam="-x1*x2",
            beta=[["0.2*x1*(1-x1)*x2*(1-x2)", "0"]],
        ),
    ),
    "2d-t-dependent": (
        2,
        dict(
            b=["0.1 + 0.05*sin(3*t)", "0.08*(1 + 0.5*x1*(1 - x1))"],
            f=["0.3*cos(2*t)", "-0.2*x1"],
            lam="-0.2 - 0.1*x2",
        ),
    ),
    # lam turns positive only at late levels: t = 0 alone would miss it
    "only-lam-reads-t": (1, dict(b=0.5, lam="x + t - 1.2")),
    # the margin is smallest at t = T, not at t = 0
    "only-beta-reads-t": (1, dict(b=0.5, beta=[["2*t*x*(1-x)"]])),
    "violated-margin": (1, dict(b=0.4, beta=[[1.0]])),
    "positive-lam": (1, dict(b=1.0, lam=0.5)),
}


@pytest.mark.parametrize("name", sorted(SURVEY_SETS))
def test_survey_matches_the_per_level_loops(name, grid1, grid2):
    dim, kw = SURVEY_SETS[name]
    c = CoefficientSet.create(dim, **kw)
    g = grid1 if dim == 1 else grid2
    assert _as_tuple(validate(c, g)) == reference_validate(c, g)
    assert tuple(bounds(c, g)) == reference_bounds(c, g)
    try:
        expected = reference_max_residual(c, g)
    except CoefficientError:
        with pytest.raises(CoefficientError):
            max_residual(c, g)
    else:
        assert max_residual(c, g) == expected


# sets the closed-form root serves beyond the survey's: two beta with an
# off-diagonal b entry that reads t, and entries b12 != b21 that b_at symmetrizes
NOISE_SETS = {
    **SURVEY_SETS,
    "2d-two-beta": (
        2,
        dict(
            b=[["0.3 + 0.1*t", "0.05*cos(t)"], ["0.05*cos(t)", "0.25"]],
            beta=[["0.3*x1*(1-x1)*x2*(1-x2)", "0.1*x1*(1-x1)*x2*(1-x2)"], ["-0.2*x1*(1-x1)*x2*(1-x2)", "0"]],
        ),
    ),
    "2d-unsymmetric-entries": (2, dict(b=[["0.2", "0.07*x2"], ["0.01 + 0.03*t", "0.15 + 0.1*x1"]])),
    "2d-indefinite": (2, dict(b=[[0.1, 0.2], [0.2, 0.1]])),
}


@pytest.mark.parametrize("name", sorted(NOISE_SETS))
def test_the_noise_matches_the_stack_root_and_einsum_bit_for_bit(name, grid1, grid2):
    """The noise columns are the root of the stack 2b - sum beta beta^T, and
    noise_at is its einsum with the draws, then the beta einsum, to the bit."""
    dim, kw = NOISE_SETS[name]
    c = CoefficientSet.create(dim, **kw)
    pts, _, times = _samples(c, grid1 if dim == 1 else grid2)
    rng = np.random.default_rng(5)
    for t in times:
        draws = rng.standard_normal((len(pts), c.n_beta + dim))
        try:
            root = reference_spd_sqrt(2.0 * c.b_at(pts, t) - reference_outer(c, pts, t))
        except CoefficientError as err:
            for refused in (lambda: columns(c, pts, t), lambda: c.noise_at(pts, t, draws)):
                with pytest.raises(CoefficientError, match=f"^{err}$"):
                    refused()
            continue
        want = [np.einsum("ndm,nm->nd", root, draws[:, c.n_beta :])]
        if c.n_beta:
            want.append(np.einsum("knd,nk->nd", c.beta_at(pts, t), draws[:, : c.n_beta]))
        assert columns(c, pts, t).tobytes() == root.tobytes()
        assert [v.tobytes() for v in c.noise_at(pts, t, draws)] == [v.tobytes() for v in want]


def reference_survey(coeffs, grid):
    """The survey as a loop over single levels, each sampled at its t, one
    number: the per-level form of `_survey`, which samples chunks of levels."""
    pts, on_wall, times = _samples(coeffs, grid)
    delta, arg_pt, arg_t = np.inf, tuple(pts[0]), 0.0
    lam_max, beta_wall_max, beta_sup = -np.inf, 0.0, 0.0
    sup_f1, c_beta, delta_qv = 0.0, -np.inf, np.inf
    non_finite = {}
    with np.errstate(all="ignore"):
        for t in times:
            b = coeffs.b_at(pts, t)
            bs = coeffs.beta_at(pts, t)
            lam = coeffs.lam_at(pts, t)
            f = coeffs.f_at(pts, t)
            step = np.abs(lam)
            for a, h in enumerate(grid.hx):
                step = step + 2 * np.abs(b[:, a, a]) / (h * h) + np.abs(f[:, a]) / h
            quantities = (
                ("coefficient b", b),
                ("coefficient f", f),
                ("coefficient lam", lam),
                ("coefficient beta", np.moveaxis(bs, 0, 1)),
                ("implicit step dt*A_h", grid.dt * step),
            )
            for name, vals in quantities:
                bad = ~np.isfinite(vals.reshape(len(pts), -1)).all(axis=1)
                if name not in non_finite and bad.any():
                    non_finite[name] = (tuple(float(c) for c in pts[np.argmax(bad)]), float(t))
            lo, _ = _sym_eig_range(b - 0.5 * np.einsum("kpi,kpj->pij", bs, bs))
            k = int(np.argmin(lo))
            if lo[k] < delta:
                delta = float(lo[k])
                arg_pt = tuple(float(c) for c in pts[k])
                arg_t = float(t)
            lam_max = max(lam_max, float(np.max(lam)))
            beta_sup = max(beta_sup, float(np.max(np.abs(bs), initial=0.0)))
            beta_wall_max = max(beta_wall_max, float(np.max(np.abs(bs[:, on_wall, :]), initial=0.0)))
            sup_f1 = max(sup_f1, float(np.max(np.abs(f[:, 0]))))
            lo, hi = _sym_eig_range(2.0 * b)
            delta_qv = min(delta_qv, float(np.min(lo)))
            c_beta = max(c_beta, float(np.max(hi)))
    if len(non_finite) > 1:
        non_finite.pop("implicit step dt*A_h", None)
    issues = [f"{name} is not finite at x = {x}, t = {t:.6g}" for name, (x, t) in non_finite.items()]
    if not np.isfinite(delta):
        issues.append("ellipticity sampling produced non-finite values")
    if delta <= 0:
        issues.append(f"uniform ellipticity violated: margin delta = {delta:.6g} at x = {arg_pt}, t = {arg_t:.6g}")
    if lam_max > 0:
        issues.append(f"zeroth-order coefficient must be <= 0, found max {lam_max:.6g}")
    if beta_wall_max > 1e-12 * max(1.0, beta_sup):
        issues.append(f"beta must vanish on the boundary, found |beta| = {beta_wall_max:.6g} there")
    return (float(delta), arg_pt, arg_t, bool(issues), tuple(issues)), (sup_f1, c_beta, delta_qv)


CHUNKED_SETS = {
    **NOISE_SETS,
    # b12 nonzero at one node alone, and only for t > 0
    "2d-mixed-one-node": (2, dict(b=[["0.2 + 0.1*t", "t*max(x1 - 0.7, 0)*max(x2 - 0.6, 0)"], ["t*max(x1 - 0.7, 0)*max(x2 - 0.6, 0)", 0.15]])),
    # not finite at t = 0.5 alone: exp(1000) there, exp(-1.5e4) at the neighbouring levels
    "1d-one-bad-level": (1, dict(b="0.1 + 0.01*x*(1 - x)*exp(1e5*(0.01 - (t - 0.5)*(t - 0.5)))", f="x - t")),
    # powers of t, sampled in chunks like any other entry
    "1d-power-of-t": (1, dict(b="0.2 + 0.1*(1 + sin(3*t))^2", lam="-(t^3)", beta=[["0.3*x*(1-x)*t^0.5"]])),
}
CHUNKED_GRIDS = {
    "1d-one-chunk": make_grid(Domain((0.0,), (1.0,)), 21, 10, 1.0),
    "2d-one-chunk": make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (9, 11), 8, 1.0),
    "1d-chunks": make_grid(Domain((0.0,), (1.0,)), 2049, 10, 1.0),  # 2049 nodes: 3, 3, 3 and 2 levels
    "2d-chunks": make_grid(Domain((0.0, 0.0), (1.0, 1.0)), 33, 16, 1.0),  # 1089 nodes: 7, 7 and 3 levels
}


@pytest.mark.parametrize(
    "name,grid_name",
    [(n, g) for n in sorted(CHUNKED_SETS) for g in sorted(CHUNKED_GRIDS) if CHUNKED_GRIDS[g].dim == CHUNKED_SETS[n][0]],
)
def test_survey_matches_the_loop_over_single_levels_bit_for_bit(name, grid_name):
    dim, kw = CHUNKED_SETS[name]
    g = CHUNKED_GRIDS[grid_name]
    c = CoefficientSet.create(dim, **kw)
    report, env = _survey(c, g)
    assert repr((_as_tuple(report), tuple(env))) == repr(reference_survey(c, g))


def test_the_survey_samples_a_power_of_t_a_chunk_of_levels_at_a_time(monkeypatch):
    calls = []
    b_at = CoefficientSet.b_at

    def spy(self, points, t):
        calls.append(np.unique(t).tolist())
        return b_at(self, points, t)

    monkeypatch.setattr(CoefficientSet, "b_at", spy)
    g = CHUNKED_GRIDS["2d-chunks"]
    validate(CoefficientSet.create(2, b=["0.1 + 0.05*(0.5 + t)^2", "0.2 + x1^t"]), g)
    # 8192 // 1089 = 7 levels per chunk, the level times each once and in order
    assert [len(times) for times in calls] == [7, 7, 3]
    assert sum(calls, []) == g.times().tolist()


def test_the_one_bad_level_set_names_its_level():
    c = CoefficientSet.create(1, **CHUNKED_SETS["1d-one-bad-level"][1])
    issues = validate(c, CHUNKED_GRIDS["1d-chunks"]).issues
    assert issues[0] == "coefficient b is not finite at x = (0.0,), t = 0.5"  # inf * 0 on the wall


def test_survey_sets_cover_their_cases(grid1):
    assert validate(CoefficientSet.create(1, **SURVEY_SETS["violated-margin"][1]), grid1).violated
    assert validate(CoefficientSet.create(1, **SURVEY_SETS["positive-lam"][1]), grid1).violated
    late_lam = validate(CoefficientSet.create(1, **SURVEY_SETS["only-lam-reads-t"][1]), grid1)
    assert late_lam.violated and late_lam.issues[0].startswith("zeroth-order")
    assert validate(CoefficientSet.create(1, **SURVEY_SETS["only-beta-reads-t"][1]), grid1).argmin_time == 1.0


def test_bounds_checks_the_dimension(grid2):
    with pytest.raises(CoefficientError, match="coefficient dim 1 != grid dim 2"):
        bounds(CoefficientSet.create(1, b=1.0), grid2)


def test_survey_is_served_by_equal_values(grid2):
    rep = validate(CoefficientSet.create(2, b=[0.1, 0.3], f=["x1", 0.0]), grid2)
    other_grid = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (9, 11), 8, 1.0)
    assert other_grid is not grid2
    env = bounds(CoefficientSet.create(2, b=[0.1, 0.3], f=["x1", 0.0]), other_grid)
    assert _survey.cache_info().misses == 1 and _survey.cache_info().hits == 1
    assert rep.delta == pytest.approx(0.1) and env.sup_f1 == 1.0


def test_alternating_sets_never_share_a_survey(grid1):
    first = CoefficientSet.create(1, b=0.2, f="x")
    second = CoefficientSet.create(1, b=0.7, f="2*x", lam=-0.1)
    for c in (first, second, first, second):
        assert _as_tuple(validate(c, grid1)) == reference_validate(c, grid1)
        assert tuple(bounds(c, grid1)) == reference_bounds(c, grid1)


@pytest.mark.parametrize("b,sampled_levels", [("0.1 + 0.05*x", 1), ("0.1 + 0.05*t", 11)])
def test_validation_block_samples_each_distinct_level_once(tmp_path, monkeypatch, b, sampled_levels):
    config = {
        "domain": {"lo": [0.0], "hi": [1.0]},
        "grid": {"nx": [21], "nt": 10, "T": 1.0},
        "coefficients": {"b": [[b]]},
        "gamma": {"type": "initial_value", "weight": 0.5},
        "data": {"terminal": "x*(1-x)"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    cfg = cli.load_config(str(path))
    calls = []
    b_at = CoefficientSet.b_at

    def spy(self, points, t):
        calls.append(np.unique(t).tolist())
        return b_at(self, points, t)

    monkeypatch.setattr(CoefficientSet, "b_at", spy)
    block = cli._validation_block(cfg)
    assert "nu" in block  # the confinement bound read the same survey
    # one call: the 11 levels of 21 nodes are one chunk
    assert len(calls) == 1 and len(calls[0]) == sampled_levels


def test_validate_names_the_first_non_finite_sample():
    g = make_grid(Domain((0.0,), (1.0,)), 5, 10, 1.0)
    # -exp(1000*t) overflows from t = 0.8 on; f is NaN (inf * 0) on the walls alone
    rep = validate(CoefficientSet.create(1, b=0.1, f="exp(1000)*x*(1 - x)", lam="-exp(1000*t)"), g)
    assert rep.violated
    assert rep.issues[:2] == (
        "coefficient f is not finite at x = (0.0,), t = 0",
        "coefficient lam is not finite at x = (0.0,), t = 0.8",
    )


# ---------------------------------------------------------------------------
# The wall is read from the node index, not from coordinates
# ---------------------------------------------------------------------------
#
# A coordinate test such as np.isclose(x, lo) counts every node within
# 1e-5 * |lo| of lo as a wall node, which on an offset box is all of them.


def test_validate_accepts_beta_that_vanishes_on_the_walls_of_an_offset_box():
    g = make_grid(Domain((1e6,), (1e6 + 1,)), 21, 10, 1.0)
    rep = validate(CoefficientSet.create(1, b=0.1, beta=[["0.5*(x-1000000)*(1000001-x)"]]), g)
    assert rep.issues == ()
    g2 = make_grid(Domain((1e6, 0.0), (1e6 + 1, 1.0)), (9, 11), 8, 1.0)
    beta = [["2*(x1-1000000)*(1000001-x1)*x2*(1-x2)", "x2*(1-x2)*(x1-1000000)*(1000001-x1)"]]
    assert validate(CoefficientSet.create(2, b=0.1, beta=beta), g2).issues == ()


def test_beta_that_does_not_vanish_on_the_x2_walls_is_flagged():
    g2 = make_grid(Domain((1e6, 0.0), (1e6 + 1, 1.0)), (9, 11), 8, 1.0)
    rep = validate(CoefficientSet.create(2, b=0.1, beta=[["0.5*(x1-1000000)*(1000001-x1)", 0.0]]), g2)
    assert rep.issues == ("beta must vanish on the boundary, found |beta| = 0.125 there",)
    # the same on the unit box, where a coordinate test and the node index agree
    g2 = make_grid(Domain((0.0, 0.0), (1.0, 1.0)), (9, 11), 8, 1.0)
    rep = validate(CoefficientSet.create(2, b=0.1, beta=[[0.0, "x1*(1-x1)"]]), g2)
    assert rep.issues == ("beta must vanish on the boundary, found |beta| = 0.25 there",)
