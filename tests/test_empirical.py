import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from khull.bodies import Ball, HalfBall, Polytope, cross_polytope, cube
from khull.empirical import (
    dual_cone_intensity_experiment,
    inclusion_functional_estimate,
    ks_statistic,
    so2_square_experiment,
    translation_box_experiment,
    uniform_sample,
    xn_membership,
)
from khull.poisson import spawn_rng
from khull.zerocell import (build_zero_cell, cone_preset, flatten_pair,
                            restrict_to_cone)

SQUARE = cube(2)


# -- sampling ----------------------------------------------------------------------

def test_uniform_sample_empty():
    assert uniform_sample(SQUARE, 0, seed=0).shape == (0, 2)


@pytest.mark.parametrize("body", [SQUARE, Ball(1.0, 2), HalfBall(1.0, dim=2)],
                         ids=["polytope", "ball", "half-ball"])
def test_uniform_sample_negative_size_raises(body):
    with pytest.raises(ValueError, match="non-negative"):
        uniform_sample(body, -5, seed=0)


def test_uniform_sample_square_mean():
    pts = uniform_sample(SQUARE, 100000, seed=1)
    assert SQUARE.contains(pts).all()
    sigma = (2.0 / np.sqrt(12)) / np.sqrt(len(pts))
    assert np.all(np.abs(pts.mean(axis=0)) < 3 * sigma)


def _reference_polytope_sample(body, n, seed):
    """First n in-body rows of one large bounding-box batch."""
    rng = spawn_rng(seed)
    lo = body.vertices.min(axis=0)
    hi = body.vertices.max(axis=0)
    cand = lo + (hi - lo) * rng.random((12 * n + 100, body.dim))
    cand = cand[body.contains(cand)]
    assert len(cand) >= n
    return cand[:n]


HEXAGON = Polytope.from_vertices(np.column_stack(
    [np.cos(np.arange(6) * np.pi / 3), np.sin(np.arange(6) * np.pi / 3)]))
TRIANGLE = Polytope.from_vertices(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
OFF_CENTRE_BOX = Polytope.from_vertices(  # [0, 3] x [-1, 2]
    np.array([[0.0, -1.0], [3.0, -1.0], [3.0, 2.0], [0.0, 2.0]]))
ROTATED_SQUARE = Polytope.from_vertices(cube(2).vertices @ np.array(
    [[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]]))


@pytest.mark.parametrize("body", [cube(2), cube(3), OFF_CENTRE_BOX],
                         ids=["square", "cube3", "off-centre-box"])
def test_box_keeps_every_mapped_candidate(body):
    assert body.is_box
    lo, hi = body.bounding_box
    # uniform_sample's map of the least and the greatest rng.random value;
    # the map is monotone in u, so every candidate lies between these.
    for u in (0.0, 1.0 - 2.0 ** -53):
        cand = np.multiply(np.full((body.dim, 1), u), (hi - lo)[:, None])
        cand += lo[:, None]
        assert body.contains(cand.T).all()


@pytest.mark.parametrize("body", [
    HEXAGON, TRIANGLE, cross_polytope(3), ROTATED_SQUARE,
], ids=["hexagon", "triangle", "cross3", "rotated-square"])
def test_non_box_polytopes_are_not_boxes(body):
    assert not body.is_box


@pytest.mark.parametrize("body", [
    cube(2), cube(3), cross_polytope(3), HEXAGON, TRIANGLE, OFF_CENTRE_BOX,
], ids=["square", "cube3", "cross3", "hexagon", "triangle",
        "off-centre-box"])
@pytest.mark.parametrize("n", [1, 7, 5000])
def test_uniform_sample_polytope_is_stream_prefix(body, n):
    # The sample must not depend on how the candidate stream is batched.
    # The first batch has n + 8 candidates, so below full acceptance
    # (cross3, hexagon, triangle) n = 5000 takes several batches.
    for seed in (0, 1, 12345):
        got = uniform_sample(body, n, seed=seed)
        assert np.array_equal(got, _reference_polytope_sample(body, n, seed))
        assert got.strides[0] == got.itemsize  # contiguous columns


@pytest.mark.parametrize("body", [
    cube(2), cube(3), cross_polytope(3), HEXAGON,
    Polytope.from_vertices(np.array([[0.0, 0.0], [2.0, 0.5], [0.3, 1.0]])),
], ids=["square", "cube3", "cross3", "hexagon", "triangle"])
def test_polytope_bounding_box_is_vertex_min_and_max(body):
    lo, hi = body.bounding_box
    assert np.array_equal(lo, body.vertices.min(axis=0))
    assert np.array_equal(hi, body.vertices.max(axis=0))
    assert body.bounding_box is body.bounding_box


def test_uniform_sample_ball_radial_cdf():
    pts = uniform_sample(Ball(1.0, 2), 100000, seed=2)
    r = np.linalg.norm(pts, axis=1)
    d, _ = ks_statistic(r ** 2, stats.uniform.cdf)
    assert d < 0.01


def test_uniform_sample_half_ball():
    hb = HalfBall(1.0, dim=2)
    pts = uniform_sample(hb, 20000, seed=3)
    assert hb.contains(pts).all()
    assert np.all(pts @ hb.axis >= 0)


# -- scaled feasible set -------------------------------------------------------------

def test_xn_membership_origin():
    pts = uniform_sample(SQUARE, 500, seed=4)
    assert xn_membership(np.zeros(6), pts, 500, SQUARE)


def test_xn_membership_identity_ray():
    # Expanding transforms are always feasible: exp(mu I / n)(K) covers K
    # for mu >= 0.  (The scaled sets converge to the reflected cell, which
    # contains (0, mu I) for mu >= 0.)
    pts = uniform_sample(SQUARE, 500, seed=5)
    for n in (1, 10, 500):
        p = flatten_pair(np.zeros(2), 3.0 * np.eye(2))
        assert xn_membership(p, pts, n, SQUARE)


def test_xn_membership_huge_translation():
    pts = uniform_sample(SQUARE, 100, seed=6)
    n = 100
    p = flatten_pair(np.array([n * 5.0, 0.0]), np.zeros((2, 2)))
    assert not xn_membership(p, pts, n, SQUARE)


def test_xn_monotone_in_n():
    # X_{n+1} is a subset of X_n for nested samples.
    rng = spawn_rng(7)
    pts = uniform_sample(SQUARE, 200, rng=rng)
    qrng = np.random.default_rng(7)
    for _ in range(100):
        x = 0.5 * qrng.standard_normal(2)
        c = 0.5 * qrng.standard_normal((2, 2))
        # Unscaled feasibility of (x, C): exp(C)(K+x) covers the batch;
        # covering the first 150 points implies covering the first 100.
        big = xn_membership(flatten_pair(x * 150, c * 150), pts[:150], 150,
                            SQUARE)
        small = xn_membership(flatten_pair(x * 100, c * 100), pts[:100], 100,
                              SQUARE)
        if big:
            assert small


@pytest.mark.parametrize("n", [50, 2000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_finite_rotation_extent_matches_brute_force_rotation(n, seed):
    from khull.empirical import _finite_rotation_extents

    plus, minus = _finite_rotation_extents(SQUARE, n, 2, seed)
    for i in range(2):
        pts = uniform_sample(SQUARE, n, rng=spawn_rng(seed, 1, i))

        def rotated(theta):
            c, s = np.cos(theta), np.sin(theta)
            return pts @ np.array([[c, s], [-s, c]])

        for theta in (plus[i] / n, -minus[i] / n):
            assert SQUARE.contains(rotated((1 - 1e-3) * theta)).all()
            assert not SQUARE.contains(rotated((1 + 1e-3) * theta)).all()


# -- statistics helpers -----------------------------------------------------------------

def test_ks_statistic_self():
    rng = np.random.default_rng(9)
    samples = rng.exponential(1.0, 2000)
    d, p = ks_statistic(samples, stats.expon.cdf)
    assert p > 1e-4


def test_ks_statistic_shifted():
    rng = np.random.default_rng(10)
    samples = rng.exponential(1.0, 2000) + 1.0
    _, p = ks_statistic(samples, stats.expon.cdf)
    assert p < 1e-10


def test_ks_statistic_empty():
    with pytest.raises(ValueError):
        ks_statistic(np.zeros(0), stats.expon.cdf)


# -- experiments (reduced sizes; full sizes run in the acceptance suite) ------------------

def test_so2_experiment_pipelines_agree():
    rep = so2_square_experiment(n=500, replicates=500, limit_replicates=2000,
                                seed=11)
    s = rep.statistics
    assert s["ks_two_sample_plus"] < 0.08
    assert s["ks_two_sample_minus"] < 0.08
    assert abs(s["endpoint_rank_correlation"]) < 0.08
    # The endpoints are exponential with mean two, not mean one.
    assert s["ks_limit_plus_vs_fitted_exponential"] < 0.05
    assert 1.8 < s["fitted_exponential_mean"] < 2.2


def test_so2_experiment_reproducible():
    a = so2_square_experiment(n=100, replicates=50, limit_replicates=50,
                              seed=12)
    b = so2_square_experiment(n=100, replicates=50, limit_replicates=50,
                              seed=12)
    assert a.statistics == b.statistics
    assert a.config_hash == b.config_hash


def _reference_limit_rotation_endpoints(rng, t_horizon=100.0):
    """One replicate's endpoints, with boolean-index copies and the
    negated divisor."""
    count = rng.poisson(2.0 * t_horizon)
    t = t_horizon * (1.0 - rng.random(count))
    z = 2.0 * rng.random(count) - 1.0
    pos, neg = z > 0, z < 0
    plus = np.min(t[pos] / z[pos]) if np.any(pos) else np.inf
    minus = np.min(t[neg] / -z[neg]) if np.any(neg) else np.inf
    return plus, minus


def _reference_finite_rotation_extent(points, n):
    """One sample's scaled maximal rotation angles, from its own arrays."""
    rho = np.linalg.norm(points, axis=1)
    mask = rho > 1.0
    if not np.any(mask):
        return np.inf, np.inf
    rho = rho[mask]
    phi = np.arctan2(points[mask, 1], points[mask, 0])
    beta = np.arccos(1.0 / rho)
    r0 = np.clip(np.mod(phi, np.pi / 2), beta, np.pi / 2 - beta)
    return (n * float(np.min(np.pi / 2 - beta - r0)),
            n * float(np.min(r0 - beta)))


@pytest.mark.parametrize("replicates", [1, 63, 64, 65, 150])
@pytest.mark.parametrize("t_horizon", [100.0, 0.5])
def test_limit_rotation_endpoints_match_reference(replicates, t_horizon):
    from khull.empirical import _limit_rotation_endpoints

    got = np.column_stack(_limit_rotation_endpoints(replicates, 5,
                                                    t_horizon))
    want = np.array([_reference_limit_rotation_endpoints(spawn_rng(5, 0, i),
                                                         t_horizon)
                     for i in range(replicates)])
    assert np.array_equal(got, want)
    if t_horizon < 1 and replicates > 60:
        # A short horizon leaves some sides without marks.
        assert np.isinf(want).any() and np.isfinite(want).any()


@pytest.mark.parametrize("replicates", [1, 63, 64, 65, 150])
@pytest.mark.parametrize("n", [1, 300])
def test_finite_rotation_extents_match_reference(replicates, n):
    from khull.empirical import _finite_rotation_extents

    got = np.column_stack(_finite_rotation_extents(SQUARE, n, replicates, 9))
    want = np.array([
        _reference_finite_rotation_extent(
            uniform_sample(SQUARE, n, rng=spawn_rng(9, 1, i)), n)
        for i in range(replicates)])
    assert np.array_equal(got, want)
    if n == 1 and replicates > 60:
        # One point lies within the unit disk about 79% of the time.
        assert np.isinf(want).any() and np.isfinite(want).any()


def _reference_so2_samples(n, replicates, limit_replicates, seed, s_max):
    """Per-replicate clipped rotation endpoints, one `spawn_rng` each."""
    limit = np.array([_reference_limit_rotation_endpoints(
        spawn_rng(seed, 0, i)) for i in range(limit_replicates)])
    finite = np.array([
        _reference_finite_rotation_extent(
            uniform_sample(SQUARE, n, rng=spawn_rng(seed, 1, i)), n)
        for i in range(replicates)])
    limit, finite = np.minimum(limit, s_max), np.minimum(finite, s_max)
    return {"limit_plus": limit[:, 0], "limit_minus": limit[:, 1],
            "finite_plus": finite[:, 0], "finite_minus": finite[:, 1]}


def test_so2_experiment_matches_per_replicate_reference():
    # s_max = 2 clips a share of the endpoints on both pipelines.
    rep = so2_square_experiment(n=300, replicates=40, limit_replicates=70,
                                seed=17, s_max=2.0)
    want = _reference_so2_samples(300, 40, 70, 17, 2.0)
    assert rep.samples.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(rep.samples[key], value), key
    assert (want["limit_plus"] == 2.0).any()
    assert (want["finite_plus"] < 2.0).any()


def _reference_translation_box_extents(n, replicates, seed, s_max,
                                       simulate_via_marks):
    """Per-replicate clipped extents, with per-column extremes."""
    dirs = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
    limit = np.zeros((replicates, 4))
    for i in range(replicates):
        rng = spawn_rng(seed, 0, i)
        if simulate_via_marks:
            cell = build_zero_cell(SQUARE, 0.0, rng=rng, t_max=100.0)
            cell = restrict_to_cone(cell, cone_preset("translations", 2))
            limit[i] = [min(cell.extent(u), s_max) for u in dirs]
        else:
            limit[i] = np.minimum(rng.exponential(2.0, size=4), s_max)
    finite = np.zeros((replicates, 4))
    for i in range(replicates):
        pts = uniform_sample(SQUARE, n, rng=spawn_rng(seed, 1, i))
        hi = np.array([c.max() for c in pts.T])
        lo = np.array([c.min() for c in pts.T])
        finite[i] = n * np.array([1 - hi[0], 1 + lo[0], 1 - hi[1],
                                  1 + lo[1]])
    return limit, np.minimum(finite, s_max)


@pytest.mark.parametrize("simulate_via_marks", [False, True])
def test_translation_box_extents_match_reference(simulate_via_marks):
    # s_max = 2 clips about a third of the extents on both sides.
    rep = translation_box_experiment(n=400, replicates=60, seed=21, s_max=2.0,
                                     simulate_via_marks=simulate_via_marks)
    limit, finite = _reference_translation_box_extents(400, 60, 21, 2.0,
                                                       simulate_via_marks)
    assert np.array_equal(rep.samples["limit_extents"], limit)
    assert np.array_equal(rep.samples["finite_extents"], finite)
    assert (finite == 2.0).any() and (finite < 2.0).any()
    assert (limit == 2.0).any() and (limit < 2.0).any()


def test_translation_box_experiment():
    rep = translation_box_experiment(n=1000, replicates=2000, seed=13)
    s = rep.statistics
    assert max(s["ks_limit_vs_exp_half"]) < 0.04
    assert s["max_abs_correlation"] < 0.07
    assert max(s["ks_two_sample"]) < 0.06


def test_translation_box_mark_pipeline_agrees_with_oracle():
    oracle = translation_box_experiment(n=200, replicates=1500, seed=14)
    marks = translation_box_experiment(n=200, replicates=1500, seed=15,
                                       simulate_via_marks=True)
    a = oracle.samples["limit_extents"][:, 0]
    b = marks.samples["limit_extents"][:, 0]
    assert stats.ks_2samp(a, b).pvalue > 1e-4


def test_inclusion_functional():
    cone = cone_preset("skew", 2)
    pts = np.array([[0.5 * np.sqrt(2)], [1.0 * np.sqrt(2)]])
    rep = inclusion_functional_estimate(SQUARE, cone, pts, n=500,
                                        replicates=1500, seed=16)
    s = rep.statistics
    # Limit frequency is P(zeta+ >= 1) = exp(-1/2).
    assert s["limit_frequency"] == pytest.approx(np.exp(-0.5), abs=0.05)
    assert s["difference"] < 0.06


def _reference_inclusion_statistics(body, cone, test_points, n, replicates,
                                    seed):
    """Per-replicate loop: one `xn_membership` per replicate and point."""
    window = max(np.linalg.norm(cone.embed(c)) for c in test_points) + 1.0
    limit_hits = finite_hits = 0
    for i in range(replicates):
        cell = build_zero_cell(body, window, rng=spawn_rng(seed, 0, i))
        limit_hits += bool(restrict_to_cone(cell, cone)
                           .contains(test_points).all())
    for i in range(replicates):
        pts = uniform_sample(body, n, rng=spawn_rng(seed, 1, i))
        finite_hits += all(xn_membership(-cone.embed(c), pts, n, body)
                           for c in test_points)
    return {"limit_frequency": limit_hits / replicates,
            "finite_frequency": finite_hits / replicates,
            "difference": abs(limit_hits - finite_hits) / replicates}


REFERENCE_CASES = [
    pytest.param(SQUARE, "skew", [[0.5], [-1.0]], id="square-skew"),
    pytest.param(cube(3), "skew", [[0.5, -0.3, 0.4], [-0.6, 0.2, 0.1]],
                 id="cube3-skew"),
    pytest.param(Ball(2.0, 2), "scalings",
                 [[0.3, -0.2, 0.4], [-0.5, 0.1, 0.2]], id="ball2-scalings"),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("body,cone,points", REFERENCE_CASES)
def test_inclusion_functional_matches_per_replicate_reference(body, cone,
                                                              points, seed):
    cone = cone_preset(cone, body.dim)
    points = np.array(points)
    rep = inclusion_functional_estimate(body, cone, points, n=20,
                                        replicates=40, seed=seed)
    want = _reference_inclusion_statistics(body, cone, points, 20, 40, seed)
    assert rep.statistics == want
    assert 0 < want["finite_frequency"] < 1


@pytest.mark.parametrize("replicates", [1, 63, 64, 65, 150])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("body,cone,points", REFERENCE_CASES + [
    # Every projection vanishes: each cell keeps no rows.
    pytest.param(Ball(2.0, 2), "skew", [[0.5], [-1.0]], id="ball2-skew"),
    pytest.param(HalfBall(1.0, dim=2), "translations",
                 [[0.3, -0.2], [-0.1, 0.4]], id="halfball2-translations"),
    # A tilted axis: the flat marks go through a full frame product.
    pytest.param(HalfBall(1.5, axis=np.array([1.0, -2.0, 2.0]), dim=3),
                 "translations", [[0.3, -0.2, 0.1], [-0.1, 0.4, -0.2]],
                 id="halfball3-translations"),
])
def test_inclusion_functional_matches_reference_across_blocks(
        body, cone, points, seed, replicates):
    """Replicate counts on both sides of the limit side's block edges."""
    cone = cone_preset(cone, body.dim)
    points = np.array(points)
    rep = inclusion_functional_estimate(body, cone, points, n=20,
                                        replicates=replicates, seed=seed)
    want = _reference_inclusion_statistics(body, cone, points, 20,
                                           replicates, seed)
    assert rep.statistics == want


def test_ball_skew_cells_keep_no_rows():
    cell = build_zero_cell(Ball(2.0, 2), 2.0, seed=0)
    assert cell.n_constraints > 0
    assert restrict_to_cone(cell, cone_preset("skew", 2)).n_constraints == 0


@pytest.mark.parametrize("body,cone,points,limit_hits,finite_hits", [
    (SQUARE, "skew", [[0.03], [-0.04]], 289, 292),
    (cube(3), "skew", [[0.02, -0.01, 0.03], [-0.03, 0.02, 0.01]], 289, 286),
    (Ball(1.0, 2), "scalings", [[0.01, -0.02, 0.03], [-0.03, 0.01, 0.02]],
     277, 275),
], ids=["square-skew", "cube3-skew", "ball2-scalings"])
def test_inclusion_functional_statistics_at_benchmark_size(
        body, cone, points, limit_hits, finite_hits):
    """The benchmark's cases at its n, ending on a partial block; the hit
    counts are those of the per-replicate loop."""
    rep = inclusion_functional_estimate(body, cone_preset(cone, body.dim),
                                        np.array(points), n=2000,
                                        replicates=300, seed=0)
    assert rep.statistics["limit_frequency"] == limit_hits / 300
    assert rep.statistics["finite_frequency"] == finite_hits / 300


def test_xn_membership_matches_matrix_exponential_formula():
    rng = np.random.default_rng(8)
    pts = uniform_sample(SQUARE, 300, seed=8)
    verdicts = []
    for _ in range(200):
        x, c = 2.0 * rng.standard_normal(2), 2.0 * rng.standard_normal((2, 2))
        moved = pts @ expm(-c / 300.0).T - x / 300.0
        want = bool(SQUARE.contains(moved).all())
        assert xn_membership(np.concatenate([x, c.ravel()]), pts, 300,
                             SQUARE) is want
        verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


def test_dual_cone_slopes():
    for d in (2, 3):
        rep = dual_cone_intensity_experiment(d=d, target_points=30000,
                                             seed=17)
        assert abs(rep.statistics["slope"] + d) < 0.1
