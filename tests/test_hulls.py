import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from khull.bodies import (GEO_TOL, Ball, BallIntersection, EmptySet,
                          Polytope, WholeSpace, cube, cross_polytope,
                          min_enclosing_ball, support_function)
from khull.hulls import (
    BallHullOracle,
    FAMILY_PRESETS,
    SphericalHull,
    feasible_translations,
    generic_hull_membership,
    hull_full_affine,
    hull_linear_ball,
    hull_translations_scalings,
    k_hull_translations,
    positive_hull,
    spherical_hull_halfball,
)

SQUARE = cube(2)


def gift_wrap(points):
    """Independent 2D convex hull (gift wrapping), for cross-checks."""
    points = np.asarray(points, dtype=float)
    start = min(range(len(points)), key=lambda i: (points[i][0],
                                                   points[i][1]))
    hull = [start]
    while True:
        cur = hull[-1]
        cand = (cur + 1) % len(points)
        for j in range(len(points)):
            if j == cur:
                continue
            a = points[cand] - points[cur]
            b = points[j] - points[cur]
            cross = a[0] * b[1] - a[1] * b[0]
            if cross < -1e-12 or (abs(cross) <= 1e-12 and
                                  np.linalg.norm(points[j] - points[cur]) >
                                  np.linalg.norm(points[cand] - points[cur])):
                cand = j
        if cand == start:
            break
        hull.append(cand)
    return points[hull]


# -- translations ---------------------------------------------------------------

def test_k_hull_square_two_points_is_segment():
    a = np.array([[-1.0, 0.0], [1.0, 0.0]])
    res = k_hull_translations(SQUARE, a)
    verts = res.body.vertices
    assert sorted(map(tuple, np.round(verts, 9).tolist())) == [
        (-1.0, 0.0), (1.0, 0.0)]


def test_k_hull_singleton():
    a = np.array([[0.3, -0.4]])
    res = k_hull_translations(SQUARE, a)
    assert np.allclose(res.body.vertices, a, atol=1e-9)


def test_k_hull_whole_space_sentinel():
    a = np.array([[-3.0, 0.0], [3.0, 0.0]])
    res = k_hull_translations(SQUARE, a)
    assert isinstance(res.body, WholeSpace)


def test_k_hull_ball_lens():
    a = np.array([[-0.5, 0.0], [0.5, 0.0]])
    res = k_hull_translations(Ball(1.0, 2), a)
    oracle = res.body
    assert isinstance(oracle, BallHullOracle)
    # The lens is B1(c+) cap B1(c-) with c the unit-circle intersections
    # around the two sample points.
    h = np.sqrt(1.0 - 0.25)
    lens_tops = np.array([[0.0, h - 1.0], [0.0, 1.0 - h]])
    inside = np.array([[0.0, 0.0], [0.45, 0.0], [0.0, 0.9 * (1 - h)]])
    outside = np.array([[0.0, 1.05 * (1 - h)], [0.6, 0.0], [0.0, -0.2]])
    assert oracle.contains(inside).all()
    assert not oracle.contains(outside).any()
    assert oracle.contains(lens_tops).all()


def test_k_hull_ball_infeasible_centroid_is_not_whole_space():
    # The centroid (0.5, 0) of the sample is 1.5 from (2, 0), but the
    # centre (1, 0) covers it with radius 1.2.
    a = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    oracle = k_hull_translations(Ball(1.2, 2), a).body
    assert isinstance(oracle, BallHullOracle)
    assert oracle.contains(a).all()
    assert oracle.contains([[1.0, 0.0]])[0]
    assert not oracle.contains([[1.0, 1.0]])[0]
    far = np.array([[0.0, 0.0], [3.0, 0.0]])
    assert isinstance(k_hull_translations(Ball(1.2, 2), far).body,
                      WholeSpace)


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-10, 1e-9])
def test_k_hull_ball_two_points_just_over_diameter(eps):
    # Within 2·GEO_TOL of 2r the two balls count as touching: the feasible
    # centres are the midpoint, and the hull is the ball around it.
    a = np.array([[0.0, 0.0], [2.0 + eps, 0.0]])
    oracle = k_hull_translations(Ball(1.0, 2), a).body
    assert isinstance(oracle, BallHullOracle)
    assert oracle.contains([[1.0, 0.0], [1.0, 0.5], [0.0, 0.0]]).all()
    assert not oracle.contains([[1.0, 1.01], [-0.01, 0.0]]).any()
    assert oracle.max_center_distances([[1.0, 0.0]])[0] == pytest.approx(
        eps / 2, abs=1e-15)


@pytest.mark.parametrize("eps", [1e-10, 5e-10, 9e-10])
def test_k_hull_ball_three_points_just_over_enclosing_radius(eps):
    # The enclosing circle is wider than r by eps < GEO_TOL, so the
    # feasible centres count as non-empty; every radius-r corner may miss
    # the tolerance, and the enclosing centre stands in for them.
    theta = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    a = (1.0 + eps) * np.column_stack([np.cos(theta), np.sin(theta)])
    oracle = k_hull_translations(Ball(1.0, 2), a).body
    assert isinstance(oracle, BallHullOracle)
    assert oracle.contains(np.vstack([a, [[0.0, 0.0], [0.5, 0.5]]])).all()
    assert not oracle.contains([[1.01, 0.0], [0.0, -1.01]]).any()
    assert oracle.max_center_distances([[0.0, 0.0]])[0] < 1e-9


def _reference_circle_intersections(c1, c2, r):
    d = np.linalg.norm(c2 - c1)
    if d < 1e-14 or d > 2 * r + 1e-14:
        return []
    mid = 0.5 * (c1 + c2)
    h2 = r * r - 0.25 * d * d
    if h2 < 0:
        return []
    h = np.sqrt(h2)
    perp = np.array([-(c2 - c1)[1], (c2 - c1)[0]]) / d
    return [mid + h * perp, mid - h * perp]


def _reference_max_center_distances(sample, r, queries):
    """All-pairs, all-balls enumeration over the full sample.

    The candidates are every pairwise circle intersection and, per query,
    the far point of every circle; a candidate counts when it lies in all
    n balls.  No extreme-point reduction.
    """
    def feasible(cands):
        for a in sample:
            cands = cands[np.linalg.norm(cands - a, axis=1) <= r + GEO_TOL]
        return cands

    corners = [p for i in range(len(sample)) for j in range(i + 1, len(sample))
               for p in _reference_circle_intersections(sample[i], sample[j],
                                                        r)]
    corners = feasible(np.array(corners).reshape(-1, 2))
    out = []
    for y in queries:
        far = []
        for c in sample:
            v = c - y
            nv = np.linalg.norm(v)
            far.append(c + r * (v / nv if nv > 1e-14 else np.array([1.0, 0])))
        cands = np.vstack([feasible(np.array(far)), corners])
        if len(cands) == 0:
            raise ValueError("empty feasible center set")
        out.append(np.max(np.linalg.norm(cands - y, axis=1)))
    return np.array(out)


def _disk_sample(rng, n, radius=0.8):
    """n points uniform in a disk, so the ball hull exists for r > radius."""
    phi = 2 * np.pi * rng.random(n)
    rho = radius * np.sqrt(rng.random(n))
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi)])


def _ball_hull(sample, r):
    """The planar ball hull's oracle, built on the sample's feasible set."""
    return BallHullOracle(feasible_translations(Ball(r, 2), sample))


def _assert_matches_reference(sample, r, queries):
    oracle = _ball_hull(sample, r)
    want = _reference_max_center_distances(sample, r, queries)
    got = oracle.max_center_distances(queries)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(oracle.contains(queries),
                                  want <= r + GEO_TOL)


@pytest.mark.parametrize("r", [0.9, 1.5])
@pytest.mark.parametrize("n", [1, 2, 5, 50, 300])
@pytest.mark.parametrize("seed", range(5))
def test_ball_hull_oracle_matches_reference(seed, n, r):
    rng = np.random.default_rng(seed)
    sample = _disk_sample(rng, n)
    queries = np.vstack([3.2 * rng.random((30, 2)) - 1.6, sample[:5]])
    _assert_matches_reference(sample, r, queries)


def test_ball_hull_oracle_matches_reference_degenerate_samples():
    rng = np.random.default_rng(7)
    queries = 3.2 * rng.random((40, 2)) - 1.6
    base = _disk_sample(rng, 12)
    duplicated = np.vstack([base, base[::-1], base[:4]])
    _assert_matches_reference(duplicated, 0.9, np.vstack([queries, base]))
    t = np.linspace(-1.0, 1.0, 15)[:, None]
    collinear = np.array([0.1, -0.2]) + t * np.array([0.6, 0.3])
    _assert_matches_reference(collinear, 0.9, np.vstack([queries,
                                                         collinear]))
    oracle = _ball_hull(collinear, 0.9)
    assert len(oracle.centers) == 2


def test_ball_hull_oracle_permutation_invariant():
    rng = np.random.default_rng(3)
    sample = _disk_sample(rng, 80)
    queries = 3.2 * rng.random((200, 2)) - 1.6
    oracle = _ball_hull(sample, 1.2)
    verdicts = oracle.contains(queries)
    assert 0 < verdicts.sum() < len(queries)
    for _ in range(3):
        shuffled = _ball_hull(sample[rng.permutation(len(sample))], 1.2)
        np.testing.assert_array_equal(shuffled.contains(queries), verdicts)


@pytest.mark.parametrize("sample,r", [
    (np.array([[-0.5, 0.0], [0.5, 0.0]]), 1.0),
    (_disk_sample(np.random.default_rng(11), 20, radius=0.5), 0.9),
], ids=["lens", "random"])
def test_ball_hull_max_center_distance_matches_grid(sample, r):
    # The feasible centres on a grid of spacing h: every point of the
    # disk intersection is within h·√2/2 of a grid point inside it, so the
    # grid maximum falls short of the exact one by at most h·√2.
    h = 0.004
    axis = np.arange(-r, r + h, h)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    grid = grid + sample[0]
    for a in sample:
        grid = grid[np.linalg.norm(grid - a, axis=1) <= r]
    oracle = _ball_hull(sample, r)
    rng = np.random.default_rng(0)
    queries = np.vstack([[0.0, 0.0], 2.0 * rng.random((5, 2)) - 1.0])
    for y, exact in zip(queries, oracle.max_center_distances(queries)):
        brute = np.max(np.linalg.norm(grid - y, axis=1))
        assert brute <= exact + 1e-12
        assert exact - brute <= h * np.sqrt(2)


def test_k_hull_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = 2 * rng.random((6, 2)) - 1
        res = k_hull_translations(SQUARE, a)
        body = res.body
        if isinstance(body, WholeSpace) or not isinstance(body, Polytope):
            continue
        # Re-hull a dense boundary sampling of the output.
        dense = _boundary_points(body, 200)
        res2 = k_hull_translations(SQUARE, dense)
        for u, h in zip(body.facet_normals, body.facet_offsets):
            h2 = support_function(res2.body, u)
            assert abs(h2 - h) < 1e-6


def _boundary_points(poly, n):
    verts = poly.vertices
    order = np.argsort(np.arctan2(*(verts - verts.mean(axis=0)).T[::-1]))
    verts = verts[order]
    pts = []
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        for lam in np.linspace(0, 1, max(2, n // len(verts)), endpoint=False):
            pts.append(a + lam * (b - a))
    return np.array(pts)


def test_feasibility_invariance():
    # Feasible translations of A equal those of a dense sampling of hull(A).
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = 1.6 * rng.random((5, 2)) - 0.8
        hull = k_hull_translations(SQUARE, a).body
        if not isinstance(hull, Polytope) or not hull.is_full_dimensional:
            continue
        x1 = feasible_translations(SQUARE, a)
        x2 = feasible_translations(SQUARE, _boundary_points(hull, 100))
        for u in np.vstack([np.eye(2), -np.eye(2)]):
            assert support_function(x1, u) == pytest.approx(
                support_function(x2, u), abs=1e-6)


# -- translations + scalings -----------------------------------------------------

def test_translations_scalings_box_example():
    a = np.array([[0.0, 0.0], [0.5, 0.5]])
    res = hull_translations_scalings(SQUARE, a)
    assert sorted(map(tuple, np.round(res.body.vertices, 9).tolist())) == [
        (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]


def test_translations_scalings_singleton():
    res = hull_translations_scalings(SQUARE, np.array([[0.0, 0.0]]))
    assert np.allclose(res.body.vertices, [[0.0, 0.0]], atol=1e-9)


def _reference_face_lattice_hull(body, sample):
    """Hull under translations and scalings from the face lattice (d <= 3).

    One supporting cone per face of the body (vertices, edges, facets),
    each moved by LP to the tightest translate that still covers the
    sample, one LP per (face, facet) pair; the hull is the intersection.
    Half-spaces with one normal are merged into the tightest, which keeps
    the set and spares the vertex enumeration the redundant rows.
    """
    slack = body.vertices @ body.facet_normals.T - body.facet_offsets
    vertex_active = [frozenset(np.nonzero(np.abs(row) <= 1e-7)[0])
                     for row in slack]
    faces = set(vertex_active)
    faces.update(frozenset([i]) for i in range(len(body.facet_normals)))
    for i in range(len(vertex_active)):
        for j in range(i + 1, len(vertex_active)):
            edge = vertex_active[i] & vertex_active[j]
            if edge:
                faces.add(edge)
    offsets = np.full(len(body.facet_normals), np.inf)
    for face in faces:
        idx = sorted(face)
        u_rows = body.facet_normals[idx]
        m = np.max(sample @ u_rows.T, axis=0)
        for i, u in zip(idx, u_rows):
            res = linprog(u, A_ub=-u_rows, b_ub=-m,
                          bounds=[(None, None)] * body.dim, method="highs")
            if res.success:
                offsets[i] = min(offsets[i], res.fun)
    bounded = np.isfinite(offsets)
    return Polytope.from_halfspaces(body.facet_normals[bounded],
                                    offsets[bounded])


def _vertex_hausdorff(p, q):
    gap = np.linalg.norm(p.vertices[:, None] - q.vertices[None], axis=2)
    return max(gap.min(axis=0).max(), gap.min(axis=1).max())


def _hexagon():
    phi = np.pi / 3 * np.arange(6)
    return np.column_stack([np.cos(phi), np.sin(phi)])


HEXAGONAL_PRISM = Polytope.from_vertices(
    np.vstack([np.column_stack([_hexagon(), np.full(6, z)])
               for z in (-1.0, 1.0)]))

TS_BODIES = {
    "square": SQUARE,
    "hexagon": Polytope.from_vertices(_hexagon()),
    "cube3": cube(3),
    "cross3": cross_polytope(3),
    "hex-prism": HEXAGONAL_PRISM,
    "random25": Polytope.from_vertices(
        np.random.default_rng(11).standard_normal((25, 3))),
}


@pytest.mark.parametrize("n", [1, 2, 7, 30])
@pytest.mark.parametrize("name", list(TS_BODIES))
def test_translations_scalings_matches_face_lattice_reference(name, n):
    body = TS_BODIES[name]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sample = rng.dirichlet(np.ones(len(body.vertices)), n) @ body.vertices
        got = hull_translations_scalings(body, sample).body
        want = _reference_face_lattice_hull(body, sample)
        assert got == want
        assert _vertex_hausdorff(got, want) <= 1e-9
        assert got.contains(sample).all()


def test_translations_scalings_smooth_body_gives_conv():
    rng = np.random.default_rng(2)
    a = 0.5 * rng.standard_normal((8, 2))
    res = hull_translations_scalings(Ball(1.0, 2), a)
    assert res.body == Polytope.from_vertices(a)


# -- full affine and linear-ball --------------------------------------------------

def test_full_affine_matches_gift_wrapping():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = 2 * rng.random((20, 2)) - 1
        got = hull_full_affine(a).body
        want = Polytope.from_vertices(gift_wrap(a))
        assert got == want


def test_full_affine_collinear():
    a = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    seg = hull_full_affine(a).body
    assert len(seg.vertices) == 2


def test_linear_ball_examples():
    seg = hull_linear_ball(np.array([[1.0, 0.0]])).body
    assert sorted(map(tuple, np.round(seg.vertices, 9).tolist())) == [
        (-1.0, 0.0), (1.0, 0.0)]
    quad = hull_linear_ball(np.array([[0.5, 0.0], [0.0, 0.5]])).body
    assert len(quad.vertices) == 4


def test_linear_ball_is_symmetric_hull():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.standard_normal((6, 2)) * 0.5
        got = hull_linear_ball(a).body
        want = Polytope.from_vertices(np.vstack([a, -a]))
        assert got == want


# -- positive and spherical hulls --------------------------------------------------

def test_positive_hull_quadrant():
    cone = positive_hull(np.array([[1.0, 0.0], [0.0, 1.0]])).body
    assert bool(cone.contains(np.array([[2.0, 3.0]]))[0])
    assert not bool(cone.contains(np.array([[-0.1, 1.0]]))[0])


def test_positive_hull_origin_only():
    cone = positive_hull(np.array([[0.0, 0.0]])).body
    assert bool(cone.contains(np.zeros((1, 2)))[0])
    assert not bool(cone.contains(np.array([[1.0, 0.0]]))[0])


def test_positive_hull_spanning():
    cone = positive_hull(np.vstack([np.eye(2), -np.eye(2)])).body
    assert cone.is_whole_space()


def test_positive_hull_matches_angular_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.standard_normal((5, 2))
        a[:, 0] = np.abs(a[:, 0])  # keep the set pointed
        cone = positive_hull(a).body
        queries = rng.standard_normal((100, 2))
        ang = np.arctan2(a[:, 1], a[:, 0])
        lo, hi = ang.min(), ang.max()
        qa = np.arctan2(queries[:, 1], queries[:, 0])
        want = (qa >= lo - 1e-12) & (qa <= hi + 1e-12)
        got = cone.contains(queries)
        assert np.array_equal(got, want)


def test_positive_hull_3d():
    gens = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    cone = positive_hull(gens).body
    assert bool(cone.contains(np.array([[1.0, 2.0, 3.0]]))[0])
    assert not bool(cone.contains(np.array([[-1.0, 1.0, 1.0]]))[0])
    full = positive_hull(np.vstack([np.eye(3), -np.eye(3)])).body
    assert full.is_whole_space()


def _reference_extreme_rays(dirs):
    """Rows of dirs outside the positive hull of the other rows (LPs)."""
    n = len(dirs)
    keep = [i for i in range(n) if not linprog(
        np.zeros(n - 1), A_eq=np.delete(dirs, i, axis=0).T, b_eq=dirs[i],
        bounds=[(0, None)] * (n - 1), method="highs").success]
    return dirs[keep]


@pytest.mark.parametrize("d,n", [(3, 3), (3, 10), (3, 40), (4, 12)])
@pytest.mark.parametrize("seed", range(5))
def test_positive_hull_matches_per_ray_lp_reference(seed, d, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    a[:, 0] = np.abs(a[:, 0]) + 0.2  # keep the set pointed
    dirs = a / np.linalg.norm(a, axis=1, keepdims=True)
    cone = positive_hull(a).body
    np.testing.assert_array_equal(cone.generators,
                                  _reference_extreme_rays(dirs))
    assert cone.contains(a).all()


@pytest.mark.parametrize("copy", [[1.0, 0, 0], [2.0, 0, 0]])
def test_positive_hull_keeps_one_of_repeated_directions(copy):
    a = np.array([[1.0, 0, 0], copy, [0, 1.0, 0], [0, 0, 1.0]])
    cone = positive_hull(a).body
    assert cone.contains(np.vstack([np.eye(3), a])).all()
    dirs = a / np.linalg.norm(a, axis=1, keepdims=True)
    gens = cone.generators
    assert len(np.unique(gens, axis=0)) == len(gens) == 3
    assert all(any(np.array_equal(g, r) for r in dirs) for g in gens)
    assert not cone.contains(np.array([[-1.0, 1.0, 1.0]])).any()


def test_spherical_hull_examples():
    seg = spherical_hull_halfball(np.array([[1.0, 0.0]])).body
    assert bool(seg.contains(np.array([[0.5, 0.0]]))[0])
    assert not bool(seg.contains(np.array([[0.5, 0.1]]))[0])
    assert not bool(seg.contains(np.array([[1.1, 0.0]]))[0])

    s = np.sqrt(2) / 2
    arc_hull = spherical_hull_halfball(np.array([[1.0, 0.0], [s, s]])).body
    lo, hi = arc_hull.arc()
    assert lo == pytest.approx(0.0, abs=1e-12)
    assert hi == pytest.approx(np.pi / 4, abs=1e-12)


def test_spherical_hull_quarter_disk():
    hull = spherical_hull_halfball(
        np.array([[0.9, 0.0001], [0.0001, 0.9]])).body
    assert bool(hull.contains(np.array([[0.3, 0.3]]))[0])
    assert not bool(hull.contains(np.array([[0.3, -0.1]]))[0])


def test_spherical_hull_rejects_outside_half_ball():
    with pytest.raises(ValueError):
        spherical_hull_halfball(np.array([[-0.5, 0.5]]))


# -- sandwich and monotonicity ------------------------------------------------------

def test_sandwich_conv_subset_hull_subset_K():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = 1.4 * rng.random((6, 2)) - 0.7
        conv = hull_full_affine(a).body
        for res in [k_hull_translations(SQUARE, a),
                    hull_translations_scalings(SQUARE, a)]:
            body = res.body
            assert body.contains(a).all()
            # conv(A) inside hull: check conv vertices.
            assert body.contains(conv.vertices).all()
            # hull inside K.
            if isinstance(body, Polytope):
                assert SQUARE.contains(body.vertices).all()


@pytest.mark.parametrize("hull,body,scale", [
    (hull_translations_scalings, cube(4), 1.0),
    (k_hull_translations, cross_polytope(4), 0.24)],
    ids=["translations-scalings-cube4", "k-hull-cross4"])
def test_sandwich_in_four_dimensions(hull, body, scale):
    rng = np.random.default_rng(7)
    for n in (1, 2, 6, 20):
        a = scale * rng.uniform(-1.0, 1.0, (n, 4))
        res = hull(body, a).body
        assert isinstance(res, Polytope)
        assert res.contains(a).all()
        assert body.contains(res.vertices).all()
        if n == 20:
            assert res.is_full_dimensional
        if res.is_full_dimensional:
            gap = np.linalg.norm(res.facet_normals[:, None]
                                 - body.facet_normals[None], axis=2)
            assert np.all(gap.min(axis=1) <= 1e-9)


def test_polytope_hulls_in_one_dimension():
    a = np.array([[0.2], [-0.3], [0.5]])
    for hull in (k_hull_translations, hull_translations_scalings):
        res = hull(cube(1), a).body
        assert res == Polytope.from_vertices([[-0.3], [0.5]])
        assert np.array_equal(res.facet_normals, [[-1.0], [1.0]])
    # Wider than the segment: no translate covers the sample.
    assert isinstance(k_hull_translations(cube(1), [[-1.5], [1.5]]).body,
                      WholeSpace)


def test_monotonicity_in_family():
    # identity-only -> translations -> translations+scalings -> full affine
    # yields a decreasing chain of hulls.
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = 1.4 * rng.random((5, 2)) - 0.7
        h_trans = k_hull_translations(SQUARE, a).body
        h_scal = hull_translations_scalings(SQUARE, a).body
        h_conv = hull_full_affine(a).body
        queries = 2.2 * rng.random((100, 2)) - 1.1
        in_trans = h_trans.contains(queries)
        in_scal = h_scal.contains(queries)
        in_conv = h_conv.contains(queries)
        # Larger family, smaller hull: conv subset scalings subset trans
        # subset K (identity-only hull is K itself when A is in K).
        assert not np.any(in_conv & ~in_scal)
        assert not np.any(in_scal & ~in_trans)
        assert not np.any(in_trans & ~SQUARE.contains(queries))


# -- generic membership oracle -------------------------------------------------------

def test_generic_membership_trivial_inside():
    fam = FAMILY_PRESETS["full-affine"]
    a = np.array([[0.0, 0.0], [0.6, 0.0], [0.0, 0.6]])
    status, _ = generic_hull_membership(SQUARE, fam, a, a.mean(axis=0),
                                        budget=4)
    assert status == "inside"
    status, _ = generic_hull_membership(SQUARE, fam, a, a[1], budget=4)
    assert status == "inside"


def test_generic_membership_finds_ellipsoid_witness():
    fam = FAMILY_PRESETS["linear-ball"]
    a = np.array([[0.5, 0.0], [0.0, 0.5]])
    status, witness = generic_hull_membership(Ball(1.0, 2), fam, a,
                                              np.array([0.45, 0.45]),
                                              budget=32, seed=0)
    assert status == "outside"
    assert witness is not None


def test_generic_oracle_agrees_with_linear_ball_closed_form():
    fam = FAMILY_PRESETS["linear-ball"]
    rng = np.random.default_rng(8)
    a = 0.5 * rng.standard_normal((4, 2))
    closed = hull_linear_ball(a).body
    queries = 1.5 * rng.standard_normal((60, 2))
    for q in queries:
        inside_closed = bool(closed.contains(q[None])[0])
        budget = 6 if inside_closed else 48
        status, witness = generic_hull_membership(Ball(1.0, 2), fam, a, q,
                                                  budget=budget, seed=1)
        if inside_closed:
            assert status == "inside", f"false witness for {q}"
        else:
            # Points well outside must be separated.
            margin = _polytope_margin(closed, q)
            if margin > 1e-3:
                assert status == "outside", f"missed witness for {q}"


def test_generic_certified_queries_never_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the certificate should decide this query")

    monkeypatch.setattr("scipy.optimize.minimize", no_search)
    a = np.array([[0.0, 0.0], [0.6, 0.0], [0.0, 0.6]])
    status, witness = generic_hull_membership(
        SQUARE, FAMILY_PRESETS["full-affine"], a, [0.2, 0.3])
    assert (status, witness) == ("inside", None)
    # In conv(A u -A), not in the segment conv(A): linear images of the
    # symmetric ball are symmetric.
    a = np.array([[0.5, 0.0], [0.0, 0.5]])
    z = np.array([0.1, -0.1])
    assert not hull_full_affine(a).contains(z)[0]
    status, witness = generic_hull_membership(
        Ball(1.0, 2), FAMILY_PRESETS["linear-ball"], a, z)
    assert (status, witness) == ("inside", None)


@pytest.mark.parametrize("body", [SQUARE, Ball(1.0, 2)],
                         ids=["square", "disk"])
def test_generic_k_hull_of_sample_no_translate_holds_is_whole_space(
        monkeypatch, body):
    def no_search(*args, **kwargs):
        raise AssertionError("an empty feasible set should decide this")

    # Two points 3 apart: no translate of the body holds both, so the
    # k-hull is the whole space and every query is inside it.
    a = [[-1.5, 0], [1.5, 0]]
    assert isinstance(k_hull_translations(body, a).body, WholeSpace)
    monkeypatch.setattr("scipy.optimize.minimize", no_search)
    assert generic_hull_membership(body, FAMILY_PRESETS["k-hull"], a, [0, 5],
                                   budget=8) == ("inside", None)


def test_generic_k_hull_search_runs_when_a_translate_holds_the_sample():
    a = np.array([[-0.5, 0.0], [0.5, 0.0]])
    status, witness = generic_hull_membership(
        SQUARE, FAMILY_PRESETS["k-hull"], a, [0, 5], budget=8)
    assert status == "outside"
    # The translate K + x holds A and not the query.
    assert np.all(SQUARE.contains(a - witness))
    assert not SQUARE.contains(np.array([[0, 5]]) - witness)[0]


def test_generic_symmetric_certificate_needs_zero_translations():
    # -a is in conv(A u -A), but the hull of one point under translations
    # and scalings of the square is that point.
    a = np.array([[0.5, 0.5]])
    status, witness = generic_hull_membership(
        SQUARE, FAMILY_PRESETS["translations-scalings"], a, -a[0], budget=8)
    assert status == "outside" and witness is not None


def test_generic_membership_unknown_without_certificate_or_witness():
    fam = FAMILY_PRESETS["translations-scalings"]
    a = np.array([[-0.5, -0.5], [0.5, 0.5]])
    z = np.array([0.4, -0.4])
    # In the hull (the bounding box of A) but outside conv(A): neither an
    # inside certificate nor a separating member exists.
    assert hull_translations_scalings(SQUARE, a).contains(z)[0]
    assert not hull_full_affine(a).contains(z)[0]
    assert generic_hull_membership(SQUARE, fam, a, z,
                                   budget=4) == ("unknown", None)


@pytest.mark.parametrize("body, family, a, z", [
    (Ball(1.0, 2), "linear-ball", [[0.5, 0.0], [0.0, 0.5]], [0.45, 0.45]),
    (SQUARE, "translations-scalings", [[-0.4, 0.1], [0.3, -0.2], [0.0, 0.4]],
     [0.6, 0.0]),
], ids=["linear-ball", "translations-scalings"])
def test_generic_early_stopped_witness_verifies(monkeypatch, body, family, a,
                                                z):
    ended = []

    def recording_minimize(*args, **kwargs):
        try:
            res = minimize(*args, **kwargs)
        except Exception:
            ended.append("stopped")
            raise
        ended.append("converged")
        return res

    monkeypatch.setattr("scipy.optimize.minimize", recording_minimize)
    fam = FAMILY_PRESETS[family]
    a, z = np.array(a), np.array(z)
    status, witness = generic_hull_membership(body, fam, a, z, budget=16,
                                              seed=1)
    assert status == "outside"
    assert ended[-1] == "stopped"
    # The member g(K + x) holds every sample point, and not the query.
    x, g = fam.transform(witness, 2)
    ginv = np.linalg.inv(g)
    assert np.all(body.contains(a @ ginv.T - x))
    assert not body.contains((ginv @ z - x)[None])[0]


def _polytope_margin(poly, q):
    return float(np.max(poly.facet_normals @ q - poly.facet_offsets))


def test_feasible_set_translations_exact():
    a = np.array([[-1.0, 0.0], [1.0, 0.0]])
    x = feasible_translations(SQUARE, a)
    # X = {0} x [-1, 1]
    assert sorted(map(tuple, np.round(x.vertices, 9).tolist())) == [
        (0.0, -1.0), (0.0, 1.0)]


def test_feasible_translations_singleton_is_reflected_body():
    # {x : a in K + x} = a - K, so h(a - K, u) = <a, u> + h(K, -u).
    a = np.array([[0.25, -0.5]])
    x = feasible_translations(SQUARE, a)
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.standard_normal(2)
        assert support_function(x, u) == pytest.approx(
            float(a[0] @ u) + support_function(SQUARE, -u))


def _assert_ball_feasible_set_matches_full_sample(sample, r):
    full = BallIntersection(sample, r)
    got = feasible_translations(Ball(r, sample.shape[1]), sample)
    assert isinstance(got, EmptySet) == full.is_empty()
    if not isinstance(got, EmptySet):
        probes = np.random.default_rng(0).uniform(-2, 2, (200, full.dim))
        np.testing.assert_array_equal(got.contains(probes),
                                      full.contains(probes))
    return isinstance(got, EmptySet)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_ball_feasible_set_of_extreme_points_matches_full_sample(seed, d):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((300, d))
    sample = 0.8 * g / np.linalg.norm(g, axis=1)[:, None] * rng.random(
        (300, 1)) ** (1 / d)
    rho = min_enclosing_ball(sample)[1]
    verdicts = [_assert_ball_feasible_set_matches_full_sample(sample, r)
                for r in (0.5 * rho, rho * (1 - 1e-6), rho * (1 + 1e-6),
                          1.5 * rho)]
    assert verdicts == [True, True, False, False]
    # Only the extreme points are kept as centres.
    kept = feasible_translations(Ball(1.5 * rho, d), sample).centers
    assert len(kept) < len(sample)


def test_ball_feasible_set_of_extreme_points_degenerate_samples():
    t = np.linspace(-1.0, 1.0, 15)[:, None]
    collinear = np.array([0.1, -0.2]) + t * np.array([0.6, 0.3])
    half = float(np.linalg.norm([0.6, 0.3]))  # half the segment's length
    rng = np.random.default_rng(5)
    base = rng.uniform(-0.5, 0.5, (10, 3))
    duplicated = np.vstack([base, base[::-1], base[:3]])
    rho = min_enclosing_ball(base)[1]
    for sample, r, empty in [
            (collinear, 0.99 * half, True), (collinear, 1.01 * half, False),
            (duplicated, 0.99 * rho, True), (duplicated, 1.01 * rho, False),
            (np.array([[0.3, -0.4]]), 0.1, False),
            (np.array([[0.3, -0.4, 0.2]] * 4), 0.1, False)]:
        assert _assert_ball_feasible_set_matches_full_sample(sample,
                                                             r) == empty


@pytest.mark.parametrize("eps, empty", [(5e-10, False), (9e-10, False),
                                        (3e-9, True)])
def test_ball_feasible_set_three_points_near_enclosing_radius(eps, empty):
    theta = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    a = (1.0 + eps) * np.column_stack([np.cos(theta), np.sin(theta)])
    assert _assert_ball_feasible_set_matches_full_sample(a, 1.0) == empty


def test_feasible_set_contains_zero_when_A_in_K():
    x = feasible_translations(SQUARE, SQUARE.vertices)
    assert bool(x.contains(np.zeros((1, 2)))[0])
