import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from khull.bodies import (
    Ball,
    BallIntersection,
    EMPTY,
    GEO_TOL,
    HalfBall,
    HalfSpace,
    PolyhedralCone,
    Polytope,
    WHOLE_SPACE,
    body_from_json,
    body_to_json,
    cross_polytope,
    cube,
    min_enclosing_ball,
    normal_cone,
    polar,
    polar_cone,
    row_norms,
    support_function,
    supporting_cone,
    _extreme_points,
)

SQUARE = cube(2)


def _rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


_CORNERS = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
_GRID = np.array(list(itertools.product(np.linspace(-1.0, 1.0, 5), repeat=3)))
_PHI = np.pi / 3 * np.arange(6)
_HEX_PRISM = np.array([[np.cos(p), np.sin(p), z]
                       for z in (-1.0, 1.0) for p in _PHI])

# Qhull splits the square, grid and prism facets into several triangles.
FACET_INPUTS = {
    "cube3": _CORNERS,
    "cross3": np.vstack([np.eye(3), -np.eye(3)]),
    "grid5": _GRID,
    "rotated-cube": _CORNERS @ _rotation(1).T,
    "rotated-shifted-grid": _GRID @ _rotation(2).T + [0.3, -1.7, 2.1],
    "hex-prism": _HEX_PRISM,
    "rotated-hex-prism": _HEX_PRISM @ _rotation(3).T,
    "box-1e4": 2.0 * np.random.default_rng(4).random((10_000, 3)) - 1.0,
    "gauss-1e4": np.random.default_rng(5).standard_normal((10_000, 3)),
}


@pytest.mark.parametrize("d", range(1, 13))
def test_row_norms_equals_numpy_norm_bit_for_bit(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((600, d)) * 10.0 ** rng.uniform(-3, 3, (600, 1))
    x[0] = 0.0
    x[1, 0] = -0.0
    x[2] = 5e-324 * rng.integers(-9, 10, d)  # subnormals
    x[3] = 1e-310 * rng.standard_normal(d)
    x[4] = 1e150 * rng.standard_normal(d)
    x[5] = 1e-150 * rng.standard_normal(d)
    x[6] = 1e150 * np.where(rng.random(d) < 0.5, 1e-300, 1.0)
    # A (d, m) array's leading columns, transposed: the polytope sample.
    wide = np.hstack([x.T, rng.standard_normal((d, 50))])
    for a in (x, np.asfortranarray(x), wide[:, :len(x)].T, x[::3]):
        got, want = row_norms(a), np.linalg.norm(a, axis=1)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_support_unit_ball():
    assert support_function(Ball(1.0, 2), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_support_square_diagonal():
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert support_function(SQUARE, u) == pytest.approx(np.sqrt(2))


def test_support_polytope_brute_force():
    verts = np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    p = Polytope.from_vertices(verts)
    u = np.array([1.0, 0.0])
    assert support_function(p, u) == pytest.approx(2.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal(2)
        assert support_function(p, u) == pytest.approx(np.max(verts @ u))


def test_polar_ball():
    b = polar(Ball(4.0, 2))
    assert isinstance(b, Ball)
    assert b.radius == pytest.approx(0.25)


def test_polar_square_is_cross_polytope():
    assert polar(SQUARE) == cross_polytope(2)


def test_polar_involution():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pts = rng.standard_normal((8, 2)) + np.array([0.05, -0.02])
        p = Polytope.from_vertices(np.vstack([pts, -pts]))  # origin interior
        assert polar(polar(p)) == p


def test_polar_segment_is_half_space():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = 0.1 + 9.9 * rng.random()
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        seg = Polytope.from_vertices(np.array([np.zeros(2), u / t]))
        h = polar(seg)
        assert isinstance(h, HalfSpace)
        assert np.allclose(h.normal, u, atol=1e-9)
        assert h.offset == pytest.approx(t, abs=1e-9)


def test_polar_rejects_origin_outside():
    p = Polytope.from_vertices(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        polar(p)


def test_supporting_cone_ball_boundary():
    c = supporting_cone(Ball(1.0, 2), np.array([1.0, 0.0]))
    assert isinstance(c, HalfSpace)
    assert np.allclose(c.normal, [1.0, 0.0])
    assert c.offset == 0.0


def test_supporting_cone_square_corner():
    c = supporting_cone(SQUARE, np.array([1.0, 1.0]))
    assert sorted(map(tuple, np.round(c.normals, 9).tolist())) == [
        (0.0, 1.0), (1.0, 0.0)]
    assert bool(c.contains(np.array([[-1.0, -2.0]]))[0])
    assert not bool(c.contains(np.array([[0.5, -2.0]]))[0])


def test_supporting_cone_interior_is_whole_space():
    c = supporting_cone(SQUARE, np.zeros(2))
    assert c.is_whole_space()


def test_normal_cone_examples():
    ray = normal_cone(Ball(1.0, 2), np.array([0.0, 1.0]))
    assert np.allclose(ray.generators, [[0.0, 1.0]])
    corner = normal_cone(SQUARE, np.array([1.0, 1.0]))
    assert len(corner.generators) == 2
    facet = normal_cone(SQUARE, np.array([1.0, 0.0]))
    assert np.allclose(facet.generators, [[1.0, 0.0]])


def test_normal_cone_is_polar_of_supporting_cone():
    for v in SQUARE.vertices:
        s = supporting_cone(SQUARE, v)
        n = normal_cone(SQUARE, v)
        dual = polar_cone(n)
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((200, 2))
        assert np.array_equal(s.contains(pts), dual.contains(pts))


# Three centres at the origin and one at (2, 0): their centroid (0.5, 0)
# is 1.5 from (2, 0), yet (1, 0) is within 1.2 of every centre.
SKEWED_CENTERS = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])


def test_ball_intersection_nonempty_with_infeasible_centroid():
    x = BallIntersection(SKEWED_CENTERS, 1.2)
    assert not x.contains([SKEWED_CENTERS.mean(axis=0)])[0]
    assert x.contains([[1.0, 0.0]])[0]
    assert not x.is_empty()
    # The lens between the balls at 0 and (2, 0) spans x1 in [0.8, 1.2].
    assert support_function(x, np.array([1.0, 0.0])) == pytest.approx(
        1.2, abs=1e-6)
    assert support_function(x, np.array([-1.0, 0.0])) == pytest.approx(
        -0.8, abs=1e-6)


def test_ball_intersection_empty_pair():
    assert BallIntersection(np.array([[0.0, 0.0], [3.0, 0.0]]),
                            1.2).is_empty()


def _circle_grid_in_balls(centers, r, angles):
    """Points of the circles' boundaries that lie in every ball, with no
    tolerance."""
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    pts = (centers[:, None] + r * ring).reshape(-1, 2)
    return pts[np.all(np.linalg.norm(pts[:, None] - centers, axis=2) <= r,
                      axis=1)]


def test_ball_intersection_support_matches_boundary_grid():
    # The set's boundary is arcs of the circles, so the grid maximum over
    # those arcs falls short of the exact support by at most r·step.
    rng = np.random.default_rng(21)
    angles = np.linspace(0.0, 2 * np.pi, 20000, endpoint=False)
    step = angles[1]
    for trial in range(40):
        r = 0.5 + 1.5 * rng.random()
        n = (1, 2, 3, 5, 8)[trial % 5]
        # Centres in a disk of radius < r: its centre lies in every ball.
        phi = 2 * np.pi * rng.random(n)
        rho = (0.3 + 0.65 * rng.random()) * r * np.sqrt(rng.random(n))
        centers = rng.standard_normal(2) + np.column_stack(
            [rho * np.cos(phi), rho * np.sin(phi)])
        x = BallIntersection(centers, r)
        grid = _circle_grid_in_balls(centers, r, angles)
        for theta in 2 * np.pi * rng.random(6):
            u = np.array([np.cos(theta), np.sin(theta)])
            exact = support_function(x, u)
            brute = float(np.max(grid @ u))
            assert brute <= exact + 1e-9
            assert exact - brute <= r * step
            assert support_function(x, 2.5 * u) == pytest.approx(
                2.5 * exact, rel=1e-12, abs=1e-12)


def test_ball_intersection_support_empty_and_d3():
    empty = BallIntersection(np.array([[0.0, 0.0], [3.0, 0.0]]), 1.2)
    assert support_function(empty, np.array([1.0, 0.0])) == -np.inf
    with pytest.raises(ValueError, match="d=2"):
        BallIntersection(np.eye(3), 1.0).support(np.ones(3))


def test_ball_intersection_emptiness_matches_grid():
    # A tight cluster plus one far centre pulls the centroid off-centre.
    # Brute force: g = min over a grid of spacing h of the distance to the
    # farthest centre is within h / sqrt(2) of the smallest feasible
    # radius, so radius g + 2h is feasible (at a grid point) and g - 2h
    # is not.
    rng = np.random.default_rng(11)
    h = 0.01
    grid = np.stack(np.meshgrid(np.arange(-3, 3 + h, h),
                                np.arange(-3, 3 + h, h)), -1).reshape(-1, 2)
    for _ in range(10):
        u = rng.standard_normal(2)
        far = (1.5 + rng.random()) * u / np.linalg.norm(u)
        centers = np.vstack([0.2 * rng.random((5, 2)) - 0.1, far])
        g = np.max(np.linalg.norm(grid[:, None] - centers, axis=2),
                   axis=1).min()
        for r, empty in ((g + 2 * h, False), (g - 2 * h, True)):
            x = BallIntersection(centers, r)
            assert not x.contains([centers.mean(axis=0)])[0]
            assert x.is_empty() == empty


def test_min_enclosing_ball_is_smallest():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 4):
        for n in (1, 2, 3, 7, 300):
            pts = rng.standard_normal((n, d))
            c, r = min_enclosing_ball(pts)
            dist = np.linalg.norm(pts - c, axis=1)
            assert np.all(dist <= r + 1e-9)
            # Optimal iff c lies in the hull of the farthest points: no
            # direction moves c closer to all of them.
            far = pts[dist >= r - 1e-9]
            assert len(far) >= min(n, 2)
            for _ in range(50):
                v = rng.standard_normal(d)
                assert np.max((far - c) @ v) >= -1e-9


def test_half_ball_membership_and_support():
    hb = HalfBall(1.0, dim=2)
    assert bool(hb.contains(np.array([[0.5, 0.5]]))[0])
    assert not bool(hb.contains(np.array([[-0.1, 0.5]]))[0])
    assert support_function(hb, np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert support_function(hb, np.array([-1.0, 0.0])) == pytest.approx(0.0)
    assert support_function(hb, np.array([-1.0, 1.0])) == pytest.approx(1.0)


def test_unbounded_support_sentinel():
    h = HalfSpace(np.array([1.0, 0.0]), 2.0)
    assert support_function(h, np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert support_function(h, np.array([0.0, 1.0])) == np.inf
    cone = PolyhedralCone(generators=np.array([[1.0, 0.0]]), dim=2)
    assert support_function(cone, np.array([1.0, 0.0])) == np.inf
    assert support_function(cone, np.array([-1.0, 1.0])) == 0.0


def test_sentinels():
    pts = np.array([[0.0, 0.0], [100.0, -3.0]])
    assert not EMPTY.contains(pts).any()
    assert WHOLE_SPACE.contains(pts).all()


def test_json_round_trip():
    for body in [SQUARE, Ball(2.0, 3), HalfBall(1.5, np.array([0.0, 1.0]), 2),
                 HalfSpace(np.array([0.0, 1.0]), 3.0),
                 PolyhedralCone(generators=np.eye(2), dim=2)]:
        doc = body_to_json(body)
        back = body_from_json(doc)
        assert type(back) is type(body)
        rng = np.random.default_rng(5)
        pts = 3.0 * rng.standard_normal((100, getattr(body, "dim", 2)))
        assert np.array_equal(body.contains(pts), back.contains(pts))


def test_from_halfspaces_matches_from_vertices():
    rng = np.random.default_rng(6)
    for d, count in ((2, 10), (3, 20), (4, 30)):
        for _ in range(20):
            pts = rng.standard_normal((count, d))
            p = Polytope.from_vertices(pts)
            q = Polytope.from_halfspaces(p.facet_normals, p.facet_offsets)
            assert p == q


def _reference_from_halfspaces(normals, offsets):
    """Vertices by d-subset enumeration in any d, or None when empty.

    Each nonsingular d-subset of rows meets in one point; those that
    satisfy every row (with 1e-7 slack) are the vertices, repeated.
    """
    scale = np.linalg.norm(normals, axis=1)
    normals, offsets = normals / scale[:, None], offsets / scale
    d = normals.shape[1]
    points = []
    for idx in itertools.combinations(range(len(normals)), d):
        a = normals[list(idx)]
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        x = np.linalg.solve(a, offsets[list(idx)])
        if np.all(normals @ x <= offsets + 1e-7):
            points.append(x)
    return np.array(points) if points else None


def _hausdorff(p, q):
    gap = np.linalg.norm(p[:, None] - q[None], axis=2)
    return max(gap.min(axis=0).max(), gap.min(axis=1).max())


def _random_system(rng, d):
    """A bounded system with redundant, duplicate and rescaled rows."""
    normals = np.vstack([rng.standard_normal((3 * d, d)), np.eye(d),
                         -np.eye(d)])
    offsets = np.concatenate([rng.uniform(0.2, 1.5, 3 * d),
                              np.full(2 * d, 1.2)])
    normals = np.vstack([normals, normals[:2], 2.5 * normals[2:4],
                         normals[4:6]])
    offsets = np.concatenate([offsets, offsets[:2], 2.5 * offsets[2:4],
                              offsets[4:6] + 10.0])
    return normals, offsets


def _box_rows(d):
    return np.vstack([np.eye(d), -np.eye(d)])


_P = np.array([0.3, -0.2, 0.5])
# Lower-dimensional systems: name -> (normals, offsets, dimension).
DEGENERATE_SYSTEMS = {
    # {p}: a cross of rows and two more through p.
    "point": (np.vstack([_box_rows(3), [[1.0, 1.0, 1.0], [-1.0, 2.0, 0.0]]]),
              np.concatenate([_P, -_P, [_P.sum(), -_P[0] + 2 * _P[1]]]), 0),
    # [0, e1], with redundant rows at both ends.
    "segment-R4": (np.vstack([_box_rows(4), [[1.0, 0, 0, 0], [-1.0, 0, 0, 0],
                                             [1.0, 1.0, 0, 0]]]),
                   np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 2.0, 1.0, 3.0]), 1),
    # A redundant row parallel to the square's plane.
    "square-R3": (np.vstack([_box_rows(3), [[0.0, 0.0, 1.0]]]),
                  np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 5.0]), 2),
    "rotated-square-R3": (_box_rows(3) @ _rotation(3).T,
                          np.array([1.0, 1.0, 0.5, 1.0, 1.0, -0.5]), 2),
    "triangle-R4": (np.vstack([_box_rows(4), [[1.0, 1.0, 0.0, 0.0]]]),
                    np.array([1.0, 1.0, 0.0, 0.0, 0, 0, 0, 0, 1.0]), 2),
    # A rotated [-1, 1]^2 x [0, w] box with w < 2 GEO_TOL: the vertices
    # come from the plane through the Chebyshev centre.
    **{f"thin-box-{w:g}": (_box_rows(3) @ _rotation(5).T,
                           np.array([1.0, 1.0, w, 1.0, 1.0, 0.0]), 2)
       for w in (0.4 * GEO_TOL, 1.9 * GEO_TOL)},
}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_from_halfspaces_matches_subset_enumeration(d):
    rng = np.random.default_rng(10 + d)
    systems = [_random_system(rng, d) for _ in range(10)]
    # A rotated box 4 GEO_TOL thin is still full-dimensional.
    thin = np.ones(2 * d)
    thin[d - 1], thin[-1] = 4 * GEO_TOL, 0.0
    rot = np.linalg.qr(rng.standard_normal((d, d)))[0]
    for normals, offsets in systems + [(_box_rows(d) @ rot.T, thin)]:
        got = Polytope.from_halfspaces(normals, offsets)
        want = _reference_from_halfspaces(normals, offsets)
        assert got.is_full_dimensional
        assert _hausdorff(got.vertices, want) <= 1e-9
        assert len(got.vertices) == len(Polytope.from_vertices(want).vertices)


@pytest.mark.parametrize("name", list(DEGENERATE_SYSTEMS))
def test_from_halfspaces_lower_dimensional(name):
    normals, offsets, dim = DEGENERATE_SYSTEMS[name]
    got = Polytope.from_halfspaces(normals, offsets)
    want = _reference_from_halfspaces(normals, offsets)
    assert not got.is_full_dimensional
    assert _hausdorff(got.vertices, want) <= GEO_TOL
    assert len(got.vertices) == len(Polytope.from_vertices(want).vertices)
    assert np.linalg.matrix_rank(got.vertices - got.vertices[0],
                                 tol=GEO_TOL) == dim
    assert np.all(normals @ got.vertices.T <= offsets[:, None] + 1e-12)


def test_from_halfspaces_infeasible_is_empty():
    for d in (2, 3, 4):
        offsets = np.full(2 * d, 1.0)
        offsets[-1] = -1.5  # x_d <= 1 and x_d >= 1.5
        normals = _box_rows(d)
        assert Polytope.from_halfspaces(normals, offsets) is EMPTY
        assert _reference_from_halfspaces(normals, offsets) is None


def test_from_halfspaces_many_rows_in_3d():
    # 200 tangent planes of the unit sphere: C(200, 3) subsets would take
    # minutes to enumerate.
    rng = np.random.default_rng(8)
    normals = rng.standard_normal((200, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    body = Polytope.from_halfspaces(normals, np.ones(200))
    assert body.is_full_dimensional
    assert np.all(normals @ body.vertices.T <= 1.0 + 1e-9)
    assert np.all(np.linalg.norm(body.vertices, axis=1) >= 1.0 - 1e-9)
    assert len(body.facet_normals) == 200


def test_one_dimensional_polytopes():
    # A segment in R^1 is full-dimensional: two facets with normals -1, +1.
    for body in (cube(1), cross_polytope(1),
                 Polytope.from_halfspaces([[1.0], [-1.0], [2.0]],
                                          [1.0, 1.0, 5.0])):
        assert body.is_full_dimensional
        assert np.array_equal(np.sort(body.vertices[:, 0]), [-1.0, 1.0])
        assert np.array_equal(body.facet_normals, [[-1.0], [1.0]])
        assert np.array_equal(body.facet_offsets, [1.0, 1.0])
        assert body.contains([[0.5], [1.0], [-1.0], [1.5]]).tolist() == [
            True, True, True, False]
        assert body_from_json(body_to_json(body)) == body
    seg = Polytope.from_vertices([[3.0], [1.0], [2.0]])
    assert np.array_equal(seg.facet_offsets, [-1.0, 3.0])
    assert Polytope.from_halfspaces(seg.facet_normals,
                                    seg.facet_offsets) == seg
    point = Polytope.from_halfspaces([[1.0], [-1.0]], [2.0, -2.0])
    assert np.array_equal(point.vertices, [[2.0]])
    assert not point.is_full_dimensional


def test_from_vertices_collinear():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    seg = Polytope.from_vertices(pts)
    assert len(seg.vertices) == 2
    assert not seg.is_full_dimensional


def _reference_dedupe_facets(normals, offsets):
    """Pairwise dedupe: keep the first of rows within 1e-9 of each other."""
    keep = []
    for i in range(len(normals)):
        dup = any(np.allclose(normals[i], normals[j], atol=1e-9)
                  and abs(offsets[i] - offsets[j]) < 1e-9 for j in keep)
        if not dup:
            keep.append(i)
    return normals[keep], offsets[keep]


@pytest.mark.parametrize("name", list(FACET_INPUTS))
def test_from_vertices_facets_match_pairwise_dedupe(name):
    pts = FACET_INPUTS[name]
    eqs = ConvexHull(pts[_extreme_points(pts)]).equations
    scale = np.linalg.norm(eqs[:, :-1], axis=1)
    normals, offsets = _reference_dedupe_facets(eqs[:, :-1] / scale[:, None],
                                                -eqs[:, -1] / scale)
    body = Polytope.from_vertices(pts)
    np.testing.assert_array_equal(body.facet_normals, normals)
    np.testing.assert_array_equal(body.facet_offsets, offsets)
    facets = {"cube3": 6, "cross3": 8, "grid5": 6, "rotated-cube": 6,
              "rotated-shifted-grid": 6, "hex-prism": 8,
              "rotated-hex-prism": 8}
    if name in facets:
        assert len(normals) == facets[name]


@pytest.mark.parametrize("body", [
    cube(3), cross_polytope(3), Polytope.from_vertices(_HEX_PRISM),
    Polytope.from_vertices(_CORNERS @ _rotation(1).T)],
    ids=["cube3", "cross3", "hex-prism", "rotated-cube"])
def test_polytope_contains_matches_row_formula(body):
    n, h = body.facet_normals, body.facet_offsets

    def reference(p):
        p = np.atleast_2d(np.asarray(p, dtype=float))
        return np.all(p @ n.T <= h + GEO_TOL, axis=1)

    rng = np.random.default_rng(0)
    random = 2.4 * rng.random((2000, 3)) - 1.2
    on_facet = []
    for idx in body.facet_vertex_sets():
        w = rng.dirichlet(np.ones(len(idx)), size=20)
        on_facet.append(w @ body.vertices[idx])
    on_facet = np.concatenate(on_facet)
    normals = np.repeat(n, 20, axis=0)
    pushed_out = on_facet + 2 * GEO_TOL * normals
    pushed_in = on_facet - 2 * GEO_TOL * normals
    for pts in (random, on_facet, pushed_out, pushed_in, np.zeros((0, 3)),
                random[0]):
        assert np.array_equal(body.contains(pts), reference(pts))
    assert body.contains(pushed_in).all()
    assert not body.contains(pushed_out).any()
    assert body.contains(np.zeros((0, 3))).shape == (0,)
    assert body.contains(random[0]).shape == (1,)


def test_polytope_hash_agrees_with_equality():
    square = cube(2)
    reordered = Polytope(square.vertices[::-1].copy(), square.facet_normals,
                         square.facet_offsets)
    rng = np.random.default_rng(4)
    body = Polytope.from_vertices(rng.standard_normal((30, 3)))
    perm = rng.permutation(len(body.vertices))
    shuffled = Polytope(body.vertices[perm] + 1e-10, body.facet_normals,
                        body.facet_offsets)
    for a, b in ((square, reordered), (body, shuffled)):
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_polytope_equality_is_vertex_matching():
    square = cube(2)
    v = square.vertices.copy()
    v[np.flatnonzero((v == [1.0, -1.0]).all(axis=1)), 1] = -1.0 - 2.3e-16
    nudged = Polytope(v, square.facet_normals, square.facet_offsets)
    permuted = Polytope(square.vertices[[2, 0, 3, 1]], square.facet_normals,
                        square.facet_offsets)
    kite = Polytope.from_vertices([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0],
                                   [-1.0, 1.5]])
    shifted = Polytope(square.vertices + 1e-7, square.facet_normals,
                       square.facet_offsets + 1e-7)
    for other in (nudged, permuted):
        assert square == other and other == square
        assert hash(square) == hash(other)
    # Same shape, every vertex near one of the square's, one corner missing.
    repeated = Polytope(square.vertices[[0, 0, 1, 2]])
    for other in (kite, shifted, repeated):
        assert square != other and other != square
    assert square != cube(3)


def test_half_ball_equality_and_hash():
    a = HalfBall(1.0, dim=3)
    assert a == HalfBall(1.0, dim=3)
    assert hash(a) == hash(HalfBall(1.0, dim=3))
    assert a == HalfBall(1.0, axis=np.array([2.0, 0.0, 0.0]), dim=3)
    assert a != HalfBall(2.0, dim=3)
    assert a != HalfBall(1.0, axis=np.array([0.0, 1.0, 0.0]), dim=3)
    assert HalfBall(1.0, dim=2) != HalfBall(1.0, dim=3)
    assert a != Ball(1.0, 3)
    assert len({a, HalfBall(1.0, dim=3), HalfBall(2.0, dim=3)}) == 2


@pytest.mark.parametrize("args", [
    (2,), (np.array([1.0, 0.0]), 3), (np.array([[1.0, 0.0]]), 2)])
def test_half_ball_rejects_axis_of_wrong_shape(args):
    # HalfBall(1.0, 2) passes 2 as the axis, not the dimension.
    with pytest.raises(ValueError, match="axis must have shape"):
        HalfBall(1.0, *args)
