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
    row_norms,
    _Body,
    _extreme_points,
)
from khull.empirical import uniform_sample
from khull.hulls import (BallHullOracle, SphericalHull,
                         hull_translations_scalings, k_hull_translations,
                         positive_hull)
from khull.zerocell import cone_preset, is_bounded

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
    assert Ball(1.0, 2).support(np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_support_square_diagonal():
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert SQUARE.support(u) == pytest.approx(np.sqrt(2))


def test_support_polytope_brute_force():
    verts = np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    p = Polytope.from_vertices(verts)
    u = np.array([1.0, 0.0])
    assert p.support(u) == pytest.approx(2.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal(2)
        assert p.support(u) == pytest.approx(np.max(verts @ u))


def test_polar_ball():
    b = Ball(4.0, 2).polar()
    assert isinstance(b, Ball)
    assert b.radius == pytest.approx(0.25)


def test_polar_square_is_cross_polytope():
    assert SQUARE.polar() == cross_polytope(2)


_POLAR_CONES = {
    "generators": PolyhedralCone(generators=np.array([[1.0, 0.2],
                                                      [-0.3, 1.0]])),
    "normals": PolyhedralCone(normals=np.array([[1.0, 1.0], [-2.0, 1.0]])),
    "whole-space": PolyhedralCone(dim=2),
    "origin": PolyhedralCone(generators=np.zeros((1, 2))),
    "positive-hull": positive_hull([[1.0, 0.5], [0.2, 1.0], [-0.4, 1.0]]).body,
}


def test_polar_involution():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pts = rng.standard_normal((8, 2)) + np.array([0.05, -0.02])
        p = Polytope.from_vertices(np.vstack([pts, -pts]))  # origin interior
        assert p.polar().polar() == p
    for r in 0.1 + 9.9 * rng.random(20):
        b = Ball(r, 3).polar().polar()
        assert b.dim == 3 and b.radius == pytest.approx(r, rel=1e-15)
    pts = 3.0 * rng.standard_normal((60, 2))
    for cone in _POLAR_CONES.values():
        assert np.array_equal(cone.polar().polar().contains(pts),
                              cone.contains(pts))
    # The whole plane and {0} are each other's polar.
    assert _POLAR_CONES["whole-space"].polar().contains(pts).sum() == 0
    assert _POLAR_CONES["origin"].polar().contains(pts).all()


def test_polar_segment_is_half_space():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = 0.1 + 9.9 * rng.random()
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        seg = Polytope.from_vertices(np.array([np.zeros(2), u / t]))
        h = seg.polar()
        assert isinstance(h, HalfSpace)
        assert np.allclose(h.normal, u, atol=1e-9)
        assert h.offset == pytest.approx(t, abs=1e-9)


def test_polar_rejects_origin_outside():
    p = Polytope.from_vertices(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        p.polar()


def test_supporting_cone_ball_boundary():
    c = Ball(1.0, 2).supporting_cone(np.array([1.0, 0.0]))
    assert isinstance(c, HalfSpace)
    assert np.allclose(c.normal, [1.0, 0.0])
    assert c.offset == 0.0


def test_supporting_cone_square_corner():
    c = SQUARE.supporting_cone(np.array([1.0, 1.0]))
    assert sorted(map(tuple, np.round(c.normals, 9).tolist())) == [
        (0.0, 1.0), (1.0, 0.0)]
    assert bool(c.contains(np.array([[-1.0, -2.0]]))[0])
    assert not bool(c.contains(np.array([[0.5, -2.0]]))[0])


def test_supporting_cone_interior_is_whole_space():
    c = SQUARE.supporting_cone(np.zeros(2))
    assert c.is_whole_space()


def test_normal_cone_examples():
    ray = Ball(1.0, 2).normal_cone(np.array([0.0, 1.0]))
    assert np.allclose(ray.generators, [[0.0, 1.0]])
    corner = SQUARE.normal_cone(np.array([1.0, 1.0]))
    assert len(corner.generators) == 2
    facet = SQUARE.normal_cone(np.array([1.0, 0.0]))
    assert np.allclose(facet.generators, [[1.0, 0.0]])


def _boundary_cases():
    """(body, boundary point): the square's vertices; a random polygon's
    vertices and edge midpoints; points of the circle of radius 2."""
    rng = np.random.default_rng(4)
    polygon = Polytope.from_vertices(rng.standard_normal((12, 2)))
    mids = [polygon.vertices[idx].mean(axis=0)
            for idx in polygon.facet_vertex_sets()]
    angles = 2 * np.pi * rng.random(8)
    circle = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    return ([(SQUARE, v) for v in SQUARE.vertices]
            + [(polygon, v) for v in [*polygon.vertices, *mids]]
            + [(Ball(2.0, 2), v) for v in circle])


def test_normal_cone_is_polar_of_supporting_cone():
    pts = np.random.default_rng(3).standard_normal((200, 2))
    for body, v in _boundary_cases():
        s = body.supporting_cone(v)
        dual = body.normal_cone(v).polar()
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
    assert x.support(np.array([1.0, 0.0])) == pytest.approx(
        1.2, abs=1e-6)
    assert x.support(np.array([-1.0, 0.0])) == pytest.approx(
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
            exact = x.support(u)
            brute = float(np.max(grid @ u))
            assert brute <= exact + 1e-9
            assert exact - brute <= r * step
            assert x.support(2.5 * u) == pytest.approx(
                2.5 * exact, rel=1e-12, abs=1e-12)


def test_ball_intersection_support_empty_and_d3():
    empty = BallIntersection(np.array([[0.0, 0.0], [3.0, 0.0]]), 1.2)
    assert empty.support(np.array([1.0, 0.0])) == -np.inf
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
    assert hb.support(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert hb.support(np.array([-1.0, 0.0])) == pytest.approx(0.0)
    assert hb.support(np.array([-1.0, 1.0])) == pytest.approx(1.0)


def test_unbounded_support_sentinel():
    h = HalfSpace(np.array([1.0, 0.0]), 2.0)
    assert h.support(np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert h.support(np.array([0.0, 1.0])) == np.inf
    cone = PolyhedralCone(generators=np.array([[1.0, 0.0]]), dim=2)
    assert cone.support(np.array([1.0, 0.0])) == np.inf
    assert cone.support(np.array([-1.0, 1.0])) == 0.0


_BODY_MEMBERS = {  # member -> the arguments of a call, or None for a property
    "dim": None, "max_norm": None, "volume": None, "surface_area": None,
    "facets": None, "is_symmetric": None, "normal_bundle_rows": None,
    "survival": (np.zeros(6),),
    "support": ([1.0, 0.0],), "excess": (np.zeros((1, 2)),),
    "feasible_translations": (np.zeros((1, 2)),),
    "uniform_draw": (np.random.default_rng(0), 3),
    "uniform_place": (3, np.zeros((3, 2))),
    "boundary_draw": (np.random.default_rng(0), 3), "boundary_place": ([],),
    "polar": (), "supporting_cone": ([1.0, 0.0],),
    "normal_cone": ([1.0, 0.0],), "to_json": (),
    "reflected_recession_rows": (cone_preset("diagonal", 2),),
}
_ALL = set(_BODY_MEMBERS)
_LACKS = [  # a body and every member that it does not answer
    (HalfSpace(np.array([1.0, 0.0]), 1.0),
     _ALL - {"dim", "support", "to_json"}),
    (PolyhedralCone(generators=np.eye(2)),
     _ALL - {"dim", "support", "polar", "to_json"}),
    (EMPTY, _ALL - {"support"}),
    (WHOLE_SPACE, _ALL - {"support"}),
    (BallIntersection(np.zeros((1, 2)), 1.0), _ALL - {"dim", "support"}),
    (BallHullOracle(BallIntersection(np.zeros((1, 2)), 1.0)),
     _ALL - {"to_json"}),
    (SphericalHull(PolyhedralCone(generators=np.eye(2))), _ALL),
    (HalfBall(1.0), {"feasible_translations", "normal_bundle_rows",
                     "survival", "facets", "polar", "supporting_cone",
                     "normal_cone", "reflected_recession_rows"}),
    (Ball(1.0), {"facets"}),
    (SQUARE, {"reflected_recession_rows"}),
]
_UNSUPPORTED = [(body, m) for body, lacks in _LACKS for m in sorted(lacks)]


def test_body_members_table_names_every_member():
    assert _ALL == {name for name in vars(_Body) if not name.startswith("_")
                    and name != "keep_screen"}


@pytest.mark.parametrize(
    "body, member", _UNSUPPORTED,
    ids=[f"{type(b).__name__}-{m}" for b, m in _UNSUPPORTED])
def test_missing_body_member_raises_unsupported_body(body, member):
    args = _BODY_MEMBERS[member]
    with pytest.raises(TypeError,
                       match=f"^unsupported body {type(body).__name__}$"):
        value = getattr(body, member)
        if args is not None:
            value(*args)


def test_sentinels():
    pts = np.array([[0.0, 0.0], [100.0, -3.0]])
    assert not EMPTY.contains(pts).any()
    assert WHOLE_SPACE.contains(pts).all()


def test_whole_space_support_is_zero_at_zero_and_inf_elsewhere():
    assert WHOLE_SPACE.support([0.0, 0.0]) == 0.0
    assert WHOLE_SPACE.support(np.array([1e-13, 0.0])) == 0.0
    assert WHOLE_SPACE.support([1.0, 0.0]) == np.inf
    assert WHOLE_SPACE.support(np.array([0.0, -2.0, 1.0])) == np.inf
    # Two points no disk of radius 0.1 holds: the hull is the whole plane.
    hull = k_hull_translations(Ball(0.1, 2), [[0.0, 0.0], [1.0, 1.0]]).body
    assert hull is WHOLE_SPACE
    assert hull.support([1.0, 0.0]) == np.inf


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


@pytest.mark.parametrize("args,name", [
    ((2, -1), "half_width"), ((2, 0), "half_width"),
    ((2, np.nan), "half_width"), ((2, np.inf), "half_width"),
    ((2, True), "half_width"), ((0,), "d"),
], ids=["negative", "zero", "nan", "inf", "bool", "d0"])
def test_cube_rejects_bad_arguments(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        cube(*args)


@pytest.mark.parametrize("d", [0, -1, 2.5, np.nan, "2"])
def test_cross_polytope_rejects_bad_dimension(d):
    with pytest.raises(ValueError, match="^d must be an integer of at least"):
        cross_polytope(d)
    assert cross_polytope(np.int64(2)) == cross_polytope(2)


@pytest.mark.parametrize("kwargs,name", [
    ({"radius": -1.0}, "radius"), ({"radius": 0}, "radius"),
    ({"radius": np.nan}, "radius"), ({"radius": np.inf}, "radius"),
    ({"radius": "1"}, "radius"), ({"radius": 1.0, "dim": 0}, "dim"),
    ({"radius": 1.0, "dim": -1}, "dim"), ({"radius": 1.0, "dim": 2.5}, "dim"),
    ({"radius": 1.0, "dim": True}, "dim"), ({"radius": True}, "radius"),
])
@pytest.mark.parametrize("kind", [Ball, HalfBall])
def test_balls_reject_bad_radius_and_dim(kind, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        kind(**kwargs)
    assert kind(np.float64(2.0), dim=np.int64(3)).dim == 3


@pytest.mark.parametrize("kind", ["ball", "half_ball", "cone"])
def test_json_dim_is_checked_by_the_body(kind):
    # A whole float reads as an int; a bool is not a dim.
    body = body_from_json({"kind": kind, "radius": 1.0, "dim": 3.0})
    assert body.dim == 3 and type(body.dim) is int
    with pytest.raises(ValueError, match="^dim must be an integer of at "
                                         "least 1, got True$"):
        body_from_json({"kind": kind, "radius": 1.0, "dim": True})


def test_segment_volume_is_its_length():
    assert cube(1).volume == 2.0
    assert cube(1, 0.3).volume == 0.6
    assert Polytope.from_vertices([[0.0], [3.0]]).volume == 3.0


# Each member that reads `Polytope.facets`, called on a body of any d.
_FACET_READERS = {
    "facets": lambda b: b.facets,
    "facet_vertex_sets": lambda b: b.facet_vertex_sets(),
    "normal_bundle_rows": lambda b: b.normal_bundle_rows,
    "survival": lambda b: b.survival(np.zeros(b.dim + b.dim ** 2)),
    "is_bounded": lambda b: is_bounded(b, cone_preset("translations", b.dim)),
    "volume": lambda b: b.volume,
    "facet_geometry": lambda b: b.facet_geometry,
    "surface_area": lambda b: b.surface_area,
    "excess": lambda b: b.excess(b.vertices),
    "feasible_translations": lambda b: b.feasible_translations(b.vertices),
    "uniform_sample": lambda b: uniform_sample(b, 5, seed=0),
    "supporting_cone": lambda b: b.supporting_cone(b.vertices[0]),
    "normal_cone": lambda b: b.normal_cone(b.vertices[0]),
    "k_hull_translations": lambda b: k_hull_translations(b, b.vertices),
    "hull_translations_scalings":
        lambda b: hull_translations_scalings(b, b.vertices),
}


@pytest.mark.parametrize("member", list(_FACET_READERS))
@pytest.mark.parametrize("vertices", [
    [[0.0, 0.0], [1.0, 1.0]],
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
], ids=["planar-segment", "triangle-in-3d"])
def test_lower_dimensional_polytope_raises_value_error(vertices, member):
    body = Polytope.from_vertices(vertices)
    assert not body.is_full_dimensional
    with pytest.raises(ValueError, match="^body must be full-dimensional$"):
        _FACET_READERS[member](body)


def test_ball_normal_bundle_rows_are_empty_of_the_flat_width():
    assert Ball(1.0, 3).normal_bundle_rows.shape == (0, 12)
    assert Ball(2.0, 1).normal_bundle_rows.shape == (0, 2)


def test_survival_is_the_max_over_the_normal_bundle():
    """A polytope's survival is the largest row product; a ball's matches a
    dense sample of its normal bundle from above and attains its value."""
    rng = np.random.default_rng(3)
    for body in (SQUARE, cube(3)):
        d = body.dim
        for p in rng.standard_normal((20, d + d * d)):
            value, g = body.survival(p)
            assert value == np.max(body.normal_bundle_rows @ p)
            assert g @ p == pytest.approx(value, abs=1e-12)
    ball = Ball(1.5, 2)
    theta = np.linspace(0.0, 2 * np.pi, 20001)
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    rows = np.column_stack(
        [u, 1.5 * (u[:, :, None] * u[:, None, :]).reshape(-1, 4)])
    for p in rng.standard_normal((20, 6)):
        value, g = ball.survival(p)
        assert value == pytest.approx(g @ p, abs=1e-12)
        assert np.max(rows @ p) <= value + 1e-12
        assert np.max(rows @ p) >= value - 1e-6


@pytest.mark.parametrize("body, scale", [
    (HalfBall(1.0), 1.0), (HalfBall(1.0, dim=3), 1.0),
    (Polytope.from_vertices([[0.0, 0.0], [1.0, 1.0]]), 1.0),
    (Ball(1e7, 2), 1.0), (SQUARE, 1e9),
], ids=["half-ball2", "half-ball3", "segment-in-plane", "ball-1e7",
        "square-huge-map"])
def test_keep_screen_is_none_without_a_screen(body, scale):
    """A half-ball and a lower-dimensional polytope have no screen; nor has
    a ball, or maps on a polytope, so large that the rounding guard fails."""
    d = body.dim
    assert body.keep_screen([(scale * np.eye(d), np.zeros(d))], 10) is None


def _facet_rows(body):
    return set(zip(map(tuple, body.facet_normals.tolist()),
                   body.facet_offsets.tolist()))


def _same_bits(a, b):
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes()
               for x, y in ((a.vertices, b.vertices),
                            (a.facet_normals, b.facet_normals),
                            (a.facet_offsets, b.facet_offsets)))


@pytest.mark.parametrize("w", [1, 0.5, 0.3, 2])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cube_is_the_hull_of_its_corners(d, w):
    # The closed-form cube against the Qhull body of its product corners.
    hull = Polytope.from_vertices(
        list(itertools.product([-w, w], repeat=d)))
    box = cube(d, w)
    assert box.vertices.tobytes() == hull.vertices.tobytes()
    assert _facet_rows(box) == _facet_rows(hull)
    assert not np.any(np.signbit(box.facet_normals[box.facet_normals == 0]))
    assert box.is_box
    # body_from_json never reads the facets, so a cube file the library
    # writes gives the CLI the body a Qhull-built cube's file gave it.
    assert body_to_json(box)["vertices"] == body_to_json(hull)["vertices"]
    read = body_from_json(body_to_json(box))
    assert _same_bits(read, body_from_json(body_to_json(hull)))
    # In d = 2 Qhull orders the facets of the counterclockwise vertex list
    # otherwise than those of the product list, for either cube's file.
    assert _same_bits(read, hull) == (d != 2)


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
