import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from khull.bodies import (GEO_TOL, Ball, Polytope, _min_sphere_quadratic,
                          cross_polytope, cube)
from khull.poisson import sample_PK, spawn_rng
from khull.zerocell import (
    CONE_PRESETS,
    ConeSpec,
    HalfSpaceSystem,
    build_zero_cell,
    cone_preset,
    contains_reflected_recession,
    flatten_pair,
    halfspaces_from_marks,
    is_bounded,
    membership,
    reflect,
    restrict_to_cone,
    rotation_point_map,
    support_extent,
    transform_rotation_of_K,
    transform_translation_of_K,
    translation_point_map,
    _CONTAINS_BLOCK,
)

SQUARE = cube(2)


def random_system(seed, body=SQUARE, window=3.0):
    return build_zero_cell(body, window, seed=seed)


# -- flattening and the constraint identity ---------------------------------------

def test_flatten_pair_is_x_then_rows_of_c():
    x, c = np.array([1.0, 2.0]), np.array([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(flatten_pair(x, c), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_halfspaces_from_marks_examples():
    n, t = halfspaces_from_marks(1.0, np.array([1.0, 0.0]),
                                 np.array([1.0, 0.0]))
    assert t == 1.0
    assert np.array_equal(n, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0])

    n, t = halfspaces_from_marks(2.0, np.array([0.0, 1.0]),
                                 np.array([1.0, 0.0]))
    assert t == 2.0
    mat = n[2:].reshape(2, 2)
    assert mat[0, 1] == 1.0 and np.sum(np.abs(mat)) == 1.0


def test_halfspaces_from_marks_rows_match_single_marks():
    # A whole sample gives, row by row, the normals of its single marks.
    for body in (SQUARE, cube(3), Ball(1.0, 3)):
        s = sample_PK(body, 20.0, seed=3)
        normals, offsets = halfspaces_from_marks(s.t, s.eta, s.u)
        d = body.dim
        assert normals.shape == (len(s), d + d * d)
        assert np.array_equal(offsets, s.t)
        for i in range(len(s)):
            n, t = halfspaces_from_marks(s.t[i], s.eta[i], s.u[i])
            assert np.array_equal(normals[i], n)
            assert np.array_equal(n, np.concatenate(
                [s.u[i], np.outer(s.u[i], s.eta[i]).ravel()]))


def test_empty_zero_cell_has_shaped_normals():
    # Rate 3 times a horizon of 1e-12 (1 + sqrt 3): no marks at this seed.
    cell = build_zero_cell(cube(3), 1e-12, seed=0)
    assert cell.n_constraints == 0
    assert cell.normals.shape == (0, 12)
    assert transform_translation_of_K(cell, np.ones(3)).normals.shape == \
        (0, 12)
    assert transform_rotation_of_K(cell, np.eye(3)).normals.shape == (0, 12)


def test_flattening_identity_1000_random_tuples():
    # <(x,C), (u, N)> with N = outer(u, eta) equals <C eta + x, u>.
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = int(rng.choice([2, 3]))
        eta = rng.standard_normal(d)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        x = rng.standard_normal(d)
        c = rng.standard_normal((d, d))
        n, _ = halfspaces_from_marks(1.0, eta, u)
        lhs = float(flatten_pair(x, c) @ n)
        rhs = float((c @ eta + x) @ u)
        assert abs(lhs - rhs) < 1e-12


# -- membership, extents, basic geometry ------------------------------------------

def test_origin_always_feasible():
    for seed in range(10):
        s = random_system(seed)
        assert membership(s, np.zeros(s.dim))
        rng = np.random.default_rng(seed)
        for _ in range(16):
            v = rng.standard_normal(s.dim)
            v /= np.linalg.norm(v)
            assert support_extent(s, v) > 0


def test_negative_multiple_of_identity_feasible():
    for body in (SQUARE, Ball(1.0, 2), cube(3)):
        s = build_zero_cell(body, 3.0, seed=3)
        d = body.dim
        for mu in (-0.5, -2.0, 0.0):
            p = flatten_pair(np.zeros(d), mu * np.eye(d))
            assert membership(s, p)


def test_convexity_of_membership():
    s = random_system(5)
    rng = np.random.default_rng(5)
    pts = []
    while len(pts) < 40:
        p = 0.5 * rng.standard_normal(s.dim)
        if membership(s, p):
            pts.append(p)
    for _ in range(1000):
        i, j = rng.integers(0, len(pts), 2)
        assert membership(s, 0.5 * (pts[i] + pts[j]))


def test_support_extent_single_constraint():
    n = np.zeros(6)
    n[0] = 1.0
    s = HalfSpaceSystem(n[None], np.array([1.5]), 2)
    assert support_extent(s, n) == pytest.approx(1.5)
    assert support_extent(s, -n) == np.inf


def test_support_extent_recession_direction():
    s = random_system(6)
    v = flatten_pair(np.zeros(2), -np.eye(2))
    v /= np.linalg.norm(v)
    assert support_extent(s, v) == np.inf


def test_empty_system_extent():
    s = HalfSpaceSystem(np.zeros((0, 6)), np.zeros(0), 2)
    assert support_extent(s, np.ones(6)) == np.inf


def _extent_reference(system, direction, tol=GEO_TOL):
    """The earlier boolean-index formula of `HalfSpaceSystem.extent`."""
    dots = system.normals @ np.asarray(direction, dtype=float)
    cutting = dots > tol
    if not np.any(cutting):
        return math.inf
    return float(np.min(system.offsets[cutting] / dots[cutting]))


def test_extent_matches_boolean_index_formula():
    rng = np.random.default_rng(21)
    cases = []
    for system in (random_system(21), random_system(22, cube(3), 2.0)):
        cases += [(system, v) for v in rng.standard_normal((300,
                                                            system.dim))]
    # m = 0; nothing cuts; a dot product of exactly 0 beside a cut.
    cases.append((HalfSpaceSystem(np.zeros((0, 6)), np.zeros(0), 2),
                  np.ones(6)))
    plane = HalfSpaceSystem(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                            np.array([1.0, 2.0, 3.0]), 1)
    cases += [(plane, np.array([1.0, 0.0])), (plane, np.array([-1.0, 1.0])),
              (HalfSpaceSystem(plane.normals[:2], plane.offsets[:2], 1),
               np.array([-1.0, 0.0]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [system.extent(v) for system, v in cases]
    want = [_extent_reference(system, v) for system, v in cases]
    assert all(type(g) is float for g in got)
    assert np.array_equal(got, want)
    assert got[-4:] == [math.inf, 1.0, 2.0, math.inf]
    assert np.isfinite(got).sum() > 300


def test_contains_batch_over_blocks_matches_per_row_verdicts():
    system = random_system(23, cube(3), 2.0)
    rng = np.random.default_rng(23)
    points = 0.4 * rng.standard_normal((4000, system.dim))
    gap = system.offsets + GEO_TOL - points @ system.normals.T
    # Far from every bound, so no BLAS kernel can flip a verdict.
    points = points[np.min(np.abs(gap), axis=1) > 1e-12]
    n = 7 * _CONTAINS_BLOCK + 13
    assert len(points) >= n
    points = points[:n]
    got = system.contains(points)
    want = [system.contains(p)[0] for p in points]
    assert got.dtype == bool and got.tolist() == want
    assert 0 < got.sum() < n


def test_window_exactness():
    # Doubling t_max beyond the computed bound never changes membership
    # inside the window.
    window = 2.0
    t_bound = window * (1.0 + np.sqrt(2))
    for rep in range(20):
        # Twice the window has twice the horizon.
        s2 = build_zero_cell(SQUARE, 2 * window, seed=100 + rep)
        assert s2.sample.t.max() > t_bound
        # Truncating the same realization at the computed bound must not
        # change any membership answer inside the window.
        keep = s2.offsets <= t_bound
        s1 = HalfSpaceSystem(s2.normals[keep], s2.offsets[keep], 2)
        rng = np.random.default_rng(rep)
        for _ in range(100):
            p = rng.standard_normal(6)
            p *= window * rng.random() / np.linalg.norm(p)
            assert membership(s1, p) == membership(s2, p)


def test_scaling_coupling():
    # Marks (t, eta, u) of K scaled to (r t, r eta, u) generate the cell of
    # rK; membership of (x, C) there equals membership of (x/r... the
    # coupled identity: (x, C) in cell(rK) iff (x/r, C) in cell(K).
    r = 2.5
    for seed in range(10):
        base = sample_PK(SQUARE, 6.0, seed=seed)
        s_k = HalfSpaceSystem(
            *halfspaces_from_marks(base.t, base.eta, base.u), 2)
        s_rk = HalfSpaceSystem(
            *halfspaces_from_marks(r * base.t, r * base.eta, base.u), 2)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            x = rng.standard_normal(2)
            c = rng.standard_normal((2, 2))
            in_rk = membership(s_rk, flatten_pair(x, c))
            in_k = membership(s_k, flatten_pair(x / r, c))
            assert in_rk == in_k


# -- cone presets and restriction ---------------------------------------------------

def test_preset_bases_orthonormal():
    for name in ("translations", "skew", "traceless", "symmetric-traceless",
                 "diagonal", "scalings", "full"):
        for d in (2, 3):
            cone = cone_preset(name, d)
            gram = cone.basis @ cone.basis.T
            assert np.allclose(gram, np.eye(cone.n_params), atol=1e-12)


def test_traceless_preset_is_traceless():
    cone = cone_preset("traceless", 3)
    for row in cone.basis:
        c = row[3:].reshape(3, 3)
        assert abs(np.trace(c)) < 1e-12


def _small(a):
    return np.max(np.abs(a), initial=0.0) < 1e-12


# name -> (basis size in d, property of each basis row's (x, C) part).
PRESET_LAWS = {
    "translations": (lambda d: d, lambda x, c: np.all(c == 0)),
    "skew": (lambda d: d * (d - 1) // 2,
             lambda x, c: _small(x) and _small(c + c.T)),
    "traceless": (lambda d: d * d - 1,
                  lambda x, c: _small(x) and _small(np.trace(c))),
    "symmetric-traceless": (
        lambda d: d * (d + 1) // 2 - 1,
        lambda x, c: _small(x) and _small(c - c.T) and _small(np.trace(c))),
    "diagonal": (lambda d: d,
                 lambda x, c: _small(x) and _small(c - np.diag(np.diag(c)))),
    "scalings": (lambda d: d + 1,
                 lambda x, c: _small(c - c[0, 0] * np.eye(len(x)))),
    "full": (lambda d: d + d * d, lambda x, c: True),
}

# sha256 of cone_preset(name, d).basis.tobytes(), float64 little-endian
# (numpy 2.4, scipy 1.17): a new way of building the presets must keep
# these bytes.
PRESET_BASIS_SHA256 = {  # name -> (d = 2, d = 3)
    "translations": (
        "72b93c49ec7e72f1fbc288d734711ed945c876e5ad163651189cbdfba5abdd3d",
        "128d6261e0408ee157952d1e82d33e0829072b9fbcfadda6e83f22e0208451ce"),
    "skew": (
        "2a53b7d492a548e9d02afe607a8eae87092e274d42800710a8dab22736cdd22a",
        "fbd712ca60f5785b8c585a5bb4dc3e792d674ed257f75d0dd95cdbbff70e6cd8"),
    "traceless": (
        "9228369d2ad839ffb3769604b15b7f2d3b8a8aafd602a62e7e7bab6416c92505",
        "c572cb21e841497763069856cb9e908e663b863e33046c77bb7b8ef06466504d"),
    "symmetric-traceless": (
        "b88ee842546892e99a6f5ce94d6a535765c7d1682fba97f9560f872b9af8b0fb",
        "ba8f12dcfb284ac157400bd4c08e10d77d4a7a6395fb68dbc4d060d2084bd659"),
    "diagonal": (
        "f53240c5f4c3b0785aa59755480d4110f901251ee381d581d603b40491c36d93",
        "72b4310a4401b197d461abd0a5a0dc0c83ee9c0b8beafa6c533bf936686af5e9"),
    "scalings": (
        "092f93c7e68b9b7ad88caa4e89828bf0e36831b154f26dd4602d1f1d5b13da20",
        "4d1df31424ae5fabefb511a67aebc31cf30bdfa2d445bcb29d2dec0c27e74809"),
    "full": (
        "fe7f03d336210c0ede5316a178d818a67ebf348cdf2bffac790ba49244eabdf3",
        "4f254dd664be1db80fb0796990b61db0846137d8039edd2b891da1f626141e0d"),
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", CONE_PRESETS)
def test_preset_basis_size_property_and_bytes(name, d):
    size, law = PRESET_LAWS[name]
    basis = cone_preset(name, d).basis
    assert basis.shape == (size(d), d + d * d)
    for row in basis:
        assert law(row[:d], row[d:].reshape(d, d))
    digest = hashlib.sha256(basis.tobytes()).hexdigest()
    assert digest == PRESET_BASIS_SHA256[name][d - 2]


def test_presets_in_one_dimension():
    """A line has no skew or traceless maps: those bases are (0, 2)."""
    sizes = [cone_preset(name, 1).basis.shape for name in CONE_PRESETS]
    assert sizes == [(k, 2) for k in (1, 0, 0, 0, 1, 2, 2)]
    cell = build_zero_cell(Ball(1.0, 1), 3.0, seed=0)
    assert cell.n_constraints > 0
    for name in CONE_PRESETS:
        cone = cone_preset(name, 1)
        restricted = restrict_to_cone(cell, cone)
        assert restricted.normals.shape[1] == cone.n_params
        assert restricted.contains(np.zeros((1, cone.n_params))).all()
    assert is_bounded(cube(1), cone_preset("skew", 1)) == (True, None)


def test_preset_order_and_unknown_name():
    assert CONE_PRESETS == ("translations", "skew", "traceless",
                            "symmetric-traceless", "diagonal", "scalings",
                            "full")
    with pytest.raises(ValueError, match="unknown cone preset 'rotations'"):
        cone_preset("rotations", 2)


def test_skew_restriction_is_signed_area():
    # Each constraint reduces to c * (u1 eta2 - u2 eta1) <= t in the
    # physical angle coordinate; the basis element is J/sqrt(2).
    s = random_system(7)
    cone = cone_preset("skew", 2)
    r = restrict_to_cone(s, cone)
    eta, u = s.sample.eta, s.sample.u
    signed_area = u[:, 0] * eta[:, 1] - u[:, 1] * eta[:, 0]
    keep = np.abs(signed_area) > 1e-12
    assert np.allclose(np.sort(r.normals[:, 0]),
                       np.sort(signed_area[keep] / np.sqrt(2)), atol=1e-12)


def test_translations_restriction():
    s = random_system(8)
    cone = cone_preset("translations", 2)
    r = restrict_to_cone(s, cone)
    assert np.allclose(r.normals, s.sample.u)
    assert np.allclose(r.offsets, s.sample.t)


def test_scalings_restriction_equivalence():
    # (x, r) feasible in the scalings restriction iff rK + x lies in the
    # translation-only cell from the same marks.  Exact per realization.
    for rep in range(20):
        s = build_zero_cell(SQUARE, 4.0, seed=200 + rep)
        t, u = s.sample.t, s.sample.u
        cone = cone_preset("scalings", 2)
        restricted = restrict_to_cone(s, cone)
        rng = np.random.default_rng(rep)
        for _ in range(100):
            x = 2.0 * rng.standard_normal(2)
            r = rng.random() * 2.0
            # Basis: (e1, e2, I/sqrt(2)); coordinates (x1, x2, r*sqrt(2)).
            coords = np.array([x[0], x[1], r * np.sqrt(2)])
            feas = bool(restricted.contains(coords[None])[0])
            # rK + x inside the cell Z_K = {y: <y,u_i> <= t_i}:
            # r*h(K,u_i) + <x,u_i> <= t_i for all marks.
            hk = np.abs(u).sum(axis=1)  # support of the unit square
            direct = bool(np.all(r * hk + u @ x <= t + 1e-9))
            assert feas == direct


def test_restriction_agrees_with_lifting():
    # A restricted system is the cell in cone coordinates: membership of
    # P equals membership of its lift P @ basis, and so do the extents;
    # the empty system restricts to one that contains everything.
    for d in (2, 3):
        cell = build_zero_cell(cube(d), 3.0, seed=40 + d)
        rng = np.random.default_rng(d)
        for name in CONE_PRESETS:
            cone = cone_preset(name, d)
            r = restrict_to_cone(cell, cone)
            k = cone.n_params
            dirs = rng.standard_normal((300, k))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            pts = dirs * 10.0 ** rng.uniform(-2, 1, (300, 1))
            inside = r.contains(pts)
            assert np.array_equal(inside, cell.contains(pts @ cone.basis))
            assert 0 < inside.sum() < len(pts)
            for v in dirs:
                got = r.extent(v)
                want = support_extent(cell, v @ cone.basis)
                assert np.isinf(got) == np.isinf(want)
                if np.isfinite(got):
                    assert got == pytest.approx(want, rel=1e-12, abs=0)
    empty = HalfSpaceSystem(np.zeros((0, 6)), np.zeros(0), 2)
    for name in CONE_PRESETS:
        cone = cone_preset(name, 2)
        r = restrict_to_cone(empty, cone)
        assert r.normals.shape == (0, cone.n_params)
        pts = np.random.default_rng(0).standard_normal((20, cone.n_params))
        assert np.all(r.contains(1e6 * pts))
        assert r.extent(pts[0]) == np.inf


# -- recession cones and boundedness --------------------------------------------------

def test_recession_contains_minus_identity():
    for body in (SQUARE, Ball(1.0, 2), Ball(2.0, 3), cube(3)):
        d = body.dim
        assert contains_reflected_recession(
            body, flatten_pair(np.zeros(d), -np.eye(d)))


def test_recession_skew_in_both_for_ball():
    ball = Ball(1.0, 2)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = flatten_pair(np.zeros(2), j)
    assert contains_reflected_recession(ball, -p)
    assert contains_reflected_recession(ball, p)


def test_reflected_recession_diagonal_is_nonpositive_orthant():
    for d in (2, 3):
        cone = cone_preset("diagonal", d)
        rows = Ball(1.0, d).reflected_recession_rows(cone)
        # H-rep rows r with r @ mu <= 0: the nonpositive orthant has rows
        # equal to the coordinate vectors.
        assert rows.shape == (d, d)
        assert np.allclose(rows[np.lexsort(rows.T)], np.eye(d), atol=1e-9)
        ball = Ball(1.0, d)
        rng = np.random.default_rng(d)
        for _ in range(200):
            mu = rng.standard_normal(d)
            v = cone.embed(mu)
            want = bool(np.all(rows @ mu <= 1e-12))
            got = contains_reflected_recession(ball, v)
            assert got == want


def test_is_bounded_catalogue():
    ball = Ball(1.0, 2)
    assert is_bounded(ball, cone_preset("full", 2))[0] is False
    assert is_bounded(ball, cone_preset("symmetric-traceless", 2))[0] is True
    assert is_bounded(ball, cone_preset("translations", 2))[0] is True
    assert is_bounded(ball, cone_preset("diagonal", 2))[0] is False
    assert is_bounded(ball, cone_preset("skew", 2))[0] is False
    assert is_bounded(Ball(1.0, 3),
                      cone_preset("symmetric-traceless", 3))[0] is True


def test_is_bounded_witness_verifies():
    ball = Ball(1.0, 2)
    bounded, witness = is_bounded(ball, cone_preset("full", 2))
    assert not bounded
    assert contains_reflected_recession(ball, witness)


def test_is_bounded_square_translations():
    assert is_bounded(SQUARE, cone_preset("translations", 2))[0] is True


def _hexagon():
    phi = np.pi / 3 * np.arange(6)
    return Polytope.from_vertices(np.column_stack([np.cos(phi), np.sin(phi)]))


BOUNDEDNESS_BODIES = {
    "ball1-d2": Ball(1.0, 2), "ball2.5-d2": Ball(2.5, 2),
    "ball1-d3": Ball(1.0, 3), "ball0.4-d3": Ball(0.4, 3),
    "cube2": cube(2), "cube3": cube(3), "cross3": cross_polytope(3),
    "hexagon": _hexagon(),
}
# s(0, C) <= 0 iff exp(tC) K lies in K for all t >= 0.  A ball has s = |x|
# on translations and s = r lambda_max(C) > 0 on nonzero symmetric
# traceless C; every other preset holds a skew C (rotations keep the
# ball), -E_11 or -I.  For a polytope a traceless C keeps the volume, so
# exp(tC) K within K means exp(tC) K = K, which its finite symmetry group
# allows only for C = 0; these bodies are symmetric under x_1 -> -x_1, so
# -E_11 shrinks them into themselves.
BALL_BOUNDED = {"translations", "symmetric-traceless"}
POLYTOPE_BOUNDED = {"translations", "skew", "traceless",
                    "symmetric-traceless"}


def _assert_witness(body, cone, witness):
    assert np.linalg.norm(witness) >= 1.0 - 1e-12  # c_i = +-1 on a face
    assert np.allclose(cone.basis.T @ (cone.basis @ witness), witness,
                       atol=1e-12)
    assert contains_reflected_recession(body, witness)


@pytest.mark.parametrize("name", list(BOUNDEDNESS_BODIES))
def test_is_bounded_matches_hand_verdicts(name):
    body = BOUNDEDNESS_BODIES[name]
    want = BALL_BOUNDED if isinstance(body, Ball) else POLYTOPE_BOUNDED
    for preset in CONE_PRESETS:
        cone = cone_preset(preset, body.dim)
        bounded, witness = is_bounded(body, cone)
        assert bounded is (preset in want), preset
        if bounded:
            assert witness is None
        else:
            _assert_witness(body, cone, witness)


def test_is_bounded_one_dimensional_cones():
    assert is_bounded(Ball(1.0, 2), ConeSpec("x1", np.eye(6)[:1], 2)) == \
        (True, None)
    # On a line the verdict is fixed by the two face centres +-b.
    rng = np.random.default_rng(3)
    for body in BOUNDEDNESS_BODIES.values():
        d = body.dim
        lines = np.vstack([np.eye(d + d * d),
                           rng.standard_normal((10, d + d * d))])
        for b in lines / np.linalg.norm(lines, axis=1)[:, None]:
            cone = ConeSpec("line", b[None], d)
            bounded, witness = is_bounded(body, cone)
            assert bounded is (body.survival(b)[0] > GEO_TOL
                               and body.survival(-b)[0] > GEO_TOL)
            if not bounded:
                _assert_witness(body, cone, witness)


def _rotated_span(rng, rows):
    """Orthonormal basis of span(rows), mixed by a random rotation."""
    q, _ = np.linalg.qr(np.asarray(rows).T)
    mix, _ = np.linalg.qr(rng.standard_normal((len(rows), len(rows))))
    return mix @ q.T


def test_is_bounded_cones_through_touching_direction():
    # v0 = (x, -I) with x on the boundary of K has s(v0) =
    # max <x - y, u> = 0: the cone touches -T_K along v0.
    rng = np.random.default_rng(4)
    for body in BOUNDEDNESS_BODIES.values():
        d = body.dim
        for k in (1, 2, 3, 4):
            x = rng.standard_normal(d)
            if isinstance(body, Ball):
                x *= body.radius / np.linalg.norm(x)
            else:
                x /= np.max(body.facet_normals @ x / body.facet_offsets)
            v0 = np.concatenate([x, -np.eye(d).ravel()])
            assert abs(body.survival(v0)[0]) <= 1e-12
            rows = np.vstack([v0, rng.standard_normal((k - 1, len(v0)))])
            cone = ConeSpec("touching", _rotated_span(rng, rows), d)
            bounded, witness = is_bounded(body, cone)
            assert not bounded
            _assert_witness(body, cone, witness)


def test_is_bounded_agrees_with_exact_ball_cones():
    # On commuting symmetric directions `Ball.reflected_recession_rows` is
    # an exact H-rep rows @ c <= 0, so the cone is bounded iff no face
    # c_i = +-1 of the box |c| <= 1 holds a feasible c.
    rng = np.random.default_rng(5)
    verdicts = []
    for d in (2, 3):
        diagonal = cone_preset("diagonal", d).basis
        for k in range(1, d + 1):
            for _ in range(8):
                cone = ConeSpec("sub-diagonal",
                                _rotated_span(rng, rng.standard_normal(
                                    (k, d))) @ diagonal, d)
                rows = Ball(1.0, d).reflected_recession_rows(cone)
                want = True
                for i in range(k):
                    for sign in (1.0, -1.0):
                        bounds = [(-1.0, 1.0)] * k
                        bounds[i] = (sign, sign)
                        if linprog(np.zeros(k), A_ub=rows,
                                   b_ub=np.zeros(len(rows)), bounds=bounds,
                                   method="highs").success:
                            want = False
                bounded, witness = is_bounded(Ball(1.0, d), cone)
                assert bounded is want
                if not bounded:
                    _assert_witness(Ball(1.0, d), cone, witness)
                verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


def test_recession_membership_matches_direct_formulas():
    rng = np.random.default_rng(6)
    for body in BOUNDEDNESS_BODIES.values():
        d = body.dim
        if isinstance(body, Polytope):
            # <C y + x, u> >= 0 for every facet normal u and vertex y on it.
            rows = np.array([
                np.concatenate([u, np.outer(u, y).ravel()])
                for idx, u in zip(body.facet_vertex_sets(),
                                  body.facet_normals)
                for y in body.vertices[idx]])

            def direct(p):
                return bool(np.all(-rows @ p <= GEO_TOL))
        else:
            def direct(p):
                # min over unit u of r u^T sym(C) u + <x, u> >= 0.
                x, c = p[:d], p[d:].reshape(d, d)
                val = _min_sphere_quadratic(0.5 * (c + c.T) * body.radius,
                                            x)[0]
                return val >= -GEO_TOL

        hits = 0
        for _ in range(60):
            c = 0.5 * rng.standard_normal((d, d)) + rng.choice([-1, 1]) * \
                np.eye(d)
            p = np.concatenate([0.3 * rng.standard_normal(d), c.ravel()])
            inside = direct(p)
            hits += inside
            assert contains_reflected_recession(body, -p) is inside
            assert contains_reflected_recession(body, p) is direct(-p)
        assert 0 < hits < 60


def test_min_sphere_quadratic_minimiser():
    rng = np.random.default_rng(7)
    cases = []
    for d in (1, 2, 3, 4):
        for _ in range(20):
            m = rng.standard_normal((d, d))
            cases.append((m + m.T, rng.standard_normal(d)))
    # Hard cases: b has no component along the bottom eigenspace.
    for w, beta in (((1.0, 2.0, 3.0), (0.0, 0.5, 0.0)),
                    ((1.0, 1.0, 3.0), (0.0, 0.0, 1.0)),
                    ((1.0, 2.0, 3.0), (0.0, 0.0, 0.0)),
                    ((2.0, 2.0, 2.0), (0.0, 0.0, 0.0)),
                    ((1.0, 2.0, 3.0), (0.0, 5.0, 0.0))):
        for q in (np.eye(3), np.linalg.qr(rng.standard_normal((3, 3)))[0]):
            cases.append((q @ np.diag(w) @ q.T, q @ np.array(beta)))
    for a, b in cases:
        val, y = _min_sphere_quadratic(a, b)
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
        assert abs(y @ a @ y + b @ y - val) <= 1e-12
        # Global optimality: 2 (A - lam I) y = -b with A - lam I >= 0.
        lam = y @ a @ y + 0.5 * b @ y
        assert np.linalg.norm(2 * (a - lam * np.eye(len(b))) @ y + b) <= 1e-7
        assert lam <= np.linalg.eigvalsh(a)[0] + 1e-9
        units = rng.standard_normal((500, len(b)))
        units /= np.linalg.norm(units, axis=1)[:, None]
        assert val <= np.min(np.einsum("ij,jk,ik->i", units, a, units)
                             + units @ b) + 1e-12


@pytest.mark.parametrize("window", [0.0, -1.0, np.nan, np.inf])
def test_build_zero_cell_rejects_bad_window(window):
    with pytest.raises(ValueError,
                       match="^window_radius must be finite and positive"):
        build_zero_cell(SQUARE, window, seed=0)


def test_derived_systems_carry_no_sample():
    cell = build_zero_cell(Ball(1, 2), 3.0, seed=1)
    assert len(cell.sample) == cell.n_constraints > 0
    derived = [restrict_to_cone(cell, cone_preset("skew", 2)),
               reflect(cell), transform_translation_of_K(cell, np.ones(2)),
               transform_rotation_of_K(cell, np.eye(2))]
    # A ball's rows vanish on the skew cone: its marks would name none.
    assert derived[0].n_constraints == 0
    assert all(system.sample is None for system in derived)


# -- reflection and equivariance --------------------------------------------------------

def test_reflect_properties():
    s = random_system(9)
    r = reflect(s)
    assert membership(r, np.zeros(s.dim))
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = rng.standard_normal(s.dim)
        assert membership(r, p) == membership(s, -p)
    rr = reflect(r)
    assert np.array_equal(rr.normals, s.normals)


def test_translation_equivariance():
    s = random_system(10)
    v = np.array([0.3, -0.2])
    t = transform_translation_of_K(s, v)
    assert t.n_constraints == s.n_constraints
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = rng.standard_normal(s.dim)
        # p in cell(K+v) iff the preimage under (x,C)->(x-Cv,C) is in
        # cell(K); the preimage of (x,C) is (x+Cv,C).
        d = s.body_dim
        x, c = p[:d], p[d:].reshape(d, d)
        pre = np.concatenate([x + c @ v, c.reshape(-1)])
        assert membership(t, p) == membership(s, pre)
    t0 = transform_translation_of_K(s, np.zeros(2))
    assert np.allclose(t0.normals, s.normals)


def test_translation_map_consistency():
    s = random_system(11)
    v = np.array([-0.4, 0.1])
    t = transform_translation_of_K(s, v)
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.standard_normal(s.dim)
        image = translation_point_map(p, v, 2)
        assert membership(t, image) == membership(s, p)


def test_rotation_equivariance():
    s = random_system(12)
    ang = 0.7
    a = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    t = transform_rotation_of_K(s, a)
    # The map O_A is orthogonal in the product inner product.
    for n in s.normals:
        assert np.linalg.norm(rotation_point_map(n, a, 2)) == pytest.approx(
            np.linalg.norm(n))
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = rng.standard_normal(s.dim)
        assert membership(t, rotation_point_map(p, a, 2)) == membership(s, p)
    # A then A^T is the identity.
    back = transform_rotation_of_K(t, a.T)
    assert np.allclose(back.normals, s.normals, atol=1e-12)


def test_rotation_identity():
    s = random_system(13)
    t = transform_rotation_of_K(s, np.eye(2))
    assert np.allclose(t.normals, s.normals)


def test_ball_constraint_normals_have_eta_parallel_u():
    s = build_zero_cell(Ball(1.0, 2), 2.0, seed=15)
    for n in s.normals:
        u = n[:2]
        mat = n[2:].reshape(2, 2)
        assert np.allclose(mat, np.outer(u, u), atol=1e-12)
