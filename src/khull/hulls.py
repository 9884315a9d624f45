"""Generalized hulls of finite point sets.

A hull family pairs a set of translations with a set of linear maps; the
hull of A is the intersection of all images of the reference body under
family members that contain A.  Closed forms are implemented per family.

`generic_hull_membership` decides a single query for any family, as a
cross-check of the closed forms.  Every member containing A is convex, so
one LP certifies "inside" for z in conv(A), or in conv(A u -A) when the
family has no translations and the body is centrally symmetric (exact for
`full-affine` and `linear-ball`).  For translations alone, a sample that no
translate of the body holds has the whole space as its hull, so every
query is "inside".  Otherwise a Nelder-Mead search stops at
the first member that separates z from A, verified directly ("outside");
when it finds none the answer is "unknown".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .bodies import (
    EMPTY,
    GEO_TOL,
    WHOLE_SPACE,
    Ball,
    HalfBall,
    Polytope,
    PolyhedralCone,
    _Body,
    _extreme_points,
    _in_convex_hull,
)
from .matexp import matrix_exponential, skew_dim, skew_matrix

__all__ = [
    "BallHullOracle",
    "HullFamily",
    "HullResult",
    "FAMILY_PRESETS",
    "generic_hull_membership",
    "hull_full_affine",
    "hull_linear_ball",
    "hull_translations_scalings",
    "k_hull_translations",
    "positive_hull",
    "spherical_hull_halfball",
]


# Linear part -> (parameter count in d, decode its parameters p to g).
_LINEAR_PARTS = {
    "identity": (lambda d: 0, lambda p, d: np.eye(d)),
    "scalings": (lambda d: 1, lambda p, d: math.exp(p[0]) * np.eye(d)),
    "scalings_rotations": (
        lambda d: 1 + skew_dim(d),
        lambda p, d: math.exp(p[0]) * matrix_exponential(
            skew_matrix(p[1:], d))),
    "general_linear": (lambda d: d * d,
                       lambda p, d: matrix_exponential(p.reshape(d, d))),
}


@dataclass(frozen=True)
class HullFamily:
    """Transform family: translation set x linear-map set."""

    name: str
    translations: str  # "full" or "zero"
    linear: str  # a key of _LINEAR_PARTS

    def __post_init__(self):
        if self.translations not in ("full", "zero"):
            raise ValueError("translations must be 'full' or 'zero', got "
                             f"{self.translations!r}")
        if self.linear not in _LINEAR_PARTS:
            raise ValueError(f"linear must be one of {tuple(_LINEAR_PARTS)}, "
                             f"got {self.linear!r}")

    def param_count(self, d):
        k = d if self.translations == "full" else 0
        return k + _LINEAR_PARTS[self.linear][0](d)

    def transform(self, params, d):
        """Decode a parameter vector into (translation x, linear map g)."""
        params = np.asarray(params, dtype=float)
        k = d if self.translations == "full" else 0
        x = params[:d] if k else np.zeros(d)
        return x, _LINEAR_PARTS[self.linear][1](params[k:], d)


FAMILY_PRESETS = {
    "k-hull": HullFamily("k-hull", "full", "identity"),
    "translations-scalings": HullFamily("translations-scalings", "full",
                                        "scalings"),
    "full-affine": HullFamily("full-affine", "full", "scalings_rotations"),
    "linear-ball": HullFamily("linear-ball", "zero", "general_linear"),
}


@dataclass(frozen=True)
class HullResult:
    """Hull output: a body (or oracle)."""

    body: object

    def contains(self, points):
        return self.body.contains(points)


class BallHullOracle(_Body):
    """Intersection of all radius-r balls whose centers cover the sample.

    The oracle is built on the feasible centres F = ∩_{v∈ext conv A} B(v, r)
    that `Ball.feasible_translations` returns when they are non-empty; its
    `centers` are the h extreme points of A.  A point y is in the hull iff
    max_{x∈F} |x - y| <= r.  In the plane that maximum is attained at a
    corner of F (`center_set.corners`, found once in O(h²)) or at the far
    point of one circle from y (feasibility tested for all queries at
    once), so q queries cost O(q·h²) and the answer is exact.
    """

    def __init__(self, center_set):
        if center_set.dim != 2:
            raise ValueError("ball-hull membership implemented for d=2")
        self.center_set = center_set
        self.centers = center_set.centers
        self.radius = float(center_set.radius)

    def max_center_distances(self, points):
        """max over feasible centers x of |x - y|, one value per row y
        (exact in the plane)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        c, r = self.centers, self.radius
        v = c[None] - points[:, None]
        nv = np.linalg.norm(v, axis=2, keepdims=True)
        on_center = nv <= 1e-14
        direction = np.where(on_center, [1.0, 0.0],
                             v / np.where(on_center, 1.0, nv))
        far = c + r * direction
        feasible = self.center_set.contains(far.reshape(-1, 2))
        dist = np.where(feasible.reshape(far.shape[:2]),
                        np.linalg.norm(far - points[:, None], axis=2),
                        -np.inf)
        to_corners = np.linalg.norm(
            self.center_set.corners[None] - points[:, None], axis=2)
        best = np.maximum(np.max(dist, axis=1),
                          np.max(to_corners, axis=1, initial=-np.inf))
        if np.any(best == -np.inf):
            raise ValueError("empty feasible center set")
        return best

    def contains(self, points):
        return self.max_center_distances(points) <= self.radius + GEO_TOL

    def to_json(self):
        """The hull is fixed by the radius and the sample's extreme points."""
        return {"kind": "ball_hull", "radius": self.radius,
                "centers": self.centers.tolist()}


def _rows(points, d, name="sample"):
    """The points as the rows of a float array of d columns."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != d:
        raise ValueError(f"{name} must have {d} columns, got "
                         f"{points.shape[1]}")
    return points


# -- translation hulls --------------------------------------------------------

def k_hull_translations(body, sample):
    """Intersection of all translates of the body containing the sample."""
    sample = _rows(sample, body.dim)
    feasible = body.feasible_translations(sample)
    if feasible is EMPTY:
        return HullResult(WHOLE_SPACE)
    if isinstance(body, Ball):
        return HullResult(BallHullOracle(feasible))
    normals, offsets = body.facets
    mins = np.min(feasible.vertices @ normals.T, axis=0)
    return HullResult(Polytope.from_halfspaces(normals, offsets + mins))


def hull_translations_scalings(body, sample):
    """Hull under all translations and positive scalings of the body.

    A ball gives conv(A).  A polytope K with facets <u_i, x> <= h_i gives
    the smallest polytope with K's facet normals that contains A,
    P = {x : <u_i, x> <= m_i for all i} with m_i = max_{a in A} <u_i, a>.

    Proof: a member y + λK containing A has offsets λh_i + <u_i, y> >= m_i,
    so it contains P.  Fix i, let a in A attain m_i and p lie in the
    relative interior of facet i.  Near p, K is its facet half-space, so
    (a - λp) + λK = a + λ(K - p) contains A for large λ, and its i-th
    half-space is {<u_i, x> <= m_i}: the hull lies in each, so in P.
    """
    sample = _rows(sample, body.dim)
    if isinstance(body, Ball):
        return HullResult(Polytope.from_vertices(sample))
    normals, _ = body.facets
    if not np.all(body.contains(sample)):
        raise ValueError("sample must lie inside the body")
    return HullResult(Polytope.from_halfspaces(
        normals, np.max(sample @ normals.T, axis=0)))


def hull_full_affine(sample):
    """Hull under all rigid motions with scalings: the classical hull."""
    return HullResult(Polytope.from_vertices(sample))


def hull_linear_ball(sample):
    """Hull by all linear images of the unit ball: conv(A u -A)."""
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    return HullResult(Polytope.from_vertices(np.vstack([sample, -sample])))


def positive_hull(sample):
    """Closed positive (conical) hull of the sample."""
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    d = sample.shape[1]
    norms = np.linalg.norm(sample, axis=1)
    dirs = sample[norms > GEO_TOL] / norms[norms > GEO_TOL, None]
    if len(dirs) == 0:
        return HullResult(PolyhedralCone(generators=np.zeros((1, d)), dim=d))
    if d == 2:
        return HullResult(_positive_hull_2d(dirs))
    return HullResult(_positive_hull_nd(dirs))


def _positive_hull_2d(dirs):
    ang = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]))
    gaps = np.diff(np.append(ang, ang[0] + 2 * math.pi))
    i = int(np.argmax(gaps))
    gap = gaps[i]
    if gap < math.pi - 1e-12:
        return PolyhedralCone(dim=2)  # directions positively span the plane
    lo = ang[(i + 1) % len(ang)]
    hi = ang[i]
    u = np.array([math.cos(lo), math.sin(lo)])
    w = np.array([math.cos(hi), math.sin(hi)])
    if abs(gap - math.pi) <= 1e-12:
        n = np.array([u[1], -u[0]])
        # A second gap of pi: the directions span a line, and so does pos.
        line = np.count_nonzero(np.abs(gaps - math.pi) <= 1e-12) == 2
        return PolyhedralCone(generators=np.vstack([u, w]), dim=2,
                              normals=np.vstack([n, -n]) if line else n[None])
    if np.allclose(u, w):
        n1 = np.array([u[1], -u[0]])
        # The ray through u: the line through it, less its -u half.
        return PolyhedralCone(generators=u[None],
                              normals=np.vstack([n1, -n1, -u]), dim=2)
    n1 = np.array([u[1], -u[0]])
    n2 = np.array([-w[1], w[0]])
    return PolyhedralCone(generators=np.vstack([u, w]),
                          normals=np.vstack([n1, n2]), dim=2)


def _positive_hull_nd(dirs):
    """pos(dirs) for unit rows dirs, d >= 3.

    If one LP finds c with dirs @ c >= 1, the extreme rays are the rows
    whose points d / <d, c> are extreme in the plane <x, c> = 1 (Qhull);
    they are returned in input order, the first of repeated directions.
    """
    n, d = dirs.shape
    res = scipy.optimize.linprog(np.zeros(d), A_ub=-dirs, b_ub=-np.ones(n),
                                 bounds=[(None, None)] * d, method="highs")
    if not res.success:
        # Not pointed; detect the full space, otherwise keep all generators.
        interior = scipy.optimize.linprog(
            np.zeros(n), A_eq=np.vstack([dirs.T, np.ones(n)]),
            b_eq=np.append(np.zeros(d), 1.0),
            bounds=[(1e-9, None)] * n, method="highs")
        if interior.success:
            return PolyhedralCone(dim=d)
        return PolyhedralCone(generators=dirs, dim=d)
    rays = np.sort(_extreme_points(dirs / (dirs @ res.x)[:, None]))
    return PolyhedralCone(generators=dirs[rays], dim=d)


@dataclass(frozen=True)
class SphericalHull(_Body):
    """pos(A) clipped to the unit ball, with the induced spherical hull.
    It answers no `_Body` member: `khull hull` writes its class name."""

    cone: PolyhedralCone

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.linalg.norm(points, axis=1) <= 1.0 + GEO_TOL
        return inside & self.cone.contains(points)

    def arc(self):
        """Angular interval of the spherical part (plane only)."""
        if self.cone.dim != 2 or self.cone.generators is None:
            raise ValueError("arc available for pointed plane cones only")
        ang = np.arctan2(self.cone.generators[:, 1],
                         self.cone.generators[:, 0])
        return float(np.min(ang)), float(np.max(ang))


def spherical_hull_halfball(sample):
    """Hull of points in the unit upper half-ball under rotations of it."""
    sample = np.atleast_2d(np.asarray(sample, dtype=float))
    if not np.all(HalfBall(1.0, dim=sample.shape[1]).contains(sample)):
        raise ValueError("sample must lie in the upper half-ball")
    return HullResult(SphericalHull(positive_hull(sample).body))


# -- generic membership oracle ------------------------------------------------

class _Witness(Exception):
    """Raised by the search objective at the first separating parameters."""

    def __init__(self, params):
        super().__init__()
        self.params = params


def generic_hull_membership(body, family, sample, query, budget=64, seed=0):
    """Decide whether the query lies in the (body, family)-hull of the sample.

    Returns one of three answers:
      ("inside", None) when one feasibility LP puts the query in conv(A),
        or in conv(A u -A) for a family without translations and a
        centrally symmetric body.  Every member containing A is convex
        (and then symmetric), so it contains that set: the answer is exact.
        For translations alone (`k-hull`) it is also the answer when no
        translate of a polytope or ball holds the sample: no member
        contains A, so the hull is the whole space.
      ("outside", params) when a member image separates the query: the
        whole sample is inside it (within GEO_TOL) and the query more than
        GEO_TOL outside, checked directly on the decoded map.  Each of the
        `budget` Nelder-Mead starts stops at the first parameters whose
        objective is <= 0; the lowest start index wins.
      ("unknown", None) when neither is found.  Only families whose hull
        can exceed conv(A) (`k-hull`, `translations-scalings`) can get it.
    Deterministic for a fixed seed.
    """
    d = body.dim
    sample = _rows(sample, d)
    query = _rows(query, d, "query")[0]
    points = sample
    if family.translations == "zero" and body.is_symmetric:
        points = np.vstack([sample, -sample])
    if _in_convex_hull(query, points):
        return "inside", None
    if (family.translations == "full" and family.linear == "identity"
            and isinstance(body, (Polytope, Ball))
            and body.feasible_translations(sample) is EMPTY):
        return "inside", None
    nparams = family.param_count(d)
    rng = np.random.default_rng(seed)
    margin = 1e-6

    def violations(params):
        """(sample excess, query excess) w.r.t. the member, or None."""
        x, g = family.transform(params, d)
        try:
            ginv = np.linalg.inv(g)
        except np.linalg.LinAlgError:
            return None
        return (body.excess(sample @ ginv.T - x),
                body.excess((ginv @ query - x)[None]))

    def objective(params):
        v = violations(params)
        if v is None:
            return 1e9
        value = max(v[0], margin - v[1])
        if value <= 0:
            raise _Witness(params.copy())
        return value

    for start in range(budget):
        x0 = 0.4 * rng.standard_normal(nparams)
        try:
            params = scipy.optimize.minimize(
                objective, x0, method="Nelder-Mead",
                options={"maxiter": 400 * max(nparams, 1),
                         "xatol": 1e-10, "fatol": 1e-12}).x
        except _Witness as found:
            params = found.params
        v = violations(params)
        if v is not None and v[0] <= GEO_TOL and v[1] > GEO_TOL:
            return "outside", params
    return "unknown", None
