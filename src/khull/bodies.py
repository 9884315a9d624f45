"""Convex bodies in low dimension: support functions, polars, cones, JSON.

Supported representations are polytopes (with mutually consistent V- and
H-reps), Euclidean balls and half-balls centered at the origin, half-spaces,
and polyhedral cones.  All operations are pure functions on immutable values.
Equality and containment tests use the single geometric tolerance GEO_TOL.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy

GEO_TOL = 1e-9

__all__ = [
    "GEO_TOL",
    "Ball",
    "BallIntersection",
    "EMPTY",
    "EmptySet",
    "HalfBall",
    "HalfSpace",
    "PolyhedralCone",
    "Polytope",
    "WHOLE_SPACE",
    "WholeSpace",
    "body_from_json",
    "body_to_json",
    "cross_polytope",
    "cube",
    "normal_cone",
    "polar",
    "polar_cone",
    "row_norms",
    "support_function",
    "supporting_cone",
    "unit_direction",
]


def unit_direction(u):
    """Normalize u to a unit vector; rejects near-zero input."""
    u = np.asarray(u, dtype=float)
    n = np.linalg.norm(u)
    if n < 1e-12:
        raise ValueError("direction must be nonzero")
    return u / n


def row_norms(x):
    """The Euclidean norm of each row of a 2-D array: the floats of
    ``np.linalg.norm(x, axis=1)``, bit for bit.

    numpy adds the squares of a row shorter than 8 left to right, as the
    loop below does, whatever the memory order of x, but pays for a
    reduction over a short axis; from 8 columns on it may add them
    pairwise, so those rows go to numpy itself.
    """
    d = x.shape[1]
    if not 0 < d < 8:
        return np.linalg.norm(x, axis=1)
    out = x[:, 0] * x[:, 0]
    for j in range(1, d):
        out += x[:, j] * x[:, j]
    return np.sqrt(out, out=out)


class EmptySet:
    """The empty set: an infeasible half-space system, or the feasible
    translations of a sample that no translate of the body holds."""

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.zeros(len(points), dtype=bool)

    def __repr__(self):
        return "EmptySet()"


class WholeSpace:
    """Sentinel for hulls taken over an empty family of transforms."""

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.ones(len(points), dtype=bool)

    def __repr__(self):
        return "WholeSpace()"


EMPTY = EmptySet()
WHOLE_SPACE = WholeSpace()


def _affine_basis(vertices):
    """Orthonormal basis of the affine hull of the rows, and its center."""
    center = vertices.mean(axis=0)
    centered = vertices - center
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0] if len(s) else 1.0)))
    return center, vt[:rank]


def _extreme_points(vertices):
    """Indices of the extreme rows of conv(rows), degenerate sets too.

    Of rows equal after rounding to GEO_TOL only the first is a candidate.
    """
    _, idx = np.unique(np.round(vertices / GEO_TOL) * GEO_TOL, axis=0,
                       return_index=True)
    idx = np.sort(idx)
    if len(idx) <= 1:
        return idx
    center, basis = _affine_basis(vertices[idx])
    k = len(basis)
    if k == 0:
        return idx[:1]
    proj = (vertices[idx] - center) @ basis.T
    if k == 1:
        lo, hi = np.argmin(proj[:, 0]), np.argmax(proj[:, 0])
        return idx[[lo, hi]] if lo != hi else idx[[lo]]
    return idx[scipy.spatial.ConvexHull(proj).vertices]


@dataclass(frozen=True)
class Polytope:
    """Compact polytope with vertex list and (for full-dimensional bodies)
    a facet list of (unit outer normal, offset) pairs.

    Lower-dimensional polytopes (segments, polygons in 3-space) carry a
    V-rep only; facet queries on them raise.
    """

    vertices: np.ndarray
    facet_normals: np.ndarray | None = None
    facet_offsets: np.ndarray | None = None

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def is_full_dimensional(self):
        return self.facet_normals is not None

    @staticmethod
    def from_vertices(vertices):
        vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        verts = vertices[_extreme_points(vertices)]
        d = verts.shape[1]
        if len(verts) <= d:
            return Polytope(verts, None, None)
        if d == 1:  # a segment [lo, hi]: facets -x <= -lo and x <= hi
            return Polytope(verts, np.array([[-1.0], [1.0]]),
                            np.array([-verts.min(), verts.max()]))
        try:
            hull = scipy.spatial.ConvexHull(verts)
        except scipy.spatial.QhullError:
            return Polytope(verts, None, None)
        eqs = hull.equations  # rows (a, b) with a.x + b <= 0
        eqs = eqs / np.linalg.norm(eqs[:, :-1], axis=1)[:, None]
        # The pieces of one facet share bit-identical rows.  Keep Qhull's
        # order: the facet order fixes the boundary-sampling stream.
        eqs = eqs[np.sort(np.unique(eqs, axis=0, return_index=True)[1])]
        return Polytope(verts[hull.vertices], eqs[:, :-1], -eqs[:, -1])

    @staticmethod
    def from_halfspaces(normals, offsets):
        """Vertices of the bounded set {x : normals @ x <= offsets}, any d.

        One HiGHS LP finds a Chebyshev centre c and radius r <= 1 (a ball
        inside the set); EMPTY when the system is infeasible.  For r >
        GEO_TOL, Qhull intersects the half-spaces around c.  Otherwise the
        rows with negative duals are tight on the whole set, which lies in
        the affine plane through c parallel to their hyperplanes; the other
        rows are solved in that plane's coordinates.  A line (d = 1) is
        two ratio tests, since Qhull needs d >= 2.
        """
        a = np.atleast_2d(np.asarray(normals, dtype=float))
        b = np.asarray(offsets, dtype=float)
        scale = np.linalg.norm(a, axis=1)
        a, b = a / scale[:, None], b / scale
        m, d = a.shape
        res = scipy.optimize.linprog(
            np.append(np.zeros(d), -1.0), A_ub=np.column_stack([a, np.ones(m)]),
            b_ub=b, bounds=[(None, None)] * d + [(0, 1)], method="highs")
        if not res.success:
            return EMPTY
        centre = res.x[:d]
        if d == 1:
            ends = np.array([[np.max(-b[a[:, 0] < 0])],
                             [np.min(b[a[:, 0] > 0])]])
            return Polytope.from_vertices(ends)
        if res.x[d] > GEO_TOL:
            return Polytope.from_vertices(scipy.spatial.HalfspaceIntersection(
                np.column_stack([a, -b]), centre).intersections)
        tight = res.ineqlin.marginals < 0
        _, s, vt = np.linalg.svd(a[tight])
        basis = vt[int(np.sum(s > 1e-9 * s[0])):]  # tight rows' null space
        if not len(basis):
            return Polytope(centre[None], None, None)
        sub_normals = a[~tight] @ basis.T
        keep = np.linalg.norm(sub_normals, axis=1) > 1e-12
        sub = Polytope.from_halfspaces(sub_normals[keep],
                                       (b[~tight] - a[~tight] @ centre)[keep])
        return Polytope.from_vertices(centre + sub.vertices @ basis)

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.facet_normals is not None:
            # (facets, n) slack, reduced along the long axis.
            slack = self.facet_normals @ points.T
            return np.all(slack <= (self.facet_offsets + GEO_TOL)[:, None],
                          axis=0)
        return np.array([_in_convex_hull(p, self.vertices) for p in points])

    def facet_vertex_sets(self):
        """Indices of vertices lying on each facet."""
        slack = self.vertices @ self.facet_normals.T - self.facet_offsets
        return [np.nonzero(np.abs(slack[:, i]) <= 1e-7)[0]
                for i in range(len(self.facet_normals))]

    @cached_property
    def bounding_box(self):
        """The vertices' coordinate-wise (min, max), computed once."""
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    @cached_property
    def is_box(self):
        """Is the polytope its bounding box?  Decided once, from the facets.

        True for 2d facets whose unit normals have one nonzero entry each,
        so are the 2d signed unit coordinate vectors, with each offset
        within GEO_TOL / 2 of its bound of `bounding_box`.  `contains` then
        compares each coordinate with its offset + GEO_TOL, which rounds
        to no less than the bound, and accepts every point of [lo, hi]:
        every lo + u * (hi - lo) with u in [0, 1), since u * (hi - lo)
        rounds below the rounded span by more than that span's own error.
        """
        a, d = self.facet_normals, self.dim
        if a is None or len(a) != 2 * d:
            return False
        rows, axes = np.nonzero(a)
        signs = a[rows, axes]
        sides = set(zip(axes.tolist(), (signs > 0).tolist()))
        if not np.array_equal(rows, np.arange(2 * d)) or len(sides) != 2 * d:
            return False
        lo, hi = self.bounding_box
        bounds = np.where(signs > 0, hi[axes], -lo[axes])
        return bool(np.all(np.abs(self.facet_offsets - bounds) <= GEO_TOL / 2))

    @cached_property
    def max_norm(self):
        """Largest norm of a point of the polytope (at a vertex), once."""
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    @cached_property
    def volume(self):
        """Volume of a full-dimensional polytope, computed once per object."""
        return float(scipy.spatial.ConvexHull(self.vertices).volume)

    @cached_property
    def facet_geometry(self):
        """Facet areas, cdfs, vertices and fan cdfs, once per object.

        Returns the (F,) areas, the (F,) cdf over the facets, the
        (F, V, d) facet vertices (zero-padded to the largest facet) and,
        in d=3, the (F, V-2) cdfs over each facet's fan triangles (padded
        with inf); d=2 gives None.  In d=3 each facet's vertices are sorted
        by angle around its centre and fanned from the first one.  Each cdf
        is the one `Generator.choice` builds from the area probabilities.
        The cache lives on this object, not on its value: equal polytopes
        with their facets in another order have other arrays, and draw
        other boundary streams.
        """
        d = self.dim
        if d not in (2, 3):
            raise ValueError("polytope sampling supported for d in {2, 3}")
        sets = self.facet_vertex_sets()
        width = max(len(idx) for idx in sets)
        areas = np.zeros(len(sets))
        verts = np.zeros((len(sets), width, d))
        cdfs = np.full((len(sets), width - 2), np.inf)
        for f, (idx, normal) in enumerate(zip(sets, self.facet_normals)):
            v = self.vertices[idx]
            if d == 2:
                # Facet is a segment; order is irrelevant for two points.
                areas[f] = float(np.linalg.norm(v[1] - v[0]))
            else:
                center = v.mean(axis=0)
                ref = v[0] - center
                ref = ref / np.linalg.norm(ref)
                perp = np.cross(normal, ref)
                ang = np.arctan2((v - center) @ perp, (v - center) @ ref)
                v = v[np.argsort(ang)]
                tri = np.array([
                    0.5 * np.linalg.norm(np.cross(v[i] - v[0],
                                                  v[i + 1] - v[0]))
                    for i in range(1, len(v) - 1)])
                # Left to right: the rate, hence the mark count, sees the
                # last bit of the area.
                areas[f] = sum(tri.tolist())
                cdf = (tri / tri.sum()).cumsum()
                cdfs[f, :len(tri)] = cdf / cdf[-1]
            verts[f, :len(v)] = v
        facet_cdf = (areas / areas.sum()).cumsum()
        facet_cdf /= facet_cdf[-1]
        return areas, facet_cdf, verts, (cdfs if d == 3 else None)

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        if self.vertices.shape != other.vertices.shape:
            return False
        # Nearest vertices, not a sort that a 1-ulp tie could reorder.
        gap = np.linalg.norm(self.vertices[:, None] - other.vertices[None],
                             axis=2)
        return bool(np.all(gap.min(axis=1) <= 1e-8)
                    and np.all(gap.min(axis=0) <= 1e-8))

    def __hash__(self):
        # Equality ignores vertex order and allows 1e-8 slack, so only the
        # shape is certain to agree between equal polytopes.
        return hash(self.vertices.shape)


def _in_convex_hull(p, vertices):
    """LP membership test for p in conv(vertices)."""
    n, d = vertices.shape
    a_eq = np.vstack([vertices.T, np.ones(n)])
    b_eq = np.append(p, 1.0)
    res = scipy.optimize.linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                                 bounds=[(0, None)] * n, method="highs")
    if res.success:
        return True
    dists = np.linalg.norm(vertices - p, axis=1)
    return bool(np.min(dists) <= GEO_TOL)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of radius r centered at the origin."""

    radius: float
    dim: int = 2

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return row_norms(points) <= self.radius + GEO_TOL


@dataclass(frozen=True)
class HalfBall:
    """Half-ball {|x| <= r, <x, axis> >= 0}; default axis is e1."""

    radius: float
    axis: np.ndarray = field(default=None)
    dim: int = 2

    def __post_init__(self):
        axis = self.axis
        if axis is None:
            axis = np.zeros(self.dim)
            axis[0] = 1.0
        elif np.shape(axis) != (self.dim,):
            raise ValueError(f"axis must have shape ({self.dim},), got "
                             f"{np.shape(axis)}; pass the dimension as dim=")
        object.__setattr__(self, "axis", unit_direction(axis))

    def __eq__(self, other):
        if not isinstance(other, HalfBall):
            return NotImplemented
        return (self.radius == other.radius and self.dim == other.dim
                and np.array_equal(self.axis, other.axis))

    def __hash__(self):
        return hash((self.radius, self.dim))

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return ((row_norms(points) <= self.radius + GEO_TOL)
                & (points @ self.axis >= -GEO_TOL))


@dataclass(frozen=True)
class HalfSpace:
    """{x : <x, normal> <= offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", unit_direction(self.normal))

    @property
    def dim(self):
        return len(self.normal)

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points @ self.normal <= self.offset + GEO_TOL


@dataclass(frozen=True)
class PolyhedralCone:
    """Closed convex cone, by generator rays and/or facet normals.

    With neither representation present the cone is the whole space;
    `generators` of length zero with `normals=None` means {0} is NOT
    expressible that way -- use a single zero generator row instead.
    """

    generators: np.ndarray | None = None
    normals: np.ndarray | None = None
    dim: int = 2

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.normals is not None:
            return np.all(points @ self.normals.T <= GEO_TOL, axis=1)
        if self.generators is None:
            return np.ones(len(points), dtype=bool)
        return np.array([_in_positive_hull(p, self.generators)
                         for p in points])

    def is_whole_space(self):
        return self.generators is None and (
            self.normals is None or len(self.normals) == 0)


def _in_positive_hull(p, generators):
    gens = np.atleast_2d(generators)
    if np.linalg.norm(p) <= GEO_TOL:
        return True
    if len(gens) == 0:
        return False
    n, d = gens.shape
    res = scipy.optimize.linprog(np.zeros(n), A_eq=gens.T, b_eq=p,
                                 bounds=[(0, None)] * n, method="highs")
    return bool(res.success)


@dataclass(frozen=True)
class BallIntersection:
    """Intersection of equal-radius balls around the given centers."""

    centers: np.ndarray
    radius: float

    @property
    def dim(self):
        return self.centers.shape[1]

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d2 = np.linalg.norm(points[:, None, :] - self.centers[None], axis=2)
        return np.all(d2 <= self.radius + GEO_TOL, axis=1)

    def is_empty(self):
        """Exact: empty iff the centres' enclosing ball is wider than r."""
        return min_enclosing_ball(self.centers)[1] > self.radius + GEO_TOL

    @cached_property
    def corners(self):
        """Corners of the planar set: feasible pairwise circle intersections.

        `is_empty` calls the set non-empty up to an enclosing radius of
        r + GEO_TOL.  When it is that thin, no radius-r corner may pass the
        same tolerance; the centre of the enclosing ball is then the one
        corner.  An empty set has none.
        """
        corners = _circle_intersections(self.centers, self.radius)
        corners = corners[self.contains(corners)]
        if not len(corners) and not self.is_empty():
            corners = min_enclosing_ball(self.centers)[0][None]
        return corners

    def support(self, u):
        """h(X, u), exact in the plane; -inf when X is empty.

        The maximum of <x, u> over X lies at a corner or inside an arc of
        one circle, where it is that circle's far point c + r u / |u|.
        """
        if self.dim != 2:
            raise ValueError("ball-intersection support implemented for d=2")
        u = np.asarray(u, dtype=float)
        far = self.centers + self.radius * u / (np.linalg.norm(u) or 1.0)
        points = np.vstack([self.corners, far[self.contains(far)]])
        return float(np.max(points @ u, initial=-np.inf))


def _circle_intersections(centers, r):
    """Pairwise intersections of the radius-r circles around the centers.

    Pairs up to 2r + 2·GEO_TOL apart are kept, the tolerance at which
    `BallIntersection.is_empty` calls two balls overlapping; for those just
    over 2r apart the midpoint is the single corner.
    """
    i, j = np.triu_indices(len(centers), 1)
    delta = centers[j] - centers[i]
    d = np.linalg.norm(delta, axis=1)
    keep = (d >= 1e-14) & (d <= 2 * r + 2 * GEO_TOL)
    delta, d = delta[keep], d[keep, None]
    mid = 0.5 * (centers[i[keep]] + centers[j[keep]])
    h = np.sqrt(np.maximum(r * r - 0.25 * d * d, 0.0))
    perp = np.column_stack([-delta[:, 1], delta[:, 0]]) / d
    return np.concatenate([mid + h * perp, mid - h * perp])


def min_enclosing_ball(points):
    """Centre and radius of the smallest ball containing the points.

    Welzl's algorithm (1991) in any dimension, over a fixed-seed
    permutation so the result is deterministic.  The recursion depth is
    at most d + 1: each level adds one point to the boundary set.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    pts = pts[np.random.default_rng(0).permutation(len(pts))]
    d = pts.shape[1]
    tol = 1e-12 * (1.0 + float(np.max(np.abs(pts), initial=0.0)))

    def circumball(boundary):
        if not boundary:
            return np.zeros(d), -np.inf
        b = np.array(boundary)
        a = b[1:] - b[0]
        # Centre b0 + a^T lam, equidistant from every boundary point.
        lam = np.linalg.lstsq(a @ a.T, 0.5 * np.sum(a * a, axis=1),
                              rcond=None)[0]
        c = b[0] + lam @ a
        return c, float(np.max(np.linalg.norm(b - c, axis=1)))

    def welzl(n, boundary):
        c, r = circumball(boundary)
        if len(boundary) > d:
            return c, r
        i = 0
        while True:
            outside = np.nonzero(np.linalg.norm(pts[i:n] - c, axis=1)
                                 > r + tol)[0]
            if not len(outside):
                return c, r
            i += int(outside[0])
            c, r = welzl(i, boundary + [pts[i]])
            i += 1

    return welzl(len(pts), [])


# -- support function ---------------------------------------------------------

def support_function(body, u):
    """h(body, u) = sup <x, u>; +inf in unbounded directions."""
    u = np.asarray(u, dtype=float)
    if isinstance(body, Polytope):
        return float(np.max(body.vertices @ u))
    if isinstance(body, Ball):
        return body.radius * float(np.linalg.norm(u))
    if isinstance(body, HalfBall):
        c = float(u @ body.axis)
        if c >= 0:
            return body.radius * float(np.linalg.norm(u))
        return body.radius * float(np.linalg.norm(u - c * body.axis))
    if isinstance(body, HalfSpace):
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            return 0.0
        c = float(u @ body.normal)
        if c > 0 and np.linalg.norm(u - c * body.normal) <= 1e-12 * nu:
            return c * body.offset
        return float("inf")
    if isinstance(body, PolyhedralCone):
        if body.is_whole_space():
            return 0.0 if np.linalg.norm(u) < 1e-12 else float("inf")
        if body.generators is not None:
            if np.all(body.generators @ u <= GEO_TOL):
                return 0.0
            return float("inf")
        # H-rep cone: bounded in direction u iff u in pos(normals).
        return 0.0 if _in_positive_hull(u, body.normals) else float("inf")
    if isinstance(body, BallIntersection):
        return body.support(u)
    if isinstance(body, EmptySet):
        return float("-inf")
    raise TypeError(f"unsupported body {type(body).__name__}")


# -- polar sets ---------------------------------------------------------------

def polar(body):
    """Polar set {x : h(body, x) <= 1}; body must contain the origin."""
    if isinstance(body, Ball):
        return Ball(1.0 / body.radius, body.dim)
    if isinstance(body, Polytope):
        if not bool(body.contains(np.zeros((1, body.dim)))[0]):
            raise ValueError("polar requires the origin inside the body")
        if not body.is_full_dimensional:
            return _polar_degenerate(body)
        if np.any(body.facet_offsets <= GEO_TOL):
            raise ValueError("polar polytope requires origin strictly "
                             "interior")
        verts = body.facet_normals / body.facet_offsets[:, None]
        return Polytope.from_vertices(verts)
    raise TypeError(f"polar unsupported for {type(body).__name__}")


def _polar_degenerate(body):
    verts = body.vertices
    # Segment [0, p] dualizes to the half-space {<x, p> <= 1}.
    if len(verts) == 2:
        norms = np.linalg.norm(verts, axis=1)
        i0 = int(np.argmin(norms))
        if norms[i0] <= GEO_TOL:
            p = verts[1 - i0]
            np_ = np.linalg.norm(p)
            return HalfSpace(p / np_, 1.0 / np_)
    if len(verts) == 1 and np.linalg.norm(verts[0]) <= GEO_TOL:
        return WHOLE_SPACE
    raise ValueError("polar of a degenerate polytope is only supported "
                     "for segments [0, p]")


def polar_cone(cone: PolyhedralCone):
    """Polar cone {x : <x, y> <= 0 for all y in cone}.

    Swaps the generator and facet-normal representations exactly.
    """
    if cone.normals is not None:
        return PolyhedralCone(generators=cone.normals, dim=cone.dim)
    if cone.generators is not None:
        return PolyhedralCone(normals=cone.generators, dim=cone.dim)
    return PolyhedralCone(generators=np.zeros((1, cone.dim)), dim=cone.dim)


# -- supporting and normal cones ----------------------------------------------

def supporting_cone(body, v):
    """cl(union of lambda*(body - v)); v must lie in the body."""
    v = np.asarray(v, dtype=float)
    if isinstance(body, Polytope):
        if not body.is_full_dimensional:
            raise ValueError("supporting cone needs a full-dimensional "
                             "polytope")
        if not bool(body.contains(v[None])[0]):
            raise ValueError("point outside the body")
        slack = body.facet_normals @ v - body.facet_offsets
        active = np.abs(slack) <= GEO_TOL
        if not np.any(active):
            return PolyhedralCone(dim=body.dim)  # interior: whole space
        return PolyhedralCone(normals=body.facet_normals[active],
                              dim=body.dim)
    if isinstance(body, Ball):
        r = np.linalg.norm(v)
        if r > body.radius + GEO_TOL:
            raise ValueError("point outside the ball")
        if r < body.radius - GEO_TOL:
            return PolyhedralCone(dim=body.dim)
        return HalfSpace(v, 0.0)
    raise TypeError(f"supporting cone unsupported for {type(body).__name__}")


def normal_cone(body, v):
    """Cone of outer normals at a boundary point v."""
    v = np.asarray(v, dtype=float)
    if isinstance(body, Polytope):
        slack = body.facet_normals @ v - body.facet_offsets
        active = np.abs(slack) <= GEO_TOL
        if not bool(body.contains(v[None])[0]) or not np.any(active):
            raise ValueError("point is not on the boundary")
        return PolyhedralCone(generators=body.facet_normals[active],
                              dim=body.dim)
    if isinstance(body, Ball):
        if abs(np.linalg.norm(v) - body.radius) > GEO_TOL:
            raise ValueError("point is not on the sphere")
        return PolyhedralCone(generators=(v / body.radius)[None],
                              dim=body.dim)
    raise TypeError(f"normal cone unsupported for {type(body).__name__}")


# -- standard bodies ----------------------------------------------------------

def cube(d, half_width=1.0):
    """The cube [-w, w]^d."""
    corners = np.array(list(itertools.product([-half_width, half_width],
                                              repeat=d)))
    return Polytope.from_vertices(corners)


def cross_polytope(d):
    """The cross-polytope conv(+-e_i) in R^d."""
    verts = np.vstack([np.eye(d), -np.eye(d)])
    return Polytope.from_vertices(verts)


# -- JSON serialization -------------------------------------------------------

def body_to_json(body):
    """Serialize a body to the documented JSON schema."""
    if isinstance(body, Polytope):
        doc = {"kind": "polytope",
               "vertices": body.vertices.tolist()}
        if body.is_full_dimensional:
            doc["facets"] = [{"normal": n.tolist(), "offset": float(h)}
                             for n, h in zip(body.facet_normals,
                                             body.facet_offsets)]
        return doc
    if isinstance(body, Ball):
        return {"kind": "ball", "radius": body.radius, "dim": body.dim}
    if isinstance(body, HalfBall):
        return {"kind": "half_ball", "radius": body.radius,
                "axis": body.axis.tolist()}
    if isinstance(body, HalfSpace):
        return {"kind": "half_space",
                "facets": [{"normal": body.normal.tolist(),
                            "offset": float(body.offset)}]}
    if isinstance(body, PolyhedralCone):
        doc = {"kind": "cone", "dim": body.dim}
        if body.generators is not None:
            doc["generators"] = body.generators.tolist()
        if body.normals is not None:
            doc["normals"] = body.normals.tolist()
        return doc
    raise TypeError(f"cannot serialize {type(body).__name__}")


def _radius(doc):
    radius = float(doc["radius"])
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")
    return radius


def _dim(doc):
    dim = int(doc.get("dim", 2))
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    return dim


def body_from_json(doc):
    """Inverse of body_to_json.  Accepts a dict, JSON text, or file path.

    A radius that is not finite and positive, or a dim below 1, raises a
    ValueError that names the field.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError:
            with open(doc) as fh:
                doc = json.load(fh)
    kind = doc.get("kind")
    if kind == "polytope":
        return Polytope.from_vertices(np.asarray(doc["vertices"], float))
    if kind == "ball":
        return Ball(_radius(doc), _dim(doc))
    if kind == "half_ball":
        axis = doc.get("axis")
        dim = len(axis) if axis is not None else _dim(doc)
        return HalfBall(_radius(doc),
                        np.asarray(axis, float) if axis is not None else None,
                        dim)
    if kind == "half_space":
        facet = doc["facets"][0]
        return HalfSpace(np.asarray(facet["normal"], float),
                         float(facet["offset"]))
    if kind == "cone":
        gens = doc.get("generators")
        norms = doc.get("normals")
        return PolyhedralCone(
            np.asarray(gens, float) if gens is not None else None,
            np.asarray(norms, float) if norms is not None else None,
            _dim(doc))
    raise ValueError(f"unknown body kind: {kind!r}")
