"""Convex bodies in low dimension: support functions, polars, cones, JSON.

Supported representations are polytopes (with mutually consistent V- and
H-reps), Euclidean balls and half-balls centered at the origin, half-spaces,
and polyhedral cones.  Each body answers for its own geometry and sampling
through the members of `_Body`, which the other modules call in place of
asking for the body's type.  Bodies are immutable values.  Equality and
containment tests use the single geometric tolerance GEO_TOL.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
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
    "row_norms",
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


def _ball_surface_area(r, d):
    if d == 2:
        return 2 * math.pi * r
    if d == 3:
        return 4 * math.pi * r * r
    return 2 * math.pi ** (d / 2) / math.gamma(d / 2) * r ** (d - 1)


def _ball_volume(r, d):
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * r ** d


def _unsupported(body, *args):
    raise TypeError(f"unsupported body {type(body).__name__}")


class _Body:
    """What the pipeline asks of a body.  A body class defines the members
    it answers for; any other raises TypeError("unsupported body <Class>").

    - `dim`, `max_norm`, `volume`, `surface_area`;
    - `facets`: the (unit outer normals, offsets) of a full-dimensional
      polytope; a lower-dimensional one raises ValueError("body must be
      full-dimensional");
    - `support(u)`: h(K, u), +inf in unbounded directions;
    - `excess(points)`: the largest constraint excess, <= 0 iff all inside;
    - `is_symmetric`: K = -K;
    - `feasible_translations(sample)`: {x : sample ⊆ K + x}, or EMPTY;
    - `normal_bundle_rows`: generators (u, u outer y) of Nor(K), none for
      a ball; `survival(p)`: max over Nor(K) of <(u, u outer y), p>, and a
      generator that attains it;
    - `keep_screen(maps, n)`: a sufficient test on an n-point `uniform_draw`
      that each map (g, s) keeps the sample in K, or None (the default);
    - `uniform_draw(rng, n)`, `uniform_place(n, raw)`: the generator calls
      of an n-point uniform sample, n >= 1, then their fixed map into K;
    - `boundary_draw(rng, n)`, `boundary_place(fills)`: one generator's
      draws for n marks, weights first; then the marks (eta, u) of a block
      of draws less their weights, mapped elementwise or row by row, so a
      generator's marks do not depend on the block;
    - `polar()`: {x : h(K, x) <= 1}, for a cone its polar cone;
      `supporting_cone(v)`, `normal_cone(v)` at v in K; `to_json()`;
    - `reflected_recession_rows(cone)`: rows r with -T_K = {r @ c <= 0} on
      the cone's coordinates c, exactly.
    """

    dim = max_norm = volume = surface_area = facets = property(_unsupported)
    is_symmetric = normal_bundle_rows = property(_unsupported)
    support = excess = feasible_translations = survival = _unsupported
    uniform_draw = uniform_place = _unsupported
    boundary_draw = boundary_place = _unsupported
    polar = supporting_cone = normal_cone = to_json = _unsupported
    reflected_recession_rows = _unsupported

    def keep_screen(self, maps, n):
        return None


class EmptySet(_Body):
    """The empty set: an infeasible half-space system, or the feasible
    translations of a sample that no translate of the body holds."""

    def support(self, u):
        return float("-inf")

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.zeros(len(points), dtype=bool)

    def __repr__(self):
        return "EmptySet()"


class WholeSpace(_Body):
    """Sentinel for hulls taken over an empty family of transforms."""

    def support(self, u):
        return 0.0 if np.linalg.norm(u) < 1e-12 else float("inf")

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


# A keep screen (of `Polytope` or `Ball`) compares with the margin
# GEO_TOL / 2 and runs only where rounding stays below GEO_TOL / 4, so its
# pass implies a pass of every comparison of the exact test.  Let M bound
# the numbers of either test: M = |U|(|g|_2 |a| + |s|) + max|h| + GEO_TOL
# for a polytope (facet normals U), M = 2r + 1 for a ball whose screen
# passes.  Dot-product error bounds put each computed value within R / 2 of
# its exact value, R = _ROUNDING d^2 M; a box's folded values are at most
# 2M and take d + 3 more operations, within the same R / 2.  `_to_box`
# places a coordinate in [lo, hi]: it is at most c = max(|lo|, |hi|)(1 +
# _ROUNDING) and rounded by at most 4 u max(|lo|, |hi|), u the unit
# roundoff, so delta = _ROUNDING d |p| c bounds the placement error
# |<p, e>|.  With R <= GEO_TOL / 4 (for a polytope, checked with |a| <=
# sqrt(d) c) a pass leaves every true slack within its bound + 3/4 GEO_TOL.
_ROUNDING = 32 * np.finfo(float).eps  # 64 unit roundoffs


def _to_box(u, lo, span):
    """The (m, d) uniforms mapped to the box lo + u * span, in (d, m)
    layout, where numpy broadcasts along the long axis; the values are
    those of the (m, d) map."""
    cand = np.multiply(u.T, span[:, None], out=np.empty(u.shape[::-1]))
    cand += lo[:, None]
    return cand


@dataclass(frozen=True)
class Polytope(_Body):
    """Compact polytope with vertex list and (for full-dimensional bodies)
    a facet list of (unit outer normal, offset) pairs.

    Lower-dimensional polytopes (segments, polygons in 3-space) carry a
    V-rep only; every member that reads `facets` raises on them.
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

    @property
    def facets(self):
        """(facet_normals, facet_offsets); a lower-dimensional polytope
        has none and raises."""
        if self.facet_normals is None:
            raise ValueError("body must be full-dimensional")
        return self.facet_normals, self.facet_offsets

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
        normals, offsets = self.facets
        slack = self.vertices @ normals.T - offsets
        return [np.nonzero(np.abs(slack[:, i]) <= 1e-7)[0]
                for i in range(len(normals))]

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
        """Volume of a full-dimensional polytope, computed once per object.

        A segment (d = 1) is its length, the sum of the offsets of its
        facets -x <= -lo and x <= hi; Qhull needs d >= 2.
        """
        _, offsets = self.facets
        if self.dim == 1:
            return float(offsets.sum())
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
        normals, _ = self.facets
        if d not in (2, 3):
            raise ValueError("polytope sampling supported for d in {2, 3}")
        sets = self.facet_vertex_sets()
        width = max(len(idx) for idx in sets)
        areas = np.zeros(len(sets))
        verts = np.zeros((len(sets), width, d))
        cdfs = np.full((len(sets), width - 2), np.inf)
        for f, (idx, normal) in enumerate(zip(sets, normals)):
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

    @property
    def surface_area(self):
        return float(self.facet_geometry[0].sum())

    @property
    def is_symmetric(self):
        return bool(np.all(self.contains(-self.vertices)))

    @cached_property
    def normal_bundle_rows(self):
        """(u, u outer v) for each facet normal u and vertex v on it, once."""
        return np.array([np.append(u, np.outer(u, v))
                         for idx, u in zip(self.facet_vertex_sets(),
                                           self.facet_normals)
                         for v in self.vertices[idx]])

    def survival(self, point):
        """The largest product with a row: the maximum is at a vertex."""
        vals = self.normal_bundle_rows @ np.asarray(point, dtype=float)
        j = int(np.argmax(vals))
        return float(vals[j]), self.normal_bundle_rows[j]

    def support(self, u):
        return float(np.max(self.vertices @ np.asarray(u, dtype=float)))

    def excess(self, points):
        normals, offsets = self.facets
        return float(np.max(points @ normals.T - offsets))

    def feasible_translations(self, sample):
        normals, offsets = self.facets
        shift = np.max(sample @ normals.T, axis=0)
        return Polytope.from_halfspaces(-normals, offsets - shift)

    def uniform_draw(self, rng, n):
        """A box draws one (n + 8, d) batch of ``rng.random``.  Any other
        polytope draws its sample by rejection from its bounding box: the
        first n in-body candidates of the ``rng.random`` stream, whatever
        the batch sizes, as the transpose of a (d, n) array."""
        d = self.dim
        if self.is_box:  # a box keeps every candidate of the first batch
            return rng.random((n + 8, d))
        self.facets  # raises for a lower-dimensional polytope
        lo, hi = self.bounding_box
        parts, filled, drawn = [], 0, 0
        while filled < n:
            rate = max(filled, 1) / max(drawn, 1)
            m = math.ceil((n - filled) / rate) + 8
            cand = _to_box(rng.random((m, d)), lo, hi - lo)
            drawn += m
            inside = self.contains(cand.T)
            if not inside.all():
                cand = np.compress(inside, cand, axis=1)
            take = cand[:, :n - filled]
            if take.shape[1] == n:  # one batch filled the sample
                return take.T
            parts.append(take)
            filled += take.shape[1]
        return np.concatenate(parts, axis=1).T

    def uniform_place(self, n, raw):
        if not self.is_box:
            return raw
        lo, hi = self.bounding_box
        return _to_box(raw, lo, hi - lo)[:, :n].T

    def keep_screen(self, maps, n):
        """Passes when the sample's support value in each pulled-back normal
        p = g^T u is at most h + <u, s> + GEO_TOL / 2, as <u, g a - s> =
        <g^T u, a> - <u, s>.  A box folds its placement lo + v * span + e
        into the screen: p * span on the draw rows v, and the bound less
        <p, lo> + delta.  None for a lower-dimensional polytope or when
        the rounding budget fails (see `_ROUNDING`)."""
        if not self.is_full_dimensional:
            return None
        d, normals, offsets = self.dim, self.facet_normals, self.facet_offsets
        lo, hi = self.bounding_box
        c = float(np.abs([lo, hi]).max()) * (1 + _ROUNDING)
        norm_g = max(np.linalg.norm(g, 2) for g, _ in maps)
        norm_s = max(np.linalg.norm(s) for _, s in maps)
        budget = (GEO_TOL / 4 / (_ROUNDING * d * d)
                  - float(np.abs(offsets).max()) - GEO_TOL
                  - float(row_norms(normals).max())
                  * (norm_g * math.sqrt(d) * c + norm_s))
        if budget < 0:
            return None
        pulled = np.vstack([normals @ g for g, _ in maps])
        limit = np.concatenate(
            [offsets + normals @ s + GEO_TOL / 2 for _, s in maps])
        if self.is_box:  # fold the placement into the screen
            delta = _ROUNDING * d * c * row_norms(pulled)
            limit = limit - pulled @ lo - delta
            pulled = pulled * (hi - lo)
        # A box draw's rows are contiguous, and so are the columns of any
        # other polytope sample: the product copies neither.
        return lambda raw: bool(
            ((pulled @ raw[:n].T).max(axis=1) <= limit).all())

    def boundary_draw(self, rng, n):
        """One ``random(3n)`` (d=2) or ``random(5n)`` (d=3), split into the
        n weights, the n facet picks, then per mark the position on its
        segment (d=2), or the fan-triangle pick and two barycentric
        coordinates (d=3)."""
        raw = rng.random((3 if self.dim == 2 else 5) * n)
        return raw[:n], raw[n:2 * n], raw[2 * n:]

    def boundary_place(self, fills):
        """Facet picks by `Generator.choice`'s algorithm on the facet cdf."""
        pick, coords = (np.concatenate(p) for p in zip(*fills))
        _, facet_cdf, verts, fan_cdfs = self.facet_geometry
        idx = facet_cdf.searchsorted(pick, side="right")
        u = self.facet_normals[idx]
        v0 = verts[idx, 0]
        if self.dim == 2:
            return v0 + coords[:, None] * (verts[idx, 1] - v0), u
        c, a, b = coords.reshape(-1, 3).T
        flip = a + b > 1
        a, b = np.where(flip, 1 - a, a), np.where(flip, 1 - b, b)
        # searchsorted(cdf, c, side="right") of each mark's facet.
        i = 1 + np.sum(fan_cdfs[idx] <= c[:, None], axis=1)
        eta = (v0 + a[:, None] * (verts[idx, i] - v0)
               + b[:, None] * (verts[idx, i + 1] - v0))
        return eta, u

    def polar(self):
        """conv(facet normals / offsets), for the origin inside the body; a
        segment [0, p] gives {<x, p> <= 1}, and {0} the whole space."""
        if not bool(self.contains(np.zeros((1, self.dim)))[0]):
            raise ValueError("polar requires the origin inside the body")
        if self.is_full_dimensional:
            if np.any(self.facet_offsets <= GEO_TOL):
                raise ValueError("polar polytope requires origin strictly "
                                 "interior")
            return Polytope.from_vertices(
                self.facet_normals / self.facet_offsets[:, None])
        norms = np.linalg.norm(self.vertices, axis=1)
        i0 = int(np.argmin(norms))
        if len(norms) == 1 and norms[0] <= GEO_TOL:
            return WHOLE_SPACE
        if len(norms) == 2 and norms[i0] <= GEO_TOL:
            p = self.vertices[1 - i0]
            np_ = np.linalg.norm(p)
            return HalfSpace(p / np_, 1.0 / np_)
        raise ValueError("polar of a degenerate polytope is only supported "
                         "for segments [0, p]")

    def supporting_cone(self, v):
        v = np.asarray(v, dtype=float)
        normals, offsets = self.facets
        if not bool(self.contains(v[None])[0]):
            raise ValueError("point outside the body")
        active = np.abs(normals @ v - offsets) <= GEO_TOL
        if not np.any(active):
            return PolyhedralCone(dim=self.dim)  # interior: whole space
        return PolyhedralCone(normals=normals[active], dim=self.dim)

    def normal_cone(self, v):
        v = np.asarray(v, dtype=float)
        normals, offsets = self.facets
        active = np.abs(normals @ v - offsets) <= GEO_TOL
        if not bool(self.contains(v[None])[0]) or not np.any(active):
            raise ValueError("point is not on the boundary")
        return PolyhedralCone(generators=normals[active], dim=self.dim)

    def to_json(self):
        doc = {"kind": "polytope", "vertices": self.vertices.tolist()}
        if self.is_full_dimensional:
            doc["facets"] = [{"normal": n.tolist(), "offset": float(h)}
                             for n, h in zip(self.facet_normals,
                                             self.facet_offsets)]
        return doc

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


def _check_dim(value, name):
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError(f"{name} must be an integer of at least 1, got "
                         f"{value!r}")


def _check_finite_positive(value, name):
    """Reject a size that is not a finite positive real number (a bool is
    none, as in `_check_dim`), with a ValueError that names it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class Ball(_Body):
    """Euclidean ball of radius r centered at the origin.  A radius that
    is not finite and positive, or a dim that is not an integer of at
    least 1, raises a ValueError that names it."""

    radius: float
    dim: int = 2
    is_symmetric = True

    def __post_init__(self):
        _check_finite_positive(self.radius, "radius")
        _check_dim(self.dim, "dim")

    @property
    def max_norm(self):
        return float(self.radius)

    @property
    def volume(self):
        return _ball_volume(self.radius, self.dim)

    @property
    def normal_bundle_rows(self):
        return np.zeros((0, self.dim + self.dim ** 2))

    def survival(self, point):
        """At y = r u, s is the maximum over unit u of r u'sym(C)u + <x, u>:
        the trust-region subproblem, solved exactly."""
        d, r, p = self.dim, self.radius, np.asarray(point, dtype=float)
        x, c = p[:d], p[d:].reshape(d, d)
        val, u = _min_sphere_quadratic(-0.5 * (c + c.T) * r, -x)
        return -val, np.append(u, r * np.outer(u, u))

    @property
    def surface_area(self):
        return _ball_surface_area(self.radius, self.dim)

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return row_norms(points) <= self.radius + GEO_TOL

    def support(self, u):
        return self.radius * float(np.linalg.norm(u))

    def excess(self, points):
        return float(np.max(np.linalg.norm(points, axis=1) - self.radius))

    def feasible_translations(self, sample):
        """The centres ∩ B(v, r) over the extreme points v of the sample:
        a ball that holds them holds conv(sample)."""
        sample = np.asarray(sample, dtype=float)
        x = BallIntersection(sample[_extreme_points(sample)], self.radius)
        return EMPTY if x.is_empty() else x

    def uniform_draw(self, rng, n):
        """(n, d) standard normals, then n uniforms for the radii."""
        return rng.standard_normal((n, self.dim)), rng.random(n)

    def uniform_place(self, n, raw):
        """Normalises the normals in place, then scales them by r U^(1/d)."""
        normals, radial = raw
        normals /= row_norms(normals)[:, None]
        return normals * (self.radius * radial ** (1.0 / self.dim))[:, None]

    def keep_screen(self, maps, n):
        """|g a - s| <= |g|_2 |a| + |s|: passes when `_ball_norm_bound` times
        max|g|_2 (1 + 1e-12), for the error of the spectral norm, plus
        max|s| is at most r + GEO_TOL / 2.  None when the rounding budget
        fails (see `_ROUNDING`)."""
        if _ROUNDING * self.dim ** 2 * (2 * self.radius + 1.0) > GEO_TOL / 4:
            return None
        grow = max(np.linalg.norm(g, 2) for g, _ in maps) * (1 + 1e-12)
        room = (self.radius + GEO_TOL / 2
                - max(np.linalg.norm(s) for _, s in maps))
        return lambda raw: bool(_ball_norm_bound(self, raw[1]) * grow <= room)

    def boundary_draw(self, rng, n):
        """``random(n)`` for the weights, then ``standard_normal((n, d))``."""
        return rng.random(n), rng.standard_normal((n, self.dim))

    def boundary_place(self, fills):
        (u,) = (np.concatenate(p) for p in zip(*fills))
        u /= row_norms(u)[:, None]
        return self.radius * u, u

    def polar(self):
        return Ball(1.0 / self.radius, self.dim)

    def supporting_cone(self, v):
        r = np.linalg.norm(v)
        if r > self.radius + GEO_TOL:
            raise ValueError("point outside the ball")
        if r < self.radius - GEO_TOL:
            return PolyhedralCone(dim=self.dim)
        return HalfSpace(v, 0.0)

    def normal_cone(self, v):
        v = np.asarray(v, dtype=float)
        if abs(np.linalg.norm(v) - self.radius) > GEO_TOL:
            raise ValueError("point is not on the sphere")
        return PolyhedralCone(generators=(v / self.radius)[None],
                              dim=self.dim)

    def to_json(self):
        return {"kind": "ball", "radius": self.radius, "dim": self.dim}

    def reflected_recession_rows(self, cone):
        """For a cone of pure matrix directions whose matrices are symmetric
        and pairwise commute: in a common eigenbasis the semidefiniteness
        condition sym(C) <= 0 of -T_K becomes one linear inequality per
        eigenvector.  The diagonal preset gives the nonpositive orthant."""
        d = self.dim
        mats = []
        for v in cone.basis:
            x, c = v[:d], v[d:].reshape(d, d)
            if np.linalg.norm(x) > 1e-12 or np.linalg.norm(c - c.T) > 1e-12:
                raise ValueError("cone must consist of symmetric matrix "
                                 "directions")
            mats.append(c)
        for a in mats:
            for b in mats:
                if np.linalg.norm(a @ b - b @ a) > 1e-10:
                    raise ValueError("cone matrices must commute")
        mix = sum((i + 1) * m for i, m in enumerate(mats))
        _, q = np.linalg.eigh(mix)
        rows = np.array([[q[:, j] @ m @ q[:, j] for m in mats]
                         for j in range(d)])
        return rows[np.linalg.norm(rows, axis=1) > 1e-12]


def _ball_norm_bound(body, radial):
    """A bound on the norms of the ball sample that `uniform_place` makes
    from these radial draws: r max(U)^(1/d) (1 + 1e-12).  The factor covers
    the pow's one-ulp error and the error of normalising."""
    return body.radius * radial.max() ** (1.0 / body.dim) * (1 + 1e-12)


def _min_sphere_quadratic(a, b):
    """min of y^T A y + <b, y> over the unit sphere (A symmetric), and a
    unit minimiser y: the trust-region subproblem on the boundary, solved
    through the secular equation in the eigenbasis of A, hard case too."""
    w, q = np.linalg.eigh(a)
    beta = q.T @ b
    lam_min = w[0]
    gap = w - lam_min

    # y(lam) = -(2(A - lam I))^{-1} b must have unit norm with lam <= lam_min.
    degenerate = np.abs(beta) < 1e-14
    if np.all(degenerate[gap < 1e-12]):
        # Hard case: b has no component along the bottom eigenspace.
        active = ~degenerate
        if not np.any(active):
            return float(lam_min), q[:, 0]
        n2 = float(np.sum((beta[active] / (2 * gap[active])) ** 2))
        if n2 <= 1.0:
            y = np.zeros_like(beta)
            y[active] = -beta[active] / (2 * gap[active])
            y[int(np.argmin(w))] = math.sqrt(1.0 - n2)
            yy = q @ y
            return float(yy @ a @ yy + b @ yy), yy

    def excess(mu):
        """|y(lam_min - mu)|^2 - 1, decreasing in mu > 0."""
        return float(np.sum((beta / (2 * (gap + mu))) ** 2)) - 1.0

    # |y| <= |b| / (2 mu), so the root lies below hi.  Each step down keeps
    # every coordinate of y below 8 in size (no overflow), and mu > 0 keeps
    # every division finite.
    lo = hi = 0.5 * float(np.linalg.norm(b)) + 1.0
    while excess(lo) < 0.0 and lo > 1e-300:
        hi, lo = lo, lo / 8.0
    mu = (lo if excess(lo) < 0.0
          else scipy.optimize.brentq(excess, lo, hi, xtol=1e-300))
    y = q @ (-beta / (2 * (gap + mu)))
    y = y / np.linalg.norm(y)
    return float(y @ a @ y + b @ y), y


@dataclass(frozen=True)
class HalfBall(_Body):
    """Half-ball {|x| <= r, <x, axis> >= 0}; default axis is e1.  Radius
    and dim are checked as `Ball` checks them."""

    radius: float
    axis: np.ndarray = field(default=None)
    dim: int = 2
    is_symmetric = False

    def __post_init__(self):
        _check_finite_positive(self.radius, "radius")
        _check_dim(self.dim, "dim")
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

    def to_json(self):
        return {"kind": "half_ball", "radius": self.radius,
                "axis": self.axis.tolist()}

    @property
    def max_norm(self):
        return float(self.radius)

    @property
    def volume(self):
        return _ball_volume(self.radius, self.dim) / 2.0

    @property
    def _cap_area(self):
        return _ball_surface_area(self.radius, self.dim) / 2.0

    @property
    def surface_area(self):
        return self._cap_area + _ball_volume(self.radius, self.dim - 1)

    def contains(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return ((row_norms(points) <= self.radius + GEO_TOL)
                & (points @ self.axis >= -GEO_TOL))

    def support(self, u):
        c = float(u @ self.axis)
        if c >= 0:
            return self.radius * float(np.linalg.norm(u))
        return self.radius * float(np.linalg.norm(u - c * self.axis))

    def excess(self, points):
        return max(Ball.excess(self, points),
                   float(np.max(-(points @ self.axis))))

    def uniform_draw(self, rng, n):
        """The finished sample: the first n points with <x, axis> >= 0 of
        ball samples of 2 (n - filled) + 8 points each."""
        ball, parts, filled = Ball(self.radius, self.dim), [], 0
        while filled < n:
            m = 2 * (n - filled) + 8
            cand = ball.uniform_place(m, ball.uniform_draw(rng, m))
            parts.append(cand[cand @ self.axis >= 0][:n - filled])
            filled += len(parts[-1])
        return np.concatenate(parts)

    def uniform_place(self, n, raw):
        return raw

    def boundary_draw(self, rng, n):
        """One ``random(2n)`` for the weights and the cap flags, then the k
        cap normals ``standard_normal((k, d))``, the flat-part directions
        ``standard_normal((n-k, d-1))`` and radii ``random(n-k)``."""
        raw = rng.random(2 * n)
        cap = raw[n:] < self._cap_area / self.surface_area
        k = int(np.count_nonzero(cap))
        return (raw[:n], cap, rng.standard_normal((k, self.dim)),
                rng.standard_normal((n - k, self.dim - 1)), rng.random(n - k))

    def boundary_place(self, fills):
        """A cap normal drawn in the lower hemisphere is reflected into the
        upper one; only the sign of its product with the axis is read, so
        that product may run on the whole block.  The flat points' product
        with the frame runs per generator (one radius each): BLAS may round
        a longer product otherwise."""
        d, r, axis = self.dim, self.radius, self.axis
        if d < 2:
            raise ValueError("half-ball sampling needs dimension >= 2")
        # Orthonormal basis of the flat part, the axis's complement.
        q, _ = np.linalg.qr(np.column_stack([axis, np.eye(d)[:, :d - 1]]))
        frame = (q * np.sign(q[:, 0] @ axis))[:, 1:]
        cap, cap_u, flat, radii = (np.concatenate(p) for p in zip(*fills))
        cap_u /= row_norms(cap_u)[:, None]
        cap_u[cap_u @ axis < 0] *= -1
        flat /= row_norms(flat)[:, None]
        flat = r * flat * (radii ** (1.0 / (d - 1)))[:, None]
        sizes = [len(fill[-1]) for fill in fills]
        ends = np.cumsum(sizes)
        eta, u = np.empty((len(cap), d)), np.empty((len(cap), d))
        eta[cap], u[cap] = r * cap_u, cap_u
        eta[~cap] = np.concatenate([flat[a:b] @ frame.T
                                    for a, b in zip(ends - sizes, ends)])
        u[~cap] = -axis
        return eta, u


@dataclass(frozen=True)
class HalfSpace(_Body):
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

    def support(self, u):
        u = np.asarray(u, dtype=float)
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            return 0.0
        c = float(u @ self.normal)
        if c > 0 and np.linalg.norm(u - c * self.normal) <= 1e-12 * nu:
            return c * self.offset
        return float("inf")

    def to_json(self):
        return {"kind": "half_space",
                "facets": [{"normal": self.normal.tolist(),
                            "offset": float(self.offset)}]}


@dataclass(frozen=True)
class PolyhedralCone(_Body):
    """Closed convex cone, by generator rays and/or facet normals.

    With neither representation present the cone is the whole space;
    `generators` of length zero with `normals=None` means {0} is NOT
    expressible that way -- use a single zero generator row instead.
    """

    generators: np.ndarray | None = None
    normals: np.ndarray | None = None
    dim: int = 2

    def __post_init__(self):
        _check_dim(self.dim, "dim")

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

    def support(self, u):
        u = np.asarray(u, dtype=float)
        if self.is_whole_space():
            return 0.0 if np.linalg.norm(u) < 1e-12 else float("inf")
        if self.generators is not None:
            bounded = np.all(self.generators @ u <= GEO_TOL)
        else:  # H-rep cone: bounded in direction u iff u in pos(normals).
            bounded = _in_positive_hull(u, self.normals)
        return 0.0 if bounded else float("inf")

    def polar(self):
        """The polar cone {x : <x, y> <= 0 for all y in the cone}: the
        generator and facet-normal representations swap exactly."""
        if self.normals is not None:
            return PolyhedralCone(generators=self.normals, dim=self.dim)
        if self.generators is not None:
            return PolyhedralCone(normals=self.generators, dim=self.dim)
        return PolyhedralCone(generators=np.zeros((1, self.dim)), dim=self.dim)

    def to_json(self):
        doc = {"kind": "cone", "dim": self.dim}
        if self.generators is not None:
            doc["generators"] = self.generators.tolist()
        if self.normals is not None:
            doc["normals"] = self.normals.tolist()
        return doc


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
class BallIntersection(_Body):
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


# -- standard bodies ----------------------------------------------------------

def cube(d, half_width=1.0):
    """The cube [-w, w]^d, built in closed form: no Qhull call.

    The vertices are the `itertools.product` corners, except in d = 2,
    where they run counterclockwise from (-w, -w): the order that
    `Polytope.from_vertices` gives the corners, so `body_to_json` writes
    the vertex list of their Qhull polytope.  The facets are -e_1 ...
    -e_d, +e_1 ... +e_d, with no -0.0 entry, each at offset w.  Marks
    drawn on this object follow this facet order, so they differ from
    those of `from_vertices` of the corners, which earlier versions
    returned.  CLI outputs and experiment reports do not change:
    `body_from_json` rebuilds a JSON polytope with Qhull from its
    vertices alone.  A d that is not an integer of at least 1, or a
    half_width that is not finite and positive, raises a ValueError that
    names it.
    """
    _check_dim(d, "d")
    _check_finite_positive(half_width, "half_width")
    w = float(half_width)
    corners = np.array(list(itertools.product([-w, w], repeat=d)))
    if d == 2:
        corners = corners[[0, 2, 3, 1]]
    eye = np.eye(d)
    return Polytope(corners, np.vstack([0.0 - eye, eye]), np.full(2 * d, w))


def cross_polytope(d):
    """The cross-polytope conv(+-e_i) in R^d.  A d that is not an integer
    of at least 1 raises a ValueError that names it, as in `cube`."""
    _check_dim(d, "d")
    verts = np.vstack([np.eye(d), -np.eye(d)])
    return Polytope.from_vertices(verts)


# -- JSON serialization -------------------------------------------------------

def body_to_json(body):
    """Serialize a body to the documented JSON schema."""
    return body.to_json()


def _dim(doc):
    """The doc's dim; a whole float (JSON may write 2.0) reads as an int."""
    dim = doc.get("dim", 2)
    return int(dim) if isinstance(dim, float) and dim.is_integer() else dim


def _radius(doc):
    """The doc's radius as a float; a bool is left for the check to reject."""
    radius = doc["radius"]
    return radius if isinstance(radius, bool) else float(radius)


def body_from_json(doc):
    """Inverse of body_to_json.  Accepts a dict, JSON text, or file path.

    A radius that is not finite and positive, a dim that is not an integer
    of at least 1, or a half-space without exactly one facet raises a
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
        facets = doc["facets"]
        if len(facets) != 1:
            raise ValueError(f"facets must be a list of one facet, got "
                             f"{len(facets)}")
        facet = facets[0]
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
