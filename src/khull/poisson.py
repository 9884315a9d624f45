"""Poisson process on (0, t_max] x Nor(K) for polytopes, balls, half-balls.

The intensity is the product of Lebesgue measure on (0, infinity),
normalized by the volume of K, and the surface-area measure on the
boundary with the attached outer unit normal.  The total rate is
therefore surface_area(K) / volume(K) marks per unit of t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import Ball, HalfBall, Polytope, support_function

__all__ = [
    "NormalBundleMark",
    "PoissonSample",
    "boundary_sampler",
    "process_rate",
    "sample_PK",
    "spawn_rng",
]


@dataclass(frozen=True)
class NormalBundleMark:
    """One Poisson point (t, eta, u): time, boundary point, outer normal."""

    t: float
    eta: np.ndarray
    u: np.ndarray

    def is_valid(self, body, tol=1e-9):
        h = support_function(body, self.u)
        return (self.t > 0
                and abs(float(self.eta @ self.u) - h) <= tol
                and abs(np.linalg.norm(self.u) - 1.0) <= tol)


@dataclass(frozen=True)
class PoissonSample:
    marks: tuple
    t_max: float
    body: object
    seed: object = None

    def __len__(self):
        return len(self.marks)

    def arrays(self):
        """Stack the marks into (t, eta, u) arrays."""
        if not self.marks:
            d = self.body.dim
            return (np.zeros(0), np.zeros((0, d)), np.zeros((0, d)))
        t = np.array([m.t for m in self.marks])
        eta = np.array([m.eta for m in self.marks])
        u = np.array([m.u for m in self.marks])
        return t, eta, u


def spawn_rng(seed, *key):
    """Independent generator for (seed, key...); keys never collide."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _polytope_facet_geometry(body):
    """Per-facet (area, vertex array) for a full-dimensional polytope."""
    areas, facet_verts = [], []
    for idx in body.facet_vertex_sets():
        verts = body.vertices[idx]
        if body.dim == 2:
            # Facet is a segment; order is irrelevant for two points.
            areas.append(float(np.linalg.norm(verts[1] - verts[0])))
            facet_verts.append(verts)
        elif body.dim == 3:
            center = verts.mean(axis=0)
            normal = _facet_normal(body, idx)
            ref = verts[0] - center
            ref = ref / np.linalg.norm(ref)
            perp = np.cross(normal, ref)
            ang = np.arctan2((verts - center) @ perp, (verts - center) @ ref)
            verts = verts[np.argsort(ang)]
            area = 0.0
            for i in range(1, len(verts) - 1):
                area += 0.5 * np.linalg.norm(
                    np.cross(verts[i] - verts[0], verts[i + 1] - verts[0]))
            areas.append(area)
            facet_verts.append(verts)
        else:
            raise ValueError("polytope sampling supported for d in {2, 3}")
    return np.array(areas), facet_verts


def _facet_normal(body, vertex_idx):
    for n, h in zip(body.facet_normals, body.facet_offsets):
        if np.all(np.abs(body.vertices[vertex_idx] @ n - h) <= 1e-7):
            return n
    raise RuntimeError("facet normal lookup failed")


def _polytope_volume(body):
    from scipy.spatial import ConvexHull

    return float(ConvexHull(body.vertices).volume)


def _sample_facet_point(verts, rng):
    """Uniform point on a segment (2 vertices) or a fan-triangulated polygon."""
    if len(verts) == 2:
        lam = rng.random()
        return verts[0] + lam * (verts[1] - verts[0])
    tri_areas = np.array([
        0.5 * np.linalg.norm(np.cross(verts[i] - verts[0],
                                      verts[i + 1] - verts[0]))
        for i in range(1, len(verts) - 1)])
    i = 1 + rng.choice(len(tri_areas), p=tri_areas / tri_areas.sum())
    a, b = rng.random(2)
    if a + b > 1:
        a, b = 1 - a, 1 - b
    return verts[0] + a * (verts[i] - verts[0]) + b * (verts[i + 1] - verts[0])


def _ball_surface_area(r, d):
    if d == 2:
        return 2 * math.pi * r
    if d == 3:
        return 4 * math.pi * r * r
    return 2 * math.pi ** (d / 2) / math.gamma(d / 2) * r ** (d - 1)


def _ball_volume(r, d):
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * r ** d


def _uniform_sphere(rng, d, n=1):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _uniform_disk(rng, d, r):
    """Uniform point in the (d-1)-dimensional disk of radius r (in R^{d-1})."""
    u = _uniform_sphere(rng, d - 1)[0]
    return r * u * rng.random() ** (1.0 / (d - 1))


class BoundarySampler:
    """Draws (eta, u) from normalized surface measure with attached normals."""

    def __init__(self, body):
        self.body = body
        if isinstance(body, Polytope):
            if not body.is_full_dimensional:
                raise ValueError("body must be full-dimensional")
            areas, fverts = _polytope_facet_geometry(body)
            self.facet_areas = areas
            self.facet_probs = areas / areas.sum()
            self.facet_verts = fverts
            self.facet_normals = list(body.facet_normals)
            self.surface_area = float(areas.sum())
            self.volume = _polytope_volume(body)
        elif isinstance(body, Ball):
            self.surface_area = _ball_surface_area(body.radius, body.dim)
            self.volume = _ball_volume(body.radius, body.dim)
        elif isinstance(body, HalfBall):
            d, r = body.dim, body.radius
            self.cap_area = _ball_surface_area(r, d) / 2.0
            self.flat_area = _ball_volume(r, d - 1) if d > 1 else 1.0
            self.surface_area = self.cap_area + self.flat_area
            self.volume = _ball_volume(r, d) / 2.0
            # Orthonormal frame with the axis last, for flat-part sampling.
            q, _ = np.linalg.qr(np.column_stack(
                [body.axis, np.eye(d)[:, :d - 1]]))
            q = q * np.sign(q[:, 0] @ body.axis)
            self.frame = q[:, 1:]
        else:
            raise TypeError(f"unsupported body {type(body).__name__}")

    def draw(self, rng, n=1):
        """n independent (eta, u) pairs."""
        body = self.body
        out = []
        if isinstance(body, Polytope):
            idx = rng.choice(len(self.facet_probs), size=n,
                             p=self.facet_probs)
            for i in idx:
                eta = _sample_facet_point(self.facet_verts[i], rng)
                out.append((eta, self.facet_normals[i]))
        elif isinstance(body, Ball):
            for u in _uniform_sphere(rng, body.dim, n):
                out.append((body.radius * u, u))
        else:  # HalfBall
            d, r = body.dim, body.radius
            for _ in range(n):
                if rng.random() < self.cap_area / self.surface_area:
                    while True:
                        u = _uniform_sphere(rng, d)[0]
                        if u @ body.axis >= 0:
                            break
                    out.append((r * u, u))
                else:
                    y = self.frame @ _uniform_disk(rng, d, r)
                    out.append((y, -body.axis))
        return out


def boundary_sampler(body):
    return BoundarySampler(body)


def process_rate(body):
    """Marks per unit of t: surface area over volume."""
    s = BoundarySampler(body)
    return s.surface_area / s.volume


def sample_PK(body, t_max, seed=None, rng=None, sampler=None):
    """Poisson sample of marks with t <= t_max.

    The count is Poisson(rate * t_max); t values are i.i.d. uniform on
    (0, t_max], independent of the boundary marks.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if rng is None:
        rng = spawn_rng(seed)
    sampler = sampler or BoundarySampler(body)
    rate = sampler.surface_area / sampler.volume
    n = rng.poisson(rate * t_max)
    ts = t_max * (1.0 - rng.random(n))
    marks = tuple(NormalBundleMark(float(t), np.asarray(eta), np.asarray(u))
                  for t, (eta, u) in zip(ts, sampler.draw(rng, n)))
    return PoissonSample(marks, float(t_max), body, seed)
