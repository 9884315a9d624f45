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

from .bodies import Ball, HalfBall, Polytope

__all__ = [
    "PoissonSample",
    "process_rate",
    "sample_PK",
    "spawn_rng",
]


@dataclass(frozen=True)
class PoissonSample:
    """Marks as arrays: weights t (n,), boundary points eta (n, d) and
    outer unit normals u (n, d); mark i is (t[i], eta[i], u[i])."""

    t: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    t_max: float
    body: object
    seed: object = None

    def __len__(self):
        return len(self.t)


def spawn_rng(seed, *key):
    """Independent generator for (seed, key...); keys never collide."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _ball_surface_area(r, d):
    if d == 2:
        return 2 * math.pi * r
    if d == 3:
        return 4 * math.pi * r * r
    return 2 * math.pi ** (d / 2) / math.gamma(d / 2) * r ** (d - 1)


def _ball_volume(r, d):
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * r ** d


def _uniform_sphere(rng, d, n):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _uniform_disk(rng, d, r, n):
    """n uniform points in the (d-1)-dimensional disk of radius r."""
    u = _uniform_sphere(rng, d - 1, n)
    return r * u * (rng.random(n) ** (1.0 / (d - 1)))[:, None]


class BoundarySampler:
    """Draws (eta, u) from normalized surface measure with attached normals.

    A polytope's facet geometry and volume are `Polytope` cached
    properties, computed once per body object: building a sampler for the
    same object again, as every `sample_PK` call does, reuses them.
    """

    def __init__(self, body):
        self.body = body
        if isinstance(body, Polytope):
            if not body.is_full_dimensional:
                raise ValueError("body must be full-dimensional")
            areas, self.facet_verts, self.fan_cdfs = body.facet_geometry
            self.facet_probs = areas / areas.sum()
            self.surface_area = float(areas.sum())
            self.volume = body.volume
        elif isinstance(body, Ball):
            self.surface_area = _ball_surface_area(body.radius, body.dim)
            self.volume = _ball_volume(body.radius, body.dim)
        elif isinstance(body, HalfBall):
            d, r = body.dim, body.radius
            if d < 2:
                raise ValueError("half-ball sampling needs dimension >= 2")
            self.cap_area = _ball_surface_area(r, d) / 2.0
            self.flat_area = _ball_volume(r, d - 1)
            self.surface_area = self.cap_area + self.flat_area
            self.volume = _ball_volume(r, d) / 2.0
            # Orthonormal frame with the axis last, for flat-part sampling.
            q, _ = np.linalg.qr(np.column_stack(
                [body.axis, np.eye(d)[:, :d - 1]]))
            q = q * np.sign(q[:, 0] @ body.axis)
            self.frame = q[:, 1:]
        else:
            raise TypeError(f"unsupported body {type(body).__name__}")

    def draw(self, rng, n):
        """n independent marks as (eta, u), two (n, d) arrays.

        Polytopes draw all facet indices, then one uniform row per mark:
        the position along a segment (d=2), or the fan triangle and the
        two barycentric coordinates (d=3).
        """
        body = self.body
        d = body.dim
        if isinstance(body, Polytope):
            idx = rng.choice(len(self.facet_probs), size=n,
                             p=self.facet_probs)
            u = body.facet_normals[idx]
            v0 = self.facet_verts[idx, 0]
            if d == 2:
                lam = rng.random(n)[:, None]
                return v0 + lam * (self.facet_verts[idx, 1] - v0), u
            c, a, b = rng.random((n, 3)).T
            flip = a + b > 1
            a, b = np.where(flip, 1 - a, a), np.where(flip, 1 - b, b)
            # searchsorted(cdf, c, side="right") of each mark's facet.
            i = 1 + np.sum(self.fan_cdfs[idx] <= c[:, None], axis=1)
            eta = (v0 + a[:, None] * (self.facet_verts[idx, i] - v0)
                   + b[:, None] * (self.facet_verts[idx, i + 1] - v0))
            return eta, u
        r = body.radius
        if isinstance(body, Ball):
            u = _uniform_sphere(rng, d, n)
            return r * u, u
        # HalfBall: cap marks, then flat marks; a cap normal drawn in the
        # lower hemisphere is reflected into the upper one.
        cap = rng.random(n) < self.cap_area / self.surface_area
        k = int(cap.sum())
        cap_u = _uniform_sphere(rng, d, k)
        cap_u[cap_u @ body.axis < 0] *= -1
        eta, u = np.empty((n, d)), np.empty((n, d))
        eta[cap], u[cap] = r * cap_u, cap_u
        eta[~cap] = _uniform_disk(rng, d, r, n - k) @ self.frame.T
        u[~cap] = -body.axis
        return eta, u


def process_rate(body):
    """Marks per unit of t: surface area over volume."""
    s = BoundarySampler(body)
    return s.surface_area / s.volume


def sample_PK(body, t_max, seed=None, rng=None):
    """Poisson sample of marks with t <= t_max.

    The count is Poisson(rate * t_max); t values are i.i.d. uniform on
    (0, t_max], independent of the boundary marks.
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if rng is None:
        rng = spawn_rng(seed)
    sampler = BoundarySampler(body)
    rate = sampler.surface_area / sampler.volume
    n = rng.poisson(rate * t_max)
    t = t_max * (1.0 - rng.random(n))
    eta, u = sampler.draw(rng, n)
    return PoissonSample(t, eta, u, float(t_max), body, seed)
