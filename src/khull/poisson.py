"""Poisson process on (0, t_max] x Nor(K) for polytopes, balls, half-balls.

The intensity is the product of Lebesgue measure on (0, infinity),
normalized by the volume of K, and the surface-area measure on the
boundary with the attached outer unit normal.  The total rate is
therefore surface_area(K) / volume(K) marks per unit of t.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bodies import Ball, HalfBall, Polytope, row_norms

__all__ = [
    "PoissonSample",
    "replicate_rngs",
    "sample_PK",
    "spawn_rng",
]

# numpy.random.SeedSequence's hash constants (pool size 4) and PCG64's
# 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_BLOCK = 4096  # replicates hashed per array pass; a power of two


@dataclass(frozen=True)
class PoissonSample:
    """Marks as arrays: weights t (n,), boundary points eta (n, d) and
    outer unit normals u (n, d); mark i is (t[i], eta[i], u[i])."""

    t: np.ndarray
    eta: np.ndarray
    u: np.ndarray

    def __len__(self):
        return len(self.t)


def spawn_rng(seed, *key):
    """Independent generator for (seed, key...); keys never collide."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _uint32_words(n):
    """A non-negative int as SeedSequence reads it: little-endian 32-bit
    words, with 0 as one zero word."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = []
    while True:
        words.append(n & _M32)
        n >>= 32
        if not n:
            return words


def _hasher(init, mult):
    """SeedSequence's hashmix, whose constant advances on every call
    independently of the data; it maps uint32 arrays elementwise."""
    const = init

    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _M32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    return hashmix


def _mix(x, y):
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _seed_pool(entropy):
    """SeedSequence's 4-word pool of an entropy list of >= 4 uint32 arrays;
    the arrays broadcast, so common words hash once."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    return pool


def replicate_rngs(seed, stream, count):
    """Generators for replicates 0..count-1 of one stream, in order.

    Replicate i's stream equals ``spawn_rng(seed, stream, i)`` bit for
    bit: the SeedSequence pool hash runs on arrays over a block of
    replicates, then PCG64's seeding step runs in 128-bit ints.  The
    yielded Generator is one object, reseeded on the next iteration: use
    it before advancing and do not keep it.  Seed and stream are
    non-negative ints; a negative one raises ValueError here, as
    SeedSequence does.
    """
    run = _uint32_words(seed)
    # With a spawn key, SeedSequence pads the run entropy to the pool size.
    prefix = run + [0] * (4 - len(run)) + _uint32_words(stream)
    return _replicate_rngs([np.array([w], np.uint32) for w in prefix],
                           count)


def _replicate_rngs(prefix, count):
    rng = np.random.Generator(np.random.PCG64(0))  # reseeded before use
    bitgen = rng.bit_generator
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        # Blocks start at multiples of a power of two, so every index in
        # one has as many words as the last.
        i = np.arange(start, stop, dtype=np.uint64)
        key = [(i >> np.uint64(32 * k)).astype(np.uint32)
               for k in range(len(_uint32_words(stop - 1)))]
        # generate_state(4, uint64): hash the pool twice round, then pair
        # the words little-endian.
        hashmix = _hasher(_INIT_B, _MULT_B)
        pool = _seed_pool(prefix + key)
        w = [hashmix(p).astype(np.uint64) for p in pool + pool]
        words = [(w[k] | (w[k + 1] << np.uint64(32))).tolist()
                 for k in range(0, 8, 2)]
        for s_hi, s_lo, i_hi, i_lo in zip(*words):
            # pcg_setseq_128_srandom_r with initstate s, initseq i.
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _M128
            state = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _M128
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng


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
    x /= row_norms(x)[:, None]
    return x


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
    return PoissonSample(t, eta, u)
