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
    "sample_PK_block",
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


class BoundarySampler:
    """Draws (eta, u) from normalized surface measure with attached normals.

    A generator's draws for n marks come in one fixed order after its mark
    count, which is the stream contract of `sample_PK`:

    - polytopes: one ``random(3n)`` (d=2) or ``random(5n)`` (d=3), split
      into the n weights, the n facet picks, then per mark the position on
      its segment (d=2), or the fan-triangle pick and two barycentric
      coordinates (d=3);
    - balls: ``random(n)`` for the weights, then ``standard_normal((n, d))``;
    - half-balls: one ``random(2n)`` for the weights and the cap flags, then
      the k cap normals ``standard_normal((k, d))``, the flat-part
      directions ``standard_normal((n-k, d-1))`` and radii ``random(n-k)``.

    `fill` makes those calls for one generator; `draw` maps the fills of a
    block of generators in one pass, elementwise or row by row, so each
    generator's marks do not depend on the block around it.  The facet pick
    is `Generator.choice`'s algorithm on the facet cdf that `Polytope`
    caches with the rest of its facet geometry, once per body object.
    """

    def __init__(self, body):
        self.body = body
        if isinstance(body, Polytope):
            if not body.is_full_dimensional:
                raise ValueError("body must be full-dimensional")
            (areas, self.facet_cdf, self.facet_verts,
             self.fan_cdfs) = body.facet_geometry
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

    def fill(self, rng, n):
        """One generator's draws for n marks: the n weight uniforms, then
        the arrays that `draw` maps."""
        body = self.body
        d = body.dim
        if isinstance(body, Polytope):
            raw = rng.random((3 if d == 2 else 5) * n)
            return raw[:n], raw[n:2 * n], raw[2 * n:]
        if isinstance(body, Ball):
            return rng.random(n), rng.standard_normal((n, d))
        raw = rng.random(2 * n)
        cap = raw[n:] < self.cap_area / self.surface_area
        k = int(np.count_nonzero(cap))
        return (raw[:n], cap, rng.standard_normal((k, d)),
                rng.standard_normal((n - k, d - 1)), rng.random(n - k))

    def draw(self, fills):
        """The marks of a block, as (eta, u), two (n, d) arrays.

        `fills` holds each generator's `fill` less its weights, in
        generator order; the marks come in the same order.
        """
        parts = [np.concatenate(p) for p in zip(*fills)]
        body = self.body
        d = body.dim
        if isinstance(body, Polytope):
            pick, coords = parts
            idx = self.facet_cdf.searchsorted(pick, side="right")
            u = body.facet_normals[idx]
            v0 = self.facet_verts[idx, 0]
            if d == 2:
                lam = coords[:, None]
                return v0 + lam * (self.facet_verts[idx, 1] - v0), u
            c, a, b = coords.reshape(-1, 3).T
            flip = a + b > 1
            a, b = np.where(flip, 1 - a, a), np.where(flip, 1 - b, b)
            # searchsorted(cdf, c, side="right") of each mark's facet.
            i = 1 + np.sum(self.fan_cdfs[idx] <= c[:, None], axis=1)
            eta = (v0 + a[:, None] * (self.facet_verts[idx, i] - v0)
                   + b[:, None] * (self.facet_verts[idx, i + 1] - v0))
            return eta, u
        r = body.radius
        if isinstance(body, Ball):
            (u,) = parts
            u /= row_norms(u)[:, None]
            return r * u, u
        # HalfBall: a cap normal drawn in the lower hemisphere is reflected
        # into the upper one; only the sign of its product with the axis is
        # read, so that product may run on the whole block.
        cap, cap_u, flat, radii = parts
        cap_u /= row_norms(cap_u)[:, None]
        cap_u[cap_u @ body.axis < 0] *= -1
        flat /= row_norms(flat)[:, None]
        flat = r * flat * (radii ** (1.0 / (d - 1)))[:, None]
        # The product with the frame runs per generator, over its flat
        # marks (one radius each): BLAS may round a longer product otherwise.
        sizes = [len(fill[-1]) for fill in fills]
        ends = np.cumsum(sizes)
        eta, u = np.empty((len(cap), d)), np.empty((len(cap), d))
        eta[cap], u[cap] = r * cap_u, cap_u
        eta[~cap] = np.concatenate([flat[a:b] @ self.frame.T
                                    for a, b in zip(ends - sizes, ends)])
        u[~cap] = -body.axis
        return eta, u


def sample_PK_block(body, t_max, rngs):
    """One Poisson sample of marks with t <= t_max per generator.

    Each generator draws its count, Poisson(rate * t_max), then its
    `BoundarySampler.fill`, before the next one is taken from `rngs`;
    `draw` then maps the whole block.  The weights t are i.i.d. uniform on
    (0, t_max], independent of the boundary marks.  Returns the marks of
    all generators, concatenated in generator order, as one
    `PoissonSample`, and the (k,) mark count of each generator.  Generator
    i's marks are those `sample_PK` draws from it alone, bit for bit.
    """
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    sampler = BoundarySampler(body)
    mean = sampler.surface_area / sampler.volume * t_max
    fills = [sampler.fill(rng, rng.poisson(mean)) for rng in rngs]
    counts = np.array([len(f[0]) for f in fills])
    t = t_max * (1.0 - np.concatenate([f[0] for f in fills]))
    eta, u = sampler.draw([f[1:] for f in fills])
    return PoissonSample(t, eta, u), counts


def sample_PK(body, t_max, seed=None):
    """Poisson sample of marks with t <= t_max, drawn from
    ``np.random.default_rng(seed)``: an int seed gives the stream of
    `spawn_rng(seed)`, a Generator is used and advanced as it is.

    The count is Poisson(rate * t_max); t values are i.i.d. uniform on
    (0, t_max], independent of the boundary marks, which follow the draw
    order of `BoundarySampler`.  This is `sample_PK_block` over one
    generator.
    """
    return sample_PK_block(body, t_max, [np.random.default_rng(seed)])[0]
