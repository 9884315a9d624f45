"""Poisson process on (0, t_max] x Nor(K) for polytopes, balls, half-balls.

The intensity is the product of Lebesgue measure on (0, infinity),
normalized by the volume of K, and the surface-area measure on the
boundary with the attached outer unit normal.  The total rate is
therefore surface_area(K) / volume(K) marks per unit of t.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .bodies import _check_finite_positive

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


class BoundarySampler:
    """The mark rate of a body, surface_area / volume, and the map of a
    block's boundary draws to marks (`body.boundary_place`).
    `perfbench/tracing.py` times `__init__` and `draw` by name."""

    def __init__(self, body):
        self.body = body
        self.rate = body.surface_area / body.volume

    def draw(self, fills):
        return self.body.boundary_place(fills)


def sample_PK_block(body, t_max, rngs):
    """One Poisson sample of marks with t <= t_max per generator.

    Each generator draws its count, Poisson(rate * t_max), then its
    `body.boundary_draw`, before the next one is taken from `rngs`;
    `BoundarySampler.draw` then maps the whole block.  Those draws, in the
    order each body's `boundary_draw` names them, are the stream contract
    of `sample_PK`.  The weights t are i.i.d. uniform on (0, t_max],
    independent of the boundary marks.  Returns the marks of all
    generators, concatenated in generator order, as one `PoissonSample`,
    and the (k,) mark count of each generator.  Generator i's marks are
    those `sample_PK` draws from it alone, bit for bit.
    """
    _check_finite_positive(t_max, "t_max")
    sampler = BoundarySampler(body)
    mean = sampler.rate * t_max
    fills = [body.boundary_draw(rng, rng.poisson(mean)) for rng in rngs]
    if not fills:  # no generators, no marks
        none = np.zeros((0, body.dim))
        return PoissonSample(np.zeros(0), none, none.copy()), np.zeros(0, int)
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
    order of `sample_PK_block`.  This is `sample_PK_block` over one
    generator.
    """
    return sample_PK_block(body, t_max, [np.random.default_rng(seed)])[0]
