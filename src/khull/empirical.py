"""Finite-sample feasible sets, directional extents, and limit experiments.

For a uniform sample of n points from K, the feasible set consists of the
pairs (x, C) with exp(C)(K + x) covering the sample; scaled by n it
converges to the reflected zero cell.  This module measures directional
extents of the scaled sets and runs the distributional experiments
comparing them with the limit-cell simulator and with closed-form laws.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from .bodies import (GEO_TOL, Ball, _ball_surface_area, _ball_volume, cube,
                     row_norms)
from .matexp import matrix_exponential
from .poisson import replicate_rngs, sample_PK_block, spawn_rng
from .zerocell import cone_projection, halfspaces_from_marks, window_horizon

__all__ = [
    "ExperimentReport",
    "dual_cone_intensity_experiment",
    "inclusion_functional_estimate",
    "ks_statistic",
    "so2_square_experiment",
    "translation_box_experiment",
    "uniform_sample",
    "xn_membership",
]

# Clipping bound of the rotation and translation extents, read when an
# experiment runs; written to its report config as "s_max".
S_MAX = 50.0
# Weight horizon of the simulated limit extents: an extent found below it
# is the one of the untruncated process.
T_HORIZON = 100.0
# Largest radius of the dual-cone points that enter the regression.
DUAL_R_MAX = 1.0
# Replicates whose geometry runs in one pass: the limit cells of the
# inclusion experiment and both sides of the so2-square experiment.
REPLICATE_BLOCK = 64


# -- sampling -------------------------------------------------------------------

def uniform_sample(body, n, seed=None):
    """n independent uniform points from the body, as an (n, d) array.

    The points are drawn from ``np.random.default_rng(seed)``: an int
    seed gives the stream of `spawn_rng(seed)`, a Generator is used and
    advanced as it is.  n must be a non-negative integer, a numpy one
    included; anything else raises a ValueError.

    The sample is `body.uniform_place` of `body.uniform_draw`: the
    generator calls, which fix it, then a map into the body.
    """
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    n = int(n)
    if n == 0:
        return np.zeros((0, body.dim))
    rng = np.random.default_rng(seed)
    return body.uniform_place(n, body.uniform_draw(rng, n))


# -- scaled feasible-set membership ----------------------------------------------

def _xn_map(point, n, d):
    """The map xi -> exp(-C/n) xi - x/n of the flat (x, C), as
    (exp(-C/n), x/n)."""
    v = np.asarray(point, dtype=float)
    x, c = v[:d], v[d:].reshape(d, d)
    n = float(n)
    return matrix_exponential(-c / n), x / n


def xn_membership(point, batch, n, body):
    """Is the flat (x, C) in n times the feasible set of the batch?

    True iff exp(-C/n) xi - x/n lies in the body for every sample point.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    maps = [_xn_map(point, n, body.dim)]
    return _MapsKeepSample(body, maps, len(batch)).exact(batch)


class _MapsKeepSample:
    """The predicate "do all maps (g, s) keep the sample in the body?" on
    the `uniform_draw` of an n-point sample, n >= 1: is g a - s in the body
    for every map and every point a that `uniform_place` makes of the draw?

    Built once per set of maps.  A call first runs the body's
    `keep_screen` on the draw, if any; only when that does not pass is the
    sample placed and the exact test run: every point moved by every map
    in one product, then `body.contains`.  A screen pass implies an exact
    pass (`bodies._ROUNDING`), so the verdicts are the exact test's.
    """

    def __init__(self, body, maps, n):
        self.body, self.n, self.dim = body, n, body.dim
        self.g_all = np.hstack([g.T for g, _ in maps])
        self.s_all = np.concatenate([s for _, s in maps])
        self.screen = body.keep_screen(maps, n) or (lambda raw: False)

    def exact(self, pts):
        moved = (pts @ self.g_all - self.s_all).reshape(-1, self.dim)
        return bool(np.all(self.body.contains(moved)))

    def __call__(self, raw):
        return self.screen(raw) or self.exact(self.body.uniform_place(self.n,
                                                                      raw))


# -- statistics -----------------------------------------------------------------

def ks_statistic(samples, cdf):
    """One-sample Kolmogorov-Smirnov distance and asymptotic p-value."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    res = scipy.stats.kstest(samples, cdf)
    return float(res.statistic), float(res.pvalue)


def _config_hash(config):
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ExperimentReport:
    name: str
    config: dict
    seed: object
    statistics: dict
    samples: dict = field(default_factory=dict)
    runtime: float = 0.0
    config_hash: str = field(init=False)

    def __post_init__(self):
        self.config_hash = _config_hash(
            {"name": self.name, "seed": self.seed, **self.config})

    def to_json(self):
        return {
            "name": self.name,
            "config": self.config,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "runtime_seconds": self.runtime,
            "statistics": self.statistics,
        }


# -- rotation (skew direction) experiment for the square --------------------------

def _segment_min(values, counts):
    """Minimum of each run of counts[i] consecutive values; inf if empty."""
    counts = np.asarray(counts)
    out = np.full(len(counts), math.inf)
    full = counts > 0
    if full.any():
        # Empty runs add nothing between the starts of the others.
        starts = np.cumsum(counts) - counts
        out[full] = np.minimum.reduceat(values, starts[full])
    return out


def _limit_rotation_endpoints(replicates, seed, t_horizon=T_HORIZON):
    """The rotation-extent endpoints of each replicate's limit cell.

    The skew restriction of a square mark (t, eta, u) is the scalar
    constraint c * (u1*eta2 - u2*eta1) <= t on the rotation angle c.  The
    coefficient over the four facets is uniform on [-1, 1] and the
    combined (t, z) process has unit intensity on (0, inf) x [-1, 1].
    The positive endpoint is min t/z over z > 0; any minimum <= t_horizon
    is the true infinite-process value.

    Each endpoint is therefore Exp(1/2), mean two: P(zeta+ > s) is the
    probability of no mark with t < s*z, z > 0, which is
    exp(-int_0^1 s*z dz) = exp(-s/2) (each facet carries intensity
    dt*dy/V(K) = dt*dy/4 on (0, inf) x [-1, 1], and the four pool to
    dt*dz).  The two endpoints use disjoint halves of the process, so they
    are independent.  The negative endpoint min t/(-z) over z < 0 is read
    as min -t/z: negation is exact, so the values are the same.  A mark
    with z == 0 exactly (chance 2**-53) divides by zero; neither side
    reads its quotient.  A side without marks is inf.

    Replicate i draws (count, t, z) from stream 0's generator i, in
    order; the quotients of `REPLICATE_BLOCK` replicates are formed in
    one pass and reduced per replicate.  Returns the (plus, minus) arrays.
    """
    rngs = replicate_rngs(seed, 0, replicates)
    plus, minus = np.empty(replicates), np.empty(replicates)
    for start in range(0, replicates, REPLICATE_BLOCK):
        stop = min(start + REPLICATE_BLOCK, replicates)
        counts, ut, uz = [], [], []
        for rng in itertools.islice(rngs, stop - start):
            count = rng.poisson(2.0 * t_horizon)
            counts.append(count)
            ut.append(rng.random(count))
            uz.append(rng.random(count))
        t = t_horizon * (1.0 - np.concatenate(ut))
        z = 2.0 * np.concatenate(uz) - 1.0
        q = t / z
        plus[start:stop] = _segment_min(np.where(z > 0, q, math.inf), counts)
        minus[start:stop] = _segment_min(np.where(z < 0, -q, math.inf),
                                         counts)
    return plus, minus


def _finite_rotation_extents(square, n, replicates, seed):
    """Scaled maximal rotation angles keeping each sample in the square.

    A point at radius rho > 1 and angle phi stays in [-1,1]^2 under
    rotation by theta iff (phi + theta) mod (pi/2) lies in
    [beta, pi/2 - beta] with beta = arccos(1/rho); points with rho <= 1
    are unconstrained, and a sample without such a point gives inf.
    Exact.  Replicate i samples n points of `square` with stream 1's
    generator i; the samples of `REPLICATE_BLOCK` replicates are stacked
    coordinate-major and the angles reduced per replicate.  Returns the
    (plus, minus) arrays.
    """
    rngs = replicate_rngs(seed, 1, replicates)
    plus, minus = np.empty(replicates), np.empty(replicates)
    for start in range(0, replicates, REPLICATE_BLOCK):
        stop = min(start + REPLICATE_BLOCK, replicates)
        pts = np.empty((2, (stop - start) * n))
        for i, rng in enumerate(itertools.islice(rngs, stop - start)):
            pts[:, i * n:(i + 1) * n] = uniform_sample(square, n, rng).T
        rho = row_norms(pts.T)
        mask = rho > 1.0
        counts = np.count_nonzero(mask.reshape(stop - start, n), axis=1)
        rho = rho[mask]
        phi = np.arctan2(pts[1, mask], pts[0, mask])
        beta = np.arccos(1.0 / rho)
        r0 = np.mod(phi, math.pi / 2)
        # Guard rounding: r0 must lie within the feasible arc.
        r0 = np.clip(r0, beta, math.pi / 2 - beta)
        # Scaling by n > 0 is monotone, so it commutes with the minimum.
        plus[start:stop] = _segment_min(n * (math.pi / 2 - beta - r0),
                                        counts)
        minus[start:stop] = _segment_min(n * (r0 - beta), counts)
    return plus, minus


def so2_square_experiment(n, replicates, limit_replicates, seed):
    """Rotation-extent experiment: limit cell versus finite samples.

    Part (a) draws the limit-cell endpoint pair (zeta-, zeta+) per
    replicate and tests each endpoint against the derived law Exp(1/2)
    (mean two, ``stats.expon(scale=2.0)``; see _limit_rotation_endpoints)
    and the pair for independence.  Part (b) draws the scaled maximal
    rotation angles of n uniform points in the square.  The two pipelines
    are compared by a two-sample KS test.  Both sides are clipped at
    `S_MAX`.
    """
    t0 = time.perf_counter()
    zp, zm = (np.minimum(z, S_MAX) for z in
              _limit_rotation_endpoints(limit_replicates, seed))
    fp, fm = (np.minimum(f, S_MAX) for f in
              _finite_rotation_extents(cube(2), n, replicates, seed))

    exp_half = scipy.stats.expon(scale=2.0).cdf
    ks_plus, p_plus = ks_statistic(zp, exp_half)
    ks_minus, p_minus = ks_statistic(zm, exp_half)
    fitted_mean = float(np.mean(np.concatenate([zp, zm])))
    ks_fitted, _ = ks_statistic(zp, scipy.stats.expon(scale=fitted_mean).cdf)
    rho_spearman = float(scipy.stats.spearmanr(zp, zm).statistic)
    two_plus = float(scipy.stats.ks_2samp(zp, fp).statistic)
    two_minus = float(scipy.stats.ks_2samp(zm, fm).statistic)

    report = ExperimentReport(
        name="so2-square",
        config={"n": n, "replicates": replicates,
                "limit_replicates": limit_replicates, "s_max": S_MAX},
        seed=seed,
        statistics={
            "limit_mean_plus": float(np.mean(zp)),
            "limit_mean_minus": float(np.mean(zm)),
            "finite_mean_plus": float(np.mean(fp)),
            "finite_mean_minus": float(np.mean(fm)),
            "ks_limit_plus_vs_exp_half": ks_plus,
            "ks_limit_minus_vs_exp_half": ks_minus,
            "p_limit_plus_vs_exp_half": p_plus,
            "p_limit_minus_vs_exp_half": p_minus,
            "fitted_exponential_mean": fitted_mean,
            "ks_limit_plus_vs_fitted_exponential": ks_fitted,
            "endpoint_rank_correlation": rho_spearman,
            "ks_two_sample_plus": two_plus,
            "ks_two_sample_minus": two_minus,
        },
        samples={"limit_plus": zp, "limit_minus": zm,
                 "finite_plus": fp, "finite_minus": fm},
    )
    report.runtime = time.perf_counter() - t0
    return report


# -- translation experiment for the square ---------------------------------------

def translation_box_experiment(n, replicates, seed):
    """Translation-only limit cell of the square: a box of Exp(1/2) extents.

    The limit extents along +-e1, +-e2 are the minima of four independent
    rate-1/2 Poisson arrival streams, one per facet normal, drawn directly.
    Finite-n: the scaled feasible translations n(K - max/min of the sample
    coordinates).  Both sides are clipped at `S_MAX`.
    """
    t0 = time.perf_counter()
    body = cube(2)
    extents = np.zeros((replicates, 4))
    for i, rng in enumerate(replicate_rngs(seed, 0, replicates)):
        # Minimum of a rate-1/2 stream per facet is Exp(1/2) exactly.
        extents[i] = rng.exponential(2.0, size=4)
    extents = np.minimum(extents, S_MAX)

    hi = np.zeros((replicates, 2))
    lo = np.zeros((replicates, 2))
    for i, rng in enumerate(replicate_rngs(seed, 1, replicates)):
        # The sample's columns are contiguous: axis-0 reductions are fast.
        pts = uniform_sample(body, n, rng)
        hi[i] = pts.max(axis=0)
        lo[i] = pts.min(axis=0)
    finite = np.minimum(n * np.column_stack([1 - hi[:, 0], 1 + lo[:, 0],
                                             1 - hi[:, 1], 1 + lo[:, 1]]),
                        S_MAX)

    exp_half = scipy.stats.expon(scale=2.0).cdf
    ks = [ks_statistic(extents[:, j], exp_half)[0] for j in range(4)]
    corr = []
    for a in range(4):
        for b in range(a + 1, 4):
            corr.append(float(scipy.stats.spearmanr(
                extents[:, a], extents[:, b]).statistic))
    two = [float(scipy.stats.ks_2samp(extents[:, j], finite[:, j]).statistic)
           for j in range(4)]
    ks_finite = [ks_statistic(finite[:, j], exp_half)[0] for j in range(4)]

    report = ExperimentReport(
        name="translation-box",
        config={"n": n, "replicates": replicates, "s_max": S_MAX},
        seed=seed,
        statistics={
            "ks_limit_vs_exp_half": ks,
            "ks_finite_vs_exp_half": ks_finite,
            "ks_two_sample": two,
            "pairwise_rank_correlations": corr,
            "max_abs_correlation": float(np.max(np.abs(corr))),
        },
        samples={"limit_extents": extents, "finite_extents": finite},
    )
    report.runtime = time.perf_counter() - t0
    return report


# -- inclusion functional ---------------------------------------------------------

def inclusion_functional_estimate(body, cone, test_points, n, replicates,
                                  seed):
    """Empirical inclusion probabilities Prob{L in X} on both pipelines.

    test_points are cone-subspace coordinate vectors.  The finite-n side
    checks membership of every test point in the reflected scaled
    feasible set (the limit of n X_n is the reflected cell); the limit
    side checks them in the restricted simulated cell.
    """
    t0 = time.perf_counter()
    test_points = np.atleast_2d(np.asarray(test_points, dtype=float))
    window_radius = _window_radius(cone, test_points)

    limit_hits = _limit_cell_hits(body, cone, test_points, window_radius,
                                  replicates, seed)

    # n X_n converges to the reflected cell: test the negated points.  Their
    # maps do not depend on the sample, so the test is built once; a
    # replicate's sample is placed only if the screen of its draw misses.
    maps = [_xn_map(-cone.embed(c), n, body.dim) for c in test_points]
    keeps = _MapsKeepSample(body, maps, n)
    finite_hits = 0
    for rng in replicate_rngs(seed, 1, replicates):
        finite_hits += keeps(body.uniform_draw(rng, n))

    report = ExperimentReport(
        name="inclusion",
        config={"n": n, "replicates": replicates,
                "cone": cone.name, "points": test_points.tolist(),
                "window_radius": window_radius},
        seed=seed,
        statistics={
            "limit_frequency": limit_hits / replicates,
            "finite_frequency": finite_hits / replicates,
            "difference": abs(limit_hits - finite_hits) / replicates,
        },
    )
    report.runtime = time.perf_counter() - t0
    return report


def _window_radius(cone, test_points):
    """Radius of the window the limit cells are drawn in: one more than
    the largest norm of an embedded test point."""
    return float(max(np.linalg.norm(cone.embed(c)) for c in test_points)) + 1.0


def _limit_cell_hits(body, cone, test_points, window_radius, replicates,
                     seed):
    """How many limit cells, restricted to the cone, hold every test point.

    Replicate i's cell is the one `build_zero_cell` draws from its
    generator.  The marks of `REPLICATE_BLOCK` replicates come from one
    `sample_PK_block` call; their constraints are restricted by
    `cone_projection` and compared with the test points in one product.
    A cell is a hit unless one of its kept rows cuts a test point, so a
    cell without kept rows is a hit.
    """
    t_max = window_horizon(body, window_radius)
    rngs = replicate_rngs(seed, 0, replicates)
    hits = 0
    for start in range(0, replicates, REPLICATE_BLOCK):
        size = min(REPLICATE_BLOCK, replicates - start)
        marks, counts = sample_PK_block(body, t_max,
                                        itertools.islice(rngs, size))
        normals, offsets = halfspaces_from_marks(marks.t, marks.eta, marks.u)
        proj, keep = cone_projection(normals, cone)
        holds = np.all(test_points @ proj.T <= offsets + GEO_TOL, axis=0)
        owner = np.repeat(np.arange(size), counts)
        cuts = np.bincount(owner[keep & ~holds], minlength=size)
        hits += size - int(np.count_nonzero(cuts))
    return hits


# -- dual-cone intensity experiment ------------------------------------------------

def dual_cone_intensity_experiment(d, target_points, seed):
    """Radial-intensity exponent of the scaled dual-cone point process.

    Flat-part marks (t, y, -axis) of the unit half-ball are mapped to
    points p = y / t in R^(d-1); their intensity is proportional to
    |p|^(-d).  The exponent is estimated by weighted log-log regression
    of shell densities; the proportionality constant is not checked.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    t0 = time.perf_counter()
    rng = spawn_rng(seed)
    # Flat-disk area over half-ball volume.
    flat_rate = _ball_volume(1.0, d - 1) / (_ball_volume(1.0, d) / 2.0)

    # Points with |p| >= a all come from marks with t <= 1/a.
    mass_above = _dual_tail_mass(d)
    a = mass_above / target_points
    t_horizon = 1.0 / a
    count = rng.poisson(flat_rate * t_horizon)
    t = t_horizon * (1.0 - rng.random(count))
    if d == 2:
        y = (2.0 * rng.random(count) - 1.0)[:, None]
    else:
        y = uniform_sample(Ball(1.0, d - 1), count, rng)
    p = y / t[:, None]
    r = np.linalg.norm(p, axis=1)
    keep = (r >= a) & (r <= DUAL_R_MAX)
    r = r[keep]

    edges = np.geomspace(a, DUAL_R_MAX, 40)
    counts, _ = np.histogram(r, bins=edges)
    mids = np.sqrt(edges[:-1] * edges[1:])
    shell = _shell_volume(edges, d - 1)
    good = counts > 20
    if np.count_nonzero(good) < 2:
        raise ValueError(
            f"target_points (--n) = {target_points} is too small: fewer "
            f"than two radial shells hold more than 20 points")
    x = np.log(mids[good])
    yv = np.log(counts[good] / shell[good])
    w = counts[good].astype(float)  # Poisson counts: weight by counts
    slope, intercept = np.polyfit(x, yv, 1, w=np.sqrt(w))

    report = ExperimentReport(
        name="dual-cone-intensity",
        config={"d": d, "target_points": target_points,
                "r_max": DUAL_R_MAX},
        seed=seed,
        statistics={
            "slope": float(slope),
            "expected_slope": float(-d),
            "points_used": int(np.sum(counts)),
        },
        samples={"radii": r},
    )
    report.runtime = time.perf_counter() - t0
    return report


def _dual_tail_mass(d):
    """a * (expected number of dual points with |p| >= a), a constant."""
    sigma = _ball_surface_area(1.0, d - 1)  # 2.0 for the 0-sphere
    return 2.0 * sigma / (_ball_volume(1.0, d) * d)


def _shell_volume(edges, k):
    """Volumes of spherical shells in R^k between consecutive radii."""
    return np.diff(_ball_volume(edges, k))
