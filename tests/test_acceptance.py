"""Acceptance suite: one test per primary criterion, one verdict line each.

Criterion 1 tests the rotation endpoints of the square's limit cell against
the law the mark process gives, Exp(1/2) with mean two: the four facets pool
to a unit-intensity (t, z) process on (0, inf) x [-1, 1], so
P(zeta+ > s) = exp(-s/2).  It is the same rate as the translation-box law of
criterion 3, and criterion 2 checks it against the finite-n pipeline.  See
the README section on the rotation-endpoint law.
"""

import numpy as np
import pytest

from khull.bodies import Ball, HalfSpace, Polytope, cube, polar
from khull.empirical import (dual_cone_intensity_experiment,
                             so2_square_experiment,
                             translation_box_experiment)
from khull.hulls import (hull_full_affine, hull_linear_ball,
                         k_hull_translations, positive_hull,
                         spherical_hull_halfball)
from khull.zerocell import (build_zero_cell, cone_preset, flatten_pair,
                            halfspaces_from_marks, is_bounded, membership,
                            recession_cone_TK, reflected_recession_in_cone,
                            restrict_to_cone)

SQUARE = cube(2)


def verdict(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


@pytest.fixture(scope="module")
def so2_report():
    return so2_square_experiment(n=2000, replicates=2000,
                                 limit_replicates=10000, seed=42)


def test_criterion_1_exp1_endpoint_law(so2_report):
    s = so2_report.statistics
    ok = (s["ks_limit_plus_vs_exp_half"] < 0.02
          and s["ks_limit_minus_vs_exp_half"] < 0.02
          and abs(s["endpoint_rank_correlation"]) < 0.03)
    print(f"  ks+ vs Exp(1/2) = {s['ks_limit_plus_vs_exp_half']:.4f}, "
          f"ks- vs Exp(1/2) = {s['ks_limit_minus_vs_exp_half']:.4f}, "
          f"|rho| = {abs(s['endpoint_rank_correlation']):.4f}; "
          f"endpoint means = {s['limit_mean_plus']:.3f} / "
          f"{s['limit_mean_minus']:.3f} (law mean 2)")
    verdict("criterion 1: limit endpoints follow Exp(1/2), independent", ok)


def test_criterion_2_finite_n_convergence(so2_report):
    s = so2_report.statistics
    ok = (s["ks_two_sample_plus"] < 0.05 and s["ks_two_sample_minus"] < 0.05)
    print(f"  two-sample ks (n=2000 vs limit): + {s['ks_two_sample_plus']:.4f},"
          f" - {s['ks_two_sample_minus']:.4f}")
    verdict("criterion 2: finite-n rotation extents match the limit law", ok)


def test_criterion_3_translation_box_law():
    rep = translation_box_experiment(n=5000, replicates=10000, seed=7)
    s = rep.statistics
    ok = (max(s["ks_limit_vs_exp_half"]) < 0.02
          and s["max_abs_correlation"] < 0.03)
    print(f"  max ks vs Exp(1/2) = {max(s['ks_limit_vs_exp_half']):.4f}, "
          f"max |rho| = {s['max_abs_correlation']:.4f}")
    verdict("criterion 3: translation-box extents are Exp(1/2), independent",
            ok)


def test_criterion_4_scalings_identity():
    mismatches = 0
    total = 0
    for rep in range(20):
        system = build_zero_cell(SQUARE, 4.0, seed=1000 + rep)
        t, u = system.sample.t, system.sample.u
        restricted = restrict_to_cone(system, cone_preset("scalings", 2))
        rng = np.random.default_rng(rep)
        for _ in range(100):
            x = 2.0 * rng.standard_normal(2)
            r = 2.0 * rng.random()
            coords = np.array([x[0], x[1], r * np.sqrt(2)])
            feasible = bool(restricted.contains(coords[None])[0])
            hk = np.abs(u).sum(axis=1)
            covered = bool(np.all(r * hk + u @ x <= t + 1e-9))
            total += 1
            mismatches += feasible != covered
    print(f"  {mismatches} mismatches in {total} cases")
    verdict("criterion 4: scalings feasibility equals rK+x coverage, exactly",
            mismatches == 0)


def test_criterion_5_hull_oracle_suite():
    from test_hulls import _boundary_points, gift_wrap

    rng = np.random.default_rng(5)
    from khull.bodies import support_function

    ok = True
    # hull_linear_ball equals conv(A u -A) on 50 random inputs.
    for _ in range(50):
        a = 0.6 * rng.standard_normal((6, 2))
        if hull_linear_ball(a).body != Polytope.from_vertices(
                np.vstack([a, -a])):
            ok = False
    # hull_full_affine equals the independent gift-wrapping hull.
    for _ in range(50):
        a = 2 * rng.random((15, 2)) - 1
        if hull_full_affine(a).body != Polytope.from_vertices(gift_wrap(a)):
            ok = False
    # positive_hull and spherical hull match angular brute force.
    for _ in range(50):
        a = rng.standard_normal((5, 2))
        a[:, 0] = np.abs(a[:, 0]) + 0.01
        ang = np.arctan2(a[:, 1], a[:, 0])
        cone = positive_hull(a).body
        q = rng.standard_normal((50, 2))
        qa = np.arctan2(q[:, 1], q[:, 0])
        want = (qa >= ang.min() - 1e-12) & (qa <= ang.max() + 1e-12)
        if not np.array_equal(cone.contains(q), want):
            ok = False
        scaled = 0.9 * a / np.linalg.norm(a, axis=1, keepdims=True)
        upper = np.abs(scaled)  # push into the upper half-ball
        hull = spherical_hull_halfball(upper).body
        ua = np.arctan2(upper[:, 1], upper[:, 0])
        lo2, hi2 = hull.arc()
        if not (abs(lo2 - ua.min()) < 1e-9 and abs(hi2 - ua.max()) < 1e-9):
            ok = False
    # k-hull idempotency within 1e-6 facet drift, plus the sandwich.
    for _ in range(20):
        a = 1.6 * rng.random((6, 2)) - 0.8
        res = k_hull_translations(SQUARE, a)
        body = res.body
        conv = hull_full_affine(a).body
        if isinstance(body, Polytope):
            if not (body.contains(a).all()
                    and body.contains(conv.vertices).all()
                    and SQUARE.contains(body.vertices).all()):
                ok = False
            if body.is_full_dimensional:
                again = k_hull_translations(SQUARE,
                                            _boundary_points(body, 200)).body
                for u, h in zip(body.facet_normals, body.facet_offsets):
                    if abs(support_function(again, u) - h) > 1e-6:
                        ok = False
    verdict("criterion 5: hull closed forms agree with independent oracles",
            ok)


def test_criterion_6_recession_cone_checks():
    ok = True
    # Diagonal example: -T_K restricted to diagonal matrices is the
    # nonpositive orthant, exactly.
    for d in (2, 3):
        cone = cone_preset("diagonal", d)
        rows = reflected_recession_in_cone(Ball(1.0, d), cone)
        if not np.allclose(rows[np.lexsort(rows.T)], np.eye(d), atol=1e-9):
            ok = False
        rec = recession_cone_TK(Ball(1.0, d))
        rng = np.random.default_rng(d)
        for _ in range(100):
            mu = rng.standard_normal(d)
            if rec.contains_reflected(cone.embed(mu)) != bool(
                    np.all(mu <= 1e-12)):
                ok = False
    # Boundedness catalogue.
    if is_bounded(Ball(1.0, 2), cone_preset("full", 2))[0]:
        ok = False
    if not is_bounded(Ball(1.0, 2), cone_preset("symmetric-traceless", 2))[0]:
        ok = False
    # (0, mu I), mu <= 0 always feasible in simulated cells.
    for seed in range(10):
        s = build_zero_cell(SQUARE, 3.0, seed=seed)
        for mu in (-2.0, -0.5, 0.0):
            if not membership(s, flatten_pair(np.zeros(2), mu * np.eye(2))):
                ok = False
    verdict("criterion 6: recession cones and boundedness catalogue", ok)


def test_criterion_7_geometry_identities():
    ok = True
    rng = np.random.default_rng(7)
    # Polar identity: the segment [0, u/t] dualizes to offset t, normal u.
    for _ in range(100):
        t = 0.1 + 9.9 * rng.random()
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        seg = Polytope.from_vertices(np.array([np.zeros(2), u / t]))
        h = polar(seg)
        if not (isinstance(h, HalfSpace)
                and np.allclose(h.normal, u, atol=1e-9)
                and abs(h.offset - t) < 1e-9):
            ok = False
    # Flattening identity to 1e-12 on 1000 random tuples.
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
        if abs(lhs - rhs) > 1e-12:
            ok = False
    verdict("criterion 7: polar and flattening identities", ok)


def test_criterion_8_dual_cone_intensity_exponent():
    ok = True
    slopes = {}
    for d in (2, 3):
        rep = dual_cone_intensity_experiment(d=d, target_points=100000,
                                             seed=8)
        slopes[d] = rep.statistics["slope"]
        if abs(slopes[d] + d) > 0.1:
            ok = False
    print(f"  slopes: d=2 -> {slopes[2]:.3f}, d=3 -> {slopes[3]:.3f}")
    verdict("criterion 8: dual-cone radial intensity exponent is -d", ok)
