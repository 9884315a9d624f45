import numpy as np
import pytest
from scipy.spatial import ConvexHull

from khull.bodies import Ball, HalfBall, Polytope, cross_polytope, cube
from khull.empirical import uniform_sample
from khull.poisson import (BoundarySampler, replicate_rngs, sample_PK,
                           sample_PK_block, spawn_rng)
from khull.zerocell import build_zero_cell

SQUARE = cube(2)
HEXAGON = Polytope.from_vertices(np.array(
    [[np.cos(a), np.sin(a)] for a in np.arange(6) * np.pi / 3]))
# Its hexagonal facets have four fan triangles each.
HEXAGONAL_PRISM = Polytope.from_vertices(np.array(
    [[x, y, z] for x, y in HEXAGON.vertices for z in (-1.0, 1.0)]))
HALF_BALLS = (HalfBall(1.0, dim=2),
              HalfBall(1.5, axis=np.array([1.0, -2.0, 2.0]), dim=3))


def _rate(body):
    return body.surface_area / body.volume


def test_rates():
    assert _rate(SQUARE) == pytest.approx(2.0)  # perimeter 8 / area 4
    assert _rate(Ball(1.0, 2)) == pytest.approx(2.0)
    assert _rate(Ball(1.0, 3)) == pytest.approx(3.0)
    for body, surface_area, volume in (
            (HalfBall(1.0, dim=2), 2.0 + np.pi, np.pi / 2.0),
            (HalfBall(1.0, dim=3), 3.0 * np.pi, 2.0 * np.pi / 3.0),
            (Ball(1.0, 4), 2.0 * np.pi ** 2, np.pi ** 2 / 2.0)):
        assert body.surface_area == pytest.approx(surface_area)
        assert body.volume == pytest.approx(volume)
        assert BoundarySampler(body).rate == _rate(body)


def test_marks_valid_on_all_bodies():
    for body in (SQUARE, Ball(1.0, 2), cube(3), Ball(2.0, 3)) + HALF_BALLS:
        s = sample_PK(body, 4.0, seed=0)
        d = body.dim
        assert len(s) > 0
        assert s.t.shape == (len(s),)
        assert s.eta.shape == s.u.shape == (len(s), d)
        assert np.all((0 < s.t) & (s.t <= 4.0))
        assert np.all(np.abs(np.linalg.norm(s.u, axis=1) - 1.0) <= 1e-9)
        h = np.array([body.support(u) for u in s.u])
        assert np.all(np.abs(np.sum(s.eta * s.u, axis=1) - h) <= 1e-9)
    for body in HALF_BALLS:
        s = sample_PK(body, 50.0, seed=1)
        cap = ~np.all(s.u == -body.axis, axis=1)
        assert 0 < cap.sum() < len(s)
        assert np.all(s.u[cap] @ body.axis >= 0)


def test_empty_sample_has_shaped_arrays():
    # rate 2 * t_max 1e-9: no marks at this seed.
    s = sample_PK(SQUARE, 1e-9, seed=0)
    assert len(s) == 0
    assert s.t.shape == (0,) and s.eta.shape == s.u.shape == (0, 2)


def _reference_sample(body, t_max, seed):
    """Per-mark reference sampler: one facet point at a time.

    Polytopes draw every facet index with one `choice`, then per mark one
    position on a segment (d=2), or a fan triangle by `choice` and two
    barycentric coordinates (d=3); balls normalize Gaussian rows.
    """
    rng = spawn_rng(seed)
    d = body.dim
    if isinstance(body, Ball):
        area = {2: 2 * np.pi * body.radius,
                3: 4 * np.pi * body.radius ** 2}[d]
        vol = {2: np.pi * body.radius ** 2,
               3: 4 / 3 * np.pi * body.radius ** 3}[d]
        n = rng.poisson(area / vol * t_max)
        t = t_max * (1.0 - rng.random(n))
        x = rng.standard_normal((n, d))
        u = x / np.linalg.norm(x, axis=1, keepdims=True)
        return t, body.radius * u, u
    areas, facets = [], []
    for idx, normal in zip(body.facet_vertex_sets(), body.facet_normals):
        verts = body.vertices[idx]
        if d == 3:
            center = verts.mean(axis=0)
            ref = (verts[0] - center) / np.linalg.norm(verts[0] - center)
            perp = np.cross(normal, ref)
            ang = np.arctan2((verts - center) @ perp, (verts - center) @ ref)
            verts = verts[np.argsort(ang)]
            tri = np.array([
                0.5 * np.linalg.norm(np.cross(verts[i] - verts[0],
                                              verts[i + 1] - verts[0]))
                for i in range(1, len(verts) - 1)])
            area = 0.0
            for a in tri:
                area += a
        else:
            area, tri = float(np.linalg.norm(verts[1] - verts[0])), None
        areas.append(area)
        facets.append((verts, tri))
    areas = np.array(areas)
    rate = areas.sum() / ConvexHull(body.vertices).volume
    n = rng.poisson(rate * t_max)
    t = t_max * (1.0 - rng.random(n))
    idx = rng.choice(len(areas), size=n, p=areas / areas.sum())
    eta = []
    for f in idx:
        verts, tri = facets[f]
        if tri is None:
            eta.append(verts[0] + rng.random() * (verts[1] - verts[0]))
            continue
        i = 1 + rng.choice(len(tri), p=tri / tri.sum())
        a, b = rng.random(2)
        if a + b > 1:
            a, b = 1 - a, 1 - b
        eta.append(verts[0] + a * (verts[i] - verts[0])
                   + b * (verts[i + 1] - verts[0]))
    return t, np.array(eta).reshape(n, d), body.facet_normals[idx]


@pytest.mark.parametrize("t_max", [0.5, 200.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("body", [
    SQUARE, HEXAGON, cube(3), cross_polytope(3), HEXAGONAL_PRISM,
    Ball(2.0, 2), Ball(1.0, 3)],
    ids=["square", "hexagon", "cube3", "cross3", "hexprism", "ball2",
         "ball3"])
def test_sample_stream_matches_per_mark_reference(body, seed, t_max):
    s = sample_PK(body, t_max, seed=seed)
    t, eta, u = _reference_sample(body, t_max, seed)
    assert np.array_equal(s.t, t)
    assert np.array_equal(s.eta, eta)
    assert np.array_equal(s.u, u)


@pytest.mark.parametrize("t_max", [0.3, 5.0])
@pytest.mark.parametrize("k", [1, 63, 64, 65])
@pytest.mark.parametrize("body", [
    SQUARE, HEXAGON, cube(3), cross_polytope(3), HEXAGONAL_PRISM,
    Ball(2.0, 2), Ball(1.0, 3), *HALF_BALLS],
    ids=["square", "hexagon", "cube3", "cross3", "hexprism", "ball2",
         "ball3", "halfball2", "halfball3"])
def test_block_sampler_concatenates_per_generator_samples(body, k, t_max):
    marks, counts = sample_PK_block(body, t_max, replicate_rngs(4, 0, k))
    cells = [sample_PK(body, t_max, spawn_rng(4, 0, i))
             for i in range(k)]
    assert np.array_equal(counts, [len(c) for c in cells])
    assert np.array_equal(marks.t, np.concatenate([c.t for c in cells]))
    assert np.array_equal(marks.eta, np.concatenate([c.eta for c in cells]))
    assert np.array_equal(marks.u, np.concatenate([c.u for c in cells]))
    if k > 1 and t_max < 1:
        # Generators without marks sit between those with some.
        assert 0 < np.count_nonzero(counts == 0) < k


@pytest.mark.parametrize("body", [SQUARE, Ball(1.0, 3), HALF_BALLS[1]],
                         ids=["square", "ball3", "halfball3"])
def test_block_sampler_without_generators_is_empty(body):
    """No generators give no marks: an iterator that yields none too."""
    d = body.dim
    for rngs in ([], iter([])):
        marks, counts = sample_PK_block(body, 5.0, rngs)
        assert len(marks) == 0
        assert marks.t.shape == (0,)
        assert marks.eta.shape == marks.u.shape == (0, d)
        assert counts.shape == (0,) and counts.dtype.kind == "i"


@pytest.mark.parametrize("body", [SQUARE, HEXAGON, cube(3),
                                  cross_polytope(3), HEXAGONAL_PRISM],
                         ids=["square", "hexagon", "cube3", "cross3",
                              "hexprism"])
def test_facet_pick_is_generator_choice(body):
    sampler = BoundarySampler(body)
    areas = body.facet_geometry[0]
    n = 20000
    want = spawn_rng(5).choice(len(areas), size=n, p=areas / areas.sum())
    # One segment position (d=2) or fan pick and two coordinates (d=3).
    width = 1 if body.dim == 2 else 3
    _, u = sampler.draw([(spawn_rng(5).random(n), np.full(width * n, 0.25))])
    assert np.array_equal(u, body.facet_normals[want])
    # The largest double `random` returns picks the last facet: the cdf
    # ends at 1 exactly, whatever the rounding of the area sums.
    _, u = sampler.draw([(np.array([1 - 2.0 ** -53]), np.full(width, 0.25))])
    assert np.array_equal(u, body.facet_normals[-1:])


def test_repeated_sampler_reuses_body_geometry():
    body = cube(3)
    first = body.facet_geometry
    sample_PK(body, 5.0, seed=0)
    sample_PK(body, 5.0, seed=1)
    second = body.facet_geometry
    assert all(b is a for a, b in zip(first, second))
    assert body.volume == 8.0
    assert body.surface_area == 24.0


@pytest.mark.parametrize("body", [SQUARE, cube(3), HEXAGONAL_PRISM],
                         ids=["square", "cube3", "hexprism"])
def test_facet_permuted_polytope_draws_its_own_stream(body):
    # Equal and equal-hashing, yet the facet order fixes the stream: the
    # geometry is cached per object, never shared by value.
    def permuted():
        return Polytope(body.vertices, body.facet_normals[::-1],
                        body.facet_offsets[::-1])

    warm = permuted()
    assert warm == body and hash(warm) == hash(body)
    sample_PK(body, 5.0, seed=0)
    s = sample_PK(warm, 5.0, seed=0)
    fresh = sample_PK(permuted(), 5.0, seed=0)
    t, eta, u = _reference_sample(permuted(), 5.0, 0)
    for got in (s, fresh):
        assert np.array_equal(got.t, t)
        assert np.array_equal(got.eta, eta)
        assert np.array_equal(got.u, u)
    assert not np.array_equal(sample_PK(body, 5.0, seed=0).u, u)


def test_count_statistics():
    # Empirical mean count over many draws within 3 sigma of the rate.
    rng = spawn_rng(1)
    draws = 10000
    counts = [len(sample_PK(SQUARE, 1.0, rng)) for _ in range(draws)]
    rate = 2.0
    sigma = np.sqrt(rate / draws)
    assert abs(np.mean(counts) - rate) < 3 * sigma


def test_square_facet_proportions():
    # Each of the four normals appears with frequency 1/4 +- 0.01.
    rng = spawn_rng(2)
    s = sample_PK(SQUARE, 50000.0, rng)
    assert len(s) > 90000
    for normal in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        freq = np.mean(np.all(np.isclose(s.u, normal), axis=1))
        assert abs(freq - 0.25) < 0.01


def test_half_ball_part_proportions():
    rng = spawn_rng(3)
    body = HalfBall(1.0, dim=2)
    s = sample_PK(body, 10000.0, rng)
    flat = np.mean(np.all(np.isclose(s.u, [-1.0, 0.0]), axis=1))
    assert flat == pytest.approx(2.0 / (2.0 + np.pi), abs=0.01)


def test_one_dimensional_half_ball_is_rejected():
    with pytest.raises(ValueError):
        sample_PK(HalfBall(1.0, axis=np.array([1.0]), dim=1), 1.0, seed=0)


def test_ball_marks_have_u_equal_eta_over_r():
    s = sample_PK(Ball(2.0, 2), 5.0, seed=4)
    assert np.allclose(s.eta, 2.0 * s.u, atol=1e-12)


def test_reproducibility():
    a = sample_PK(SQUARE, 5.0, seed=7)
    b = sample_PK(SQUARE, 5.0, seed=7)
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.u, b.u)


# Each draw function's values at a seed, as one float array.
DRAWS = {
    "uniform_sample": lambda seed: uniform_sample(HEXAGON, 50, seed),
    "sample_PK": lambda seed: np.concatenate(
        [a.ravel() for a in vars(sample_PK(HEXAGON, 5.0, seed)).values()]),
    "build_zero_cell": lambda seed: build_zero_cell(HEXAGON, 2.0,
                                                    seed).normals,
}


@pytest.mark.parametrize("seed", [0, 7, 2**40, 12345678901234567890])
@pytest.mark.parametrize("name", list(DRAWS))
def test_seed_is_an_int_or_a_generator(name, seed):
    # An int seed draws the bytes of spawn_rng(seed); a Generator is used
    # as it is, so a second call continues its stream.
    draw = DRAWS[name]
    want = draw(seed)
    assert len(want)
    rng = spawn_rng(seed)
    assert draw(rng).tobytes() == want.tobytes()
    assert not np.array_equal(draw(rng), want)


def test_spawned_streams_differ():
    r1 = spawn_rng(0, 0, 1)
    r2 = spawn_rng(0, 0, 2)
    assert r1.random() != r2.random()


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**130])
@pytest.mark.parametrize("stream", [0, 1, 2**33])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_replicate_rngs_match_spawn_rng(seed, stream, count):
    seen = 0
    for i, rng in enumerate(replicate_rngs(seed, stream, count)):
        ref = spawn_rng(seed, stream, i)
        assert np.array_equal(rng.random(5), ref.random(5))
        assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
        # This keeps the other half of a 64-bit word for the next uint32
        # draw; reseeding for the next replicate must drop it.
        assert (rng.integers(0, 2**32, dtype=np.uint32)
                == ref.integers(0, 2**32, dtype=np.uint32))
        assert rng.poisson(200.0) == ref.poisson(200.0)
        seen += 1
    assert seen == count


def test_replicate_rngs_reject_negative_seed_as_spawn_rng_does():
    with pytest.raises(ValueError) as want:
        spawn_rng(-1, 0, 0)
    with pytest.raises(ValueError) as got:
        replicate_rngs(-1, 0, 3)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("t_max", [0.0, -1.0, np.nan, np.inf])
def test_t_max_validation(t_max):
    with pytest.raises(ValueError,
                       match="^t_max must be finite and positive, got "):
        sample_PK(SQUARE, t_max, seed=0)


def test_times_uniform():
    s = sample_PK(SQUARE, 10.0, seed=9)
    # crude uniformity check on (0, 10]
    assert 0 < s.t.min() and s.t.max() <= 10.0
