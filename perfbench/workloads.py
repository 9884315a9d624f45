"""The operations of each workload and the checks on their outputs.

An operation's `run` is the program's work: a `khull` CLI call made
in-process through `khull.cli.main`, or a library call.  Its `check`
verifies the output without calling the code under test where it can, and
returns the operation's deterministic payload, whose sha256 is recorded so
that runs of the same code can be compared.  Experiment reports are hashed
without `runtime_seconds`: that field differs between identical runs, so
the reports are not byte-identical as the README promises.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import nnls

from inputs import CONES_3D, INCLUSION_CASES

TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output is wrong."""


class GateFailed(Exception):
    """A statistical `--check` gate failed (exit 3) on a well-formed report.

    Gates compare Monte Carlo statistics with fixed thresholds, so they
    fail by chance at a small rate; such an operation counts as failed
    without marking the program's outputs incorrect.
    """


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bytes]


def load_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- checks shared by several operations --------------------------------------

def experiment_check(path, name, seed, config, extra=None):
    """Check an experiment report; hash it without runtime_seconds."""

    def check(rc):
        doc = load_json(path)
        expect(doc["name"] == name and doc["seed"] == seed,
               f"report names {doc['name']!r} seed {doc['seed']!r}")
        for key, value in config.items():
            expect(doc["config"][key] == value,
                   f"config {key}={doc['config'][key]!r}, want {value!r}")
        values = np.hstack([np.ravel(v) for v in
                            doc["statistics"].values()]).astype(float)
        expect(np.all(np.isfinite(values)), "non-finite statistic")
        if extra is not None:
            extra(doc)
        if rc == 3:
            raise GateFailed("statistical gate failed (exit 3)")
        expect(rc == 0, f"exit code {rc}")
        del doc["runtime_seconds"]
        return json.dumps(doc, sort_keys=True).encode()

    return check


def support(body, u):
    """h_K(u) of a body JSON document, row-wise."""
    if body["kind"] == "polytope":
        return np.max(u @ np.asarray(body["vertices"]).T, axis=1)
    r = body["radius"]
    norm = np.linalg.norm(u, axis=1)
    if body["kind"] == "ball":
        return r * norm
    a = np.asarray(body["axis"], dtype=float)
    ua = u @ a
    flat = np.linalg.norm(u - ua[:, None] * a, axis=1)
    return r * np.where(ua >= 0, norm, flat)


def check_marks(body, t, eta, u, t_max):
    expect(len(t) > 0, "no marks")
    expect(np.all((t > 0) & (t <= t_max)), "mark weight outside (0, t_max]")
    expect(np.allclose(np.linalg.norm(u, axis=1), 1.0, rtol=0, atol=TOL),
           "mark normal is not a unit vector")
    expect(np.allclose(np.sum(eta * u, axis=1), support(body, u), rtol=0,
                       atol=TOL), "<eta, u> differs from h_K(u)")


def facets(doc):
    return (np.array([f["normal"] for f in doc["facets"]]),
            np.array([f["offset"] for f in doc["facets"]]))


def check_polytope_hull(vertices, normals, offsets, sample, body=None,
                        vertex_pool=None):
    """conv(sample) in the hull, the hull in the body, vertices from pool."""
    expect(np.all(sample @ normals.T <= offsets + TOL),
           "a sample point lies outside the hull")
    if body is not None:
        bn, bh = facets(body)
        expect(np.all(vertices @ bn.T <= bh + TOL),
               "a hull vertex lies outside the body")
    if vertex_pool is not None:
        gap = np.min(np.linalg.norm(vertices[:, None] - vertex_pool[None],
                                    axis=2), axis=1)
        expect(np.all(gap <= TOL), "a hull vertex is not an input point")


def check_cone(generators, sample):
    """pos(sample) = pos(generators), generators are sample directions."""
    dirs = sample / np.linalg.norm(sample, axis=1, keepdims=True)
    gap = np.min(np.linalg.norm(generators[:, None] - dirs[None], axis=2),
                 axis=1)
    expect(np.all(gap <= TOL), "a cone generator is not a sample direction")
    residual = max(nnls(generators.T, d)[1] for d in dirs)
    expect(residual <= 1e-7, "a sample direction lies outside the cone")


def polytope_payload(poly):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in
                    (poly.vertices, poly.facet_normals, poly.facet_offsets))


# -- workloads ----------------------------------------------------------------

def limit_laws(khull, inputs, out):
    """The README's headline verification runs, at README sizes."""
    seed = load_json(os.path.join(inputs, "manifest.json"))["seed"]
    cli = khull.cli
    ops = []

    def experiment(label, argv, name, config):
        path = os.path.join(out, f"{label}.json")
        argv = ["experiment"] + argv + ["--seed", str(seed), "--check",
                                        "--out", path]
        ops.append(Op(label, lambda: cli.main(argv),
                      experiment_check(path, name, seed, config)))

    experiment("so2-square", ["so2-square", "--n", "2000", "--reps", "2000",
                              "--limit-reps", "10000"], "so2-square",
               {"n": 2000, "replicates": 2000, "limit_replicates": 10000})
    experiment("translation-box", ["translation-box", "--n", "5000",
                                   "--reps", "10000"], "translation-box",
               {"n": 5000, "replicates": 10000})
    for d in (2, 3):
        experiment(f"dual-cone-d{d}", ["dual-cone", "--d", str(d), "--n",
                                       "100000"], "dual-cone-intensity",
                   {"d": d, "target_points": 100000})
    return ops


def cell_stream(khull, inputs, out):
    """Thousands of tiny zero cells through `experiment inclusion`."""
    seed = load_json(os.path.join(inputs, "manifest.json"))["seed"]
    cli = khull.cli
    ops = []
    for body, cone, _ in INCLUSION_CASES:
        label = f"inclusion-{body[:-5]}-{cone}"
        points = os.path.join(inputs, f"points-{body[:-5]}-{cone}.csv")
        path = os.path.join(out, f"{label}.json")
        argv = ["experiment", "inclusion", "--body",
                os.path.join(inputs, body), "--cone", cone, "--points",
                points, "--seed", str(seed), "--check", "--out", path]

        def frequencies(doc, points=points):
            s = doc["statistics"]
            lim, fin = s["limit_frequency"], s["finite_frequency"]
            expect(0 <= lim <= 1 and 0 <= fin <= 1, "frequency outside [0,1]")
            expect(abs(s["difference"] - abs(lim - fin)) <= 1e-12,
                   "difference is not |limit - finite|")
            expect(doc["config"]["points"] == load_csv(points).tolist(),
                   "report test points differ from the input")

        ops.append(Op(label, lambda argv=argv: cli.main(argv),
                      experiment_check(path, "inclusion", seed,
                                       {"n": 2000, "replicates": 2000,
                                        "cone": cone}, frequencies)))
    return ops


def cell_bulk(khull, inputs, out):
    """A few huge cells: per-mark throughput and big CSV/JSON outputs."""
    seed = load_json(os.path.join(inputs, "manifest.json"))["seed"]
    cli = khull.cli
    ops = []

    def pk(label, body, t_max):
        path = os.path.join(out, f"{label}.csv")
        body_path = os.path.join(inputs, body)
        argv = ["simulate", "pk", "--body", body_path, "--tmax", str(t_max),
                "--seed", str(seed), "--out", path]

        def check(rc):
            expect(rc == 0, f"exit code {rc}")
            doc = load_json(body_path)
            d = len(doc["axis"]) if "axis" in doc else \
                len(doc["vertices"][0]) if "vertices" in doc else doc["dim"]
            with open(path) as fh:
                header = fh.readline().strip().split(",")
            expect(header == ["t"] + [f"eta_{i + 1}" for i in range(d)]
                   + [f"u_{i + 1}" for i in range(d)], "bad CSV header")
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            check_marks(doc, rows[:, 0], rows[:, 1:1 + d], rows[:, 1 + d:],
                        t_max)
            return read_bytes(path)

        ops.append(Op(label, lambda: cli.main(argv), check))

    def zerocell(label, body, window, reach):
        path = os.path.join(out, f"{label}.json")
        body_path = os.path.join(inputs, body)
        argv = ["simulate", "zerocell", "--body", body_path, "--window",
                str(window), "--seed", str(seed), "--out", path]

        def check(rc):
            expect(rc == 0, f"exit code {rc}")
            doc = load_json(path)
            expect(doc["seed"] == seed and doc["window_radius"] == window,
                   "zero-cell header differs from the arguments")
            marks = doc["marks"]
            expect(len(marks) == len(doc["constraints"]),
                   "one constraint per mark expected")
            t = np.array([m["t"] for m in marks])
            eta = np.array([m["eta"] for m in marks])
            u = np.array([m["u"] for m in marks])
            check_marks(load_json(body_path), t, eta, u,
                        window * (1.0 + reach))
            normals = np.array([c["normal"] for c in doc["constraints"]])
            offsets = np.array([c["offset"] for c in doc["constraints"]])
            want = np.hstack([u, (u[:, :, None] * eta[:, None, :])
                              .reshape(len(u), -1)])
            expect(np.allclose(normals, want, rtol=0, atol=1e-12),
                   "constraint normal is not (u, u outer eta)")
            expect(np.array_equal(offsets, t), "constraint offset is not t")
            return read_bytes(path)

        ops.append(Op(label, lambda: cli.main(argv), check))

    pk("pk-cube3", "cube3.json", 3000)
    pk("pk-halfball3", "halfball3.json", 3000)
    pk("pk-ball3", "ball3.json", 20000)
    zerocell("zerocell-cube3", "cube3.json", 300, math.sqrt(3))
    zerocell("zerocell-square", "square.json", 3000, math.sqrt(2))

    cube3 = khull.body_from_json(load_json(os.path.join(inputs,
                                                        "cube3.json")))
    queries = {c: (load_csv(os.path.join(inputs, f"contains-{c}.csv")),
                   load_csv(os.path.join(inputs, f"extent-{c}.csv")))
               for c in CONES_3D}
    ambient = load_csv(os.path.join(inputs, "membership.csv"))

    def restrictions():
        cell = khull.build_zero_cell(cube3, 300.0, seed=seed)
        results = {}
        for name, (points, dirs) in queries.items():
            cone = khull.cone_preset(name, 3)
            restricted = khull.restrict_to_cone(cell, cone)
            results[name] = (cone, restricted, restricted.contains(points),
                             np.array([restricted.extent(v) for v in dirs]))
        member = np.array([khull.membership(cell, p) for p in ambient])
        return cell, results, member

    def check_restrictions(result):
        cell, results, member = result
        ref = np.all(ambient @ cell.normals.T <= cell.offsets + TOL, axis=1)
        expect(np.array_equal(member, ref), "membership disagrees")
        payload = [member.tobytes()]
        for name, (cone, restricted, inside, ext) in results.items():
            points, dirs = queries[name]
            lifted = points @ cone.basis
            ref = np.all(lifted @ cell.normals.T <= cell.offsets + TOL,
                         axis=1)
            expect(np.array_equal(inside, ref),
                   f"{name}: restricted contains disagrees with the cell")
            expect(np.all(ext > 0), f"{name}: non-positive extent")
            for s, v in zip(ext, dirs):
                if math.isfinite(s):
                    expect(restricted.contains(s * v)[0]
                           and not restricted.contains(2 * s * v)[0],
                           f"{name}: extent is not the boundary distance")
            payload += [inside.tobytes(), ext.tobytes()]
        return b"".join(payload)

    ops.append(Op("restrict-cube3-all-cones", restrictions,
                  check_restrictions))
    return ops


# Boundedness catalogue of acceptance criterion 6 and its unit tests:
# (body, dimension, cone preset, bounded).
BOUNDEDNESS = (("ball", 2, "full", False),
               ("ball", 2, "symmetric-traceless", True),
               ("ball", 2, "translations", True),
               ("ball", 2, "diagonal", False),
               ("ball", 2, "skew", False),
               ("ball", 3, "symmetric-traceless", True),
               ("cube", 2, "translations", True))


def geometry(khull, inputs, out):
    """Every hull family, both membership oracles, the LP and NM solvers."""
    cli = khull.cli

    def path(name):
        return os.path.join(inputs, name)

    square_doc, cube3_doc = load_json(path("square.json")), \
        load_json(path("cube3.json"))
    square, cube3 = khull.body_from_json(square_doc), \
        khull.body_from_json(cube3_doc)
    disk = khull.Ball(1.0, 2)
    pts = {name: load_csv(path(f"{name}.csv")) for name in (
        "khull-square", "khull-cube3", "ts-cube3", "disk", "disk-queries",
        "lb-sample", "lb-queries", "ts-sample", "ts-queries", "positive3",
        "affine3", "cli-ts", "cli-positive", "cli-spherical")}
    ops = []

    def polytope_op(label, fn, sample, body_doc=None, pool=None):
        def check(result):
            poly = result.body
            expect(isinstance(poly, khull.Polytope)
                   and poly.is_full_dimensional, "hull is not a polytope")
            check_polytope_hull(poly.vertices, poly.facet_normals,
                                poly.facet_offsets, sample, body_doc, pool)
            return polytope_payload(poly)

        ops.append(Op(label, lambda: fn(sample), check))

    polytope_op("k-hull-square", lambda a: khull.k_hull_translations(
        square, a), pts["khull-square"], square_doc)
    polytope_op("k-hull-cube3", lambda a: khull.k_hull_translations(
        cube3, a), pts["khull-cube3"], cube3_doc)
    polytope_op("translations-scalings-cube3",
                lambda a: khull.hull_translations_scalings(cube3, a),
                pts["ts-cube3"], cube3_doc)
    polytope_op("full-affine-1e4", lambda a: khull.hull_full_affine(a),
                pts["affine3"], pool=pts["affine3"])

    def ball_hull():
        oracle = khull.k_hull_translations(disk, pts["disk"]).body
        return oracle.contains(pts["disk-queries"][:, :2])

    def check_ball_hull(verdicts):
        expect(np.array_equal(verdicts, pts["disk-queries"][:, 2] > 0.5),
               "ball-hull verdicts differ from the expected ones")
        return np.asarray(verdicts).tobytes()

    ops.append(Op("ball-hull-oracle", ball_hull, check_ball_hull))

    def generic(label, body, family, sample, closed_form):
        queries = pts[f"{label}-queries"]

        def run():
            hull = closed_form(sample).body
            fam = khull.FAMILY_PRESETS[family]
            verdicts = [khull.generic_hull_membership(
                body, fam, sample, q[:2], budget=8 if q[2] else 48, seed=1)
                for q in queries]
            return hull.contains(queries[:, :2]), verdicts

        def check(result):
            closed, verdicts = result
            want = queries[:, 2] > 0.5
            expect(np.array_equal(closed, want),
                   f"{label}: closed form disagrees with the expected side")
            got = [v for v, _ in verdicts]
            expect(got == ["inside" if w else "outside" for w in want],
                   f"{label}: generic verdicts {got}")
            return json.dumps([[v, None if w is None else w.tolist()]
                               for v, w in verdicts]).encode()

        ops.append(Op(f"generic-{family}", run, check))

    generic("lb", disk, "linear-ball", pts["lb-sample"],
            lambda a: khull.hull_linear_ball(a))
    generic("ts", square, "translations-scalings", pts["ts-sample"],
            lambda a: khull.hull_translations_scalings(square, a))

    def check_positive(result):
        cone = result.body
        expect(cone.generators is not None, "positive hull is not pointed")
        check_cone(cone.generators, pts["positive3"])
        return cone.generators.tobytes()

    ops.append(Op("positive-d3", lambda: khull.positive_hull(
        pts["positive3"]), check_positive))

    def catalogue():
        return [bool(khull.is_bounded(
            khull.Ball(1.0, d) if kind == "ball" else khull.cube(d),
            khull.cone_preset(cone, d))[0])
            for kind, d, cone, _ in BOUNDEDNESS]

    def check_catalogue(got):
        want = [b for *_, b in BOUNDEDNESS]
        expect(got == want, f"is_bounded gives {got}, want {want}")
        return json.dumps(got).encode()

    ops.append(Op("is-bounded-catalogue", catalogue, check_catalogue))

    def hull_cli(family, points, body=None, check=None):
        dest = os.path.join(out, f"hull-{family}.json")
        argv = ["hull", "--family", family, "--points", path(points),
                "--out", dest] + (["--body", path(body)] if body else [])

        def check_file(rc):
            expect(rc == 0, f"exit code {rc}")
            doc = load_json(dest)
            expect(doc["exact"] is True, "hull is not exact")
            check(doc, load_csv(path(points)))
            return read_bytes(dest)

        ops.append(Op(f"cli-hull-{family}", lambda: cli.main(argv),
                      check_file))

    def polytope_doc(body_doc=None, symmetric=False, pool=False):
        def check(doc, sample):
            expect(doc["kind"] == "polytope", f"kind {doc['kind']}")
            if symmetric:
                sample = np.vstack([sample, -sample])
            normals, offsets = facets(doc)
            check_polytope_hull(np.array(doc["vertices"]), normals, offsets,
                                sample, body_doc, sample if pool else None)
        return check

    def cone_doc(doc, sample):
        expect(doc["kind"] == "cone", f"kind {doc['kind']}")
        normals = np.array(doc["normals"])
        expect(np.all(sample @ normals.T <= TOL),
               "a sample point lies outside the cone")
        check_cone(np.array(doc["generators"]), sample)

    def spherical_doc(doc, sample):
        expect(doc["kind"] == "sphericalhull", f"kind {doc['kind']}")

    hull_cli("k-hull", "khull-square.csv", "square.json",
             polytope_doc(square_doc))
    hull_cli("translations-scalings", "cli-ts.csv", "square.json",
             polytope_doc(square_doc))
    hull_cli("full-affine", "khull-square.csv",
             check=polytope_doc(pool=True))
    hull_cli("linear-ball", "cli-ts.csv",
             check=polytope_doc(symmetric=True, pool=True))
    hull_cli("positive", "cli-positive.csv", check=cone_doc)
    hull_cli("spherical", "cli-spherical.csv", check=spherical_doc)
    return ops


WORKLOADS = {"limit-laws": limit_laws, "cell-stream": cell_stream,
             "cell-bulk": cell_bulk, "geometry": geometry}
