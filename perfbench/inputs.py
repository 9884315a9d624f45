"""Generate one workload's input files from the workload seed.

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR

The benchmark times this script in fresh interpreters as its set-up
(`setup_s`): interpreter start, `import khull`, and writing the inputs.
The same seed always gives byte-identical files.  The program later sees
only these files (body JSON, point CSVs, query sets) and `manifest.json`,
which carries the seed handed to the program's own `--seed` options.
"""

import argparse
import json
import os

from common import import_khull, pin_threads

# The d=3 cone presets a bulk cell is restricted to, in a fixed order.
CONES_3D = ("translations", "skew", "traceless", "symmetric-traceless",
            "diagonal", "scalings", "full")
# Parameters of each d=3 cone preset (its subspace dimension).
CONE_PARAMS_3D = {"translations": 3, "skew": 3, "traceless": 8,
                  "symmetric-traceless": 5, "diagonal": 3, "scalings": 4,
                  "full": 12}
# (body file, cone preset, cone parameters) of each inclusion case.
INCLUSION_CASES = (("square.json", "skew", 1), ("cube3.json", "skew", 3),
                   ("ball2.json", "scalings", 3))


def write_csv(np, path, rows):
    np.savetxt(path, np.atleast_2d(rows), fmt="%.17g", delimiter=",")


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def write_bodies(khull, out, names):
    bodies = {"square.json": lambda: khull.body_to_json(khull.cube(2)),
              "cube3.json": lambda: khull.body_to_json(khull.cube(3)),
              "ball2.json": lambda: {"kind": "ball", "radius": 1.0, "dim": 2},
              "ball3.json": lambda: {"kind": "ball", "radius": 1.0, "dim": 3}}
    for name in names:
        write_json(os.path.join(out, name), bodies[name]())


def unit_rows(np, rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def limit_laws(khull, np, rng, out):
    """The experiments take only a seed."""


def cell_stream(khull, np, rng, out):
    write_bodies(khull, out, ("square.json", "cube3.json", "ball2.json"))
    for body, cone, k in INCLUSION_CASES:
        # Small test points keep both inclusion frequencies between 0.9 and
        # 1, where the 0.03 gate on their difference has a tiny
        # false-alarm rate.  The window radius (1 + the largest point
        # norm), and so the marks per cell, barely depends on them.
        pts = 0.05 * (2.0 * rng.random((2, k)) - 1.0)
        write_csv(np, os.path.join(out, f"points-{body[:-5]}-{cone}.csv"),
                  pts)


def cell_bulk(khull, np, rng, out):
    write_bodies(khull, out, ("square.json", "cube3.json", "ball3.json"))
    axis = unit_rows(np, rng, 1, 3)[0]
    write_json(os.path.join(out, "halfball3.json"),
               {"kind": "half_ball", "radius": 1.0, "axis": axis.tolist()})
    for cone in CONES_3D:
        k = CONE_PARAMS_3D[cone]
        # Query radii spread over three decades, so batches hold points
        # both inside and outside the cell.
        scale = 10.0 ** rng.uniform(-2.0, 1.0, size=(5000, 1))
        write_csv(np, os.path.join(out, f"contains-{cone}.csv"),
                  scale * unit_rows(np, rng, 5000, k))
        write_csv(np, os.path.join(out, f"extent-{cone}.csv"),
                  unit_rows(np, rng, 1000, k))
    scale = 10.0 ** rng.uniform(-2.0, 1.0, size=(200, 1))
    write_csv(np, os.path.join(out, "membership.csv"),
              scale * unit_rows(np, rng, 200, 12))


def geometry(khull, np, rng, out):
    write_bodies(khull, out, ("square.json", "cube3.json"))

    def box(n, d, half=0.8):
        return half * (2.0 * rng.random((n, d)) - 1.0)

    write_csv(np, os.path.join(out, "khull-square.csv"), box(1000, 2))
    write_csv(np, os.path.join(out, "khull-cube3.csv"), box(1000, 3))
    write_csv(np, os.path.join(out, "ts-cube3.csv"), box(100, 3))

    # Ball hull of a disk sample: sample points and convex combinations
    # are inside; points beyond the unit circle are outside, because the
    # unit disk itself contains the sample.
    disk = 0.8 * np.sqrt(rng.random((200, 1))) * unit_rows(np, rng, 200, 2)
    write_csv(np, os.path.join(out, "disk.csv"), disk)
    picks = disk[rng.choice(200, size=3, replace=False)]
    mixes = rng.dirichlet(np.ones(3), size=2) @ picks
    far = rng.uniform(1.05, 1.5, size=(3, 1)) * unit_rows(np, rng, 3, 2)
    queries = np.vstack([picks, mixes, far])
    expected = np.array([1.0] * 5 + [0.0] * 3)
    write_csv(np, os.path.join(out, "disk-queries.csv"),
              np.column_stack([queries, expected]))

    # Generic oracle, linear images of the unit disk: the hull is
    # conv(A u -A).  Inside: a shrunken convex combination of +-A.
    # Outside: twice the support of +-A along a random direction.
    a = 0.5 * rng.standard_normal((4, 2))
    write_csv(np, os.path.join(out, "lb-sample.csv"), a)
    signed = np.vstack([a, -a])
    inside = 0.8 * (rng.dirichlet(np.ones(8)) @ signed)
    w = unit_rows(np, rng, 2, 2)
    outside = 2.0 * np.max(np.abs(a @ w.T), axis=0)[:, None] * w
    write_csv(np, os.path.join(out, "lb-queries.csv"),
              np.column_stack([np.vstack([inside, outside]),
                               [1.0, 0.0, 0.0]]))

    # Generic oracle, translations and scalings of the square: the hull
    # lies in the bounding box of the sample and contains its convex hull.
    s = box(6, 2, half=0.5)
    write_csv(np, os.path.join(out, "ts-sample.csv"), s)
    inside = rng.dirichlet(np.ones(6)) @ s
    lo, hi = s.min(axis=0), s.max(axis=0)
    outside = [[hi[0] + rng.uniform(0.1, 0.3), rng.uniform(lo[1], hi[1])],
               [rng.uniform(lo[0], hi[0]), lo[1] - rng.uniform(0.1, 0.3)]]
    write_csv(np, os.path.join(out, "ts-queries.csv"),
              np.column_stack([np.vstack([inside, outside]),
                               [1.0, 0.0, 0.0]]))

    pos = rng.standard_normal((200, 3))
    pos[:, 0] = np.abs(pos[:, 0]) + 0.5  # a pointed cone around e1
    write_csv(np, os.path.join(out, "positive3.csv"), pos)
    write_csv(np, os.path.join(out, "affine3.csv"), box(10000, 3, half=1.0))

    write_csv(np, os.path.join(out, "cli-ts.csv"), box(50, 2))
    pos2 = rng.standard_normal((50, 2))
    pos2[:, 0] = np.abs(pos2[:, 0]) + 0.5
    write_csv(np, os.path.join(out, "cli-positive.csv"), pos2)
    # Upper half-disk about the default axis e1, strictly inside.
    sph = 0.9 * np.sqrt(rng.random((50, 1))) * unit_rows(np, rng, 50, 2)
    sph[:, 0] = np.abs(sph[:, 0])
    write_csv(np, os.path.join(out, "cli-spherical.csv"), sph)


GENERATORS = {"limit-laws": limit_laws, "cell-stream": cell_stream,
              "cell-bulk": cell_bulk, "geometry": geometry}


def generate(workload, seed, out):
    khull = import_khull()
    import numpy as np

    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    GENERATORS[workload](khull, np, rng, out)
    write_json(os.path.join(out, "manifest.json"),
               {"workload": workload, "seed": seed})


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    pin_threads()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
