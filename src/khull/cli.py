"""Command-line interface: hulls, simulations, and experiments.

Exit codes: 0 success, 2 configuration or input validation error,
3 statistical check failure under --check.  Outputs are written
atomically (temporary file plus rename).  JSON floats are written by
`repr` (the shortest string that round-trips) and CSV floats with 17
significant digits, so reruns with the same seed are byte-identical.
CSV rows are formatted from the array with one `%.17g` row format, which
gives the bytes of `np.savetxt(fmt="%.17g", delimiter=",")` with CRLF
line ends.  The `constraints` and `marks` arrays of `simulate zerocell`
are filled from a per-entry template and the rest of the document comes
from `json.dumps`; the file has the bytes of
`json.dumps(doc, indent=2, sort_keys=True)`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np

from .bodies import body_from_json, body_to_json
from .empirical import (dual_cone_intensity_experiment,
                        inclusion_functional_estimate,
                        so2_square_experiment, translation_box_experiment)
from .hulls import (BallHullOracle, hull_full_affine, hull_linear_ball,
                    hull_translations_scalings, k_hull_translations,
                    positive_hull, spherical_hull_halfball)
from .poisson import sample_PK
from .zerocell import (CONE_PRESETS, build_zero_cell, cone_preset,
                       is_bounded, reflected_recession_in_cone)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3

# Rows formatted per write by the bulk CSV and zero-cell JSON writers.
_WRITE_BLOCK = 4096


class ConfigError(Exception):
    pass


def _atomic_write(path, writer):
    """Write via a sibling temp file and rename.

    The file gets the mode `open` would give a new file, 0o666 less the
    umask, in place of the 0o600 of `mkstemp`.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, doc):
    _atomic_write(path, lambda fh: json.dump(doc, fh, indent=2,
                                             sort_keys=True))


def _write_rows(fh, rows, row_format, separator=""):
    """Write each row of a 2-D array as `row_format % tuple(row)`.

    Rows are joined by `separator` and formatted a block at a time, so
    the whole text is never held in memory at once.
    """
    for start in range(0, len(rows), _WRITE_BLOCK):
        block = rows[start:start + _WRITE_BLOCK]
        if start:
            fh.write(separator)
        fh.write(separator.join([row_format] * len(block))
                 % tuple(block.ravel().tolist()))


def _write_csv(path, header, array):
    """The bytes of `np.savetxt(fmt="%.17g", delimiter=",", comments="",
    newline="\r\n")` with a header line."""
    array = np.asarray(array)
    row_format = ",".join(["%.17g"] * array.shape[1]) + "\r\n"

    def writer(fh):
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, array, row_format)

    _atomic_write(path, writer)


def _load_body(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"body file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed body JSON {path}: line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}")
    try:
        return body_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid body description in {path}: {exc}")


def _load_points(path):
    try:
        with warnings.catch_warnings():
            # An empty file is reported below, not by numpy's warning.
            warnings.simplefilter("ignore", UserWarning)
            pts = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError:
        raise ConfigError(f"points file not found: {path}")
    except ValueError as exc:
        raise ConfigError(f"malformed points CSV {path}: {exc}")
    if not len(pts):
        raise ConfigError(f"--points file {path} has no rows")
    return pts


def _hull_to_json(result):
    body = result.body
    doc = {"exact": True}
    if isinstance(body, BallHullOracle):
        # The hull is fixed by the radius and the sample's extreme points.
        doc.update(kind="ball_hull", radius=body.radius,
                   centers=body.centers.tolist())
        return doc
    try:
        doc.update(body_to_json(body))
    except TypeError:
        doc["kind"] = type(body).__name__.lower()
    return doc


# Each `hull --family` with its hull function and whether that takes the
# body before the points.
HULL_FAMILIES = {
    "k-hull": (k_hull_translations, True),
    "translations-scalings": (hull_translations_scalings, True),
    "full-affine": (hull_full_affine, False),
    "linear-ball": (hull_linear_ball, False),
    "positive": (positive_hull, False),
    "spherical": (spherical_hull_halfball, False),
}


def cmd_hull(args):
    hull, takes_body = HULL_FAMILIES[args.family]
    if takes_body and not args.body:
        raise ConfigError("--body is required for this family")
    points = _load_points(args.points)
    result = (hull(_load_body(args.body), points) if takes_body
              else hull(points))
    _write_json(args.out, _hull_to_json(result))
    return EXIT_OK


def cmd_simulate_pk(args):
    body = _load_body(args.body)
    if not 0 < args.tmax < math.inf:
        raise ConfigError(f"--tmax must be finite and positive, got "
                          f"{args.tmax}")
    sample = sample_PK(body, args.tmax, seed=args.seed)
    d = body.dim
    header = (["t"] + [f"eta_{i + 1}" for i in range(d)]
              + [f"u_{i + 1}" for i in range(d)])
    _write_csv(args.out, header,
               np.column_stack([sample.t, sample.eta, sample.u]))
    return EXIT_OK


def _write_json_array(fh, entry, rows):
    """The array value of a top-level key, one `entry` dict per row, as
    `json.dump` with `indent=2, sort_keys=True` writes it.

    `entry` holds "%s" where each float goes; the floats of one row come
    in sorted-key order, as `np.column_stack` lays them out.  Rows must
    be finite: "%s" spells nan and inf, where json writes NaN and Infinity.
    """
    if not np.isfinite(rows).all():
        raise ValueError("zero-cell constraints and marks must be finite")
    if not len(rows):
        fh.write("[]")
        return
    template = json.dumps(entry, indent=2, sort_keys=True).replace(
        '"%s"', "%s").replace("\n", "\n    ")
    fh.write("[\n    ")
    _write_rows(fh, rows, template, ",\n    ")
    fh.write("\n  ]")


def cmd_simulate_zerocell(args):
    body = _load_body(args.body)
    if not 0 < args.window < math.inf:
        raise ConfigError(f"--window must be finite and positive, got "
                          f"{args.window}")
    system = build_zero_cell(body, args.window, seed=args.seed)
    s = system.sample
    head = json.dumps({
        "body": body_to_json(body),
        # The constraints live in the full tangent space R^d x M_d.
        "cone": "full",
        "window_radius": args.window,
        "seed": args.seed,
        "constraints": [],
        "marks": [],
    }, indent=2, sort_keys=True)
    # The two arrays are adjacent under sorted keys; fill them in place.
    before, after = head.split('[],\n  "marks": []')
    constraints = np.column_stack([system.normals, system.offsets])
    marks = np.column_stack([s.eta, s.t, s.u])

    def writer(fh):
        fh.write(before)
        _write_json_array(fh, {"normal": ["%s"] * system.dim,
                               "offset": "%s"}, constraints)
        fh.write(',\n  "marks": ')
        _write_json_array(fh, {"eta": ["%s"] * body.dim, "t": "%s",
                               "u": ["%s"] * body.dim}, marks)
        fh.write(after)

    _atomic_write(args.out, writer)
    return EXIT_OK


def _write_report(out, report, samples_out=None, sidecar_columns=None):
    if out:
        _write_json(out, report.to_json())
    if samples_out:
        _write_csv(samples_out, *sidecar_columns)


def cmd_experiment_so2(args):
    report = so2_square_experiment(n=args.n, replicates=args.reps,
                                   limit_replicates=args.limit_reps,
                                   seed=args.seed)
    pairs = np.column_stack([report.samples["limit_plus"],
                             report.samples["limit_minus"]])
    _write_report(args.out, report, args.samples_out,
                  (["zeta_plus", "zeta_minus"], pairs))
    if args.check:
        s = report.statistics
        ok = (s["ks_two_sample_plus"] < 0.05
              and s["ks_two_sample_minus"] < 0.05
              and abs(s["endpoint_rank_correlation"]) < 0.03
              and s["ks_limit_plus_vs_fitted_exponential"] < 0.02)
        if not ok:
            return EXIT_CHECK
    return EXIT_OK


def cmd_experiment_box(args):
    report = translation_box_experiment(n=args.n, replicates=args.reps,
                                        seed=args.seed)
    _write_report(args.out, report, args.samples_out,
                  (["plus_x", "minus_x", "plus_y", "minus_y"],
                   report.samples["limit_extents"]))
    if args.check:
        s = report.statistics
        ok = (max(s["ks_limit_vs_exp_half"]) < 0.02
              and s["max_abs_correlation"] < 0.03
              and max(s["ks_two_sample"]) < 0.05)
        if not ok:
            return EXIT_CHECK
    return EXIT_OK


def cmd_experiment_inclusion(args):
    body = _load_body(args.body)
    cone = cone_preset(args.cone, body.dim)
    pts = _load_points(args.points)
    if pts.shape[1] != cone.n_params:
        raise ConfigError(f"points must have {cone.n_params} columns for "
                          f"the {args.cone} preset")
    report = inclusion_functional_estimate(body, cone, pts, n=args.n,
                                           replicates=args.reps,
                                           seed=args.seed)
    _write_report(args.out, report)
    if args.check and report.statistics["difference"] > 0.03:
        return EXIT_CHECK
    return EXIT_OK


def cmd_experiment_recession(args):
    body = _load_body(args.body)
    cone = cone_preset(args.cone, body.dim)
    bounded, witness = is_bounded(body, cone)
    doc = {"body": body_to_json(body), "cone": args.cone,
           "bounded": bool(bounded)}
    if witness is not None:
        doc["unbounded_direction"] = witness.tolist()
    try:
        rows = reflected_recession_in_cone(body, cone)
        doc["reflected_recession_facets"] = rows.tolist()
    except (TypeError, ValueError):
        pass
    if args.out:
        _write_json(args.out, doc)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK


def cmd_experiment_dualcone(args):
    report = dual_cone_intensity_experiment(d=args.d,
                                            target_points=args.n,
                                            seed=args.seed)
    _write_report(args.out, report)
    if args.check:
        if abs(report.statistics["slope"] + args.d) > 0.1:
            return EXIT_CHECK
    return EXIT_OK


def _int_at_least(text, low):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {low}, got {value}")
    return value


def _positive_int(text):
    return _int_at_least(text, 1)


def _non_negative_int(text):
    return _int_at_least(text, 0)


def build_parser():
    p = argparse.ArgumentParser(
        prog="khull",
        description="Generalized hulls, Poisson normal-bundle processes, "
                    "and limiting zero cells.")
    sub = p.add_subparsers(dest="command", required=True)

    hull = sub.add_parser("hull", help="compute a generalized hull")
    hull.add_argument("--body", help="body JSON file")
    hull.add_argument("--family", required=True, choices=HULL_FAMILIES)
    hull.add_argument("--points", required=True, help="CSV, one point/row")
    hull.add_argument("--out", required=True)
    hull.set_defaults(func=cmd_hull)

    sim = sub.add_parser("simulate", help="run a simulation")
    simsub = sim.add_subparsers(dest="sim_command", required=True)

    pk = simsub.add_parser("pk", help="sample the normal-bundle process")
    pk.add_argument("--body", required=True)
    pk.add_argument("--tmax", type=float, required=True)
    pk.add_argument("--seed", type=_non_negative_int, default=0)
    pk.add_argument("--out", required=True)
    pk.set_defaults(func=cmd_simulate_pk)

    zc = simsub.add_parser("zerocell", help="build a truncated zero cell")
    zc.add_argument("--body", required=True)
    zc.add_argument("--window", type=float, required=True)
    zc.add_argument("--seed", type=_non_negative_int, default=0)
    zc.add_argument("--out", required=True)
    zc.set_defaults(func=cmd_simulate_zerocell)

    exp = sub.add_parser("experiment", help="run a verification experiment")
    expsub = exp.add_subparsers(dest="experiment_command", required=True)

    so2 = expsub.add_parser("so2-square")
    so2.add_argument("--n", type=_positive_int, default=2000)
    so2.add_argument("--reps", type=_positive_int, default=2000)
    so2.add_argument("--limit-reps", type=_positive_int, default=10000,
                     dest="limit_reps")
    so2.add_argument("--seed", type=_non_negative_int, default=0)
    so2.add_argument("--check", action="store_true")
    so2.add_argument("--out")
    so2.add_argument("--samples-out", dest="samples_out")
    so2.set_defaults(func=cmd_experiment_so2)

    box = expsub.add_parser("translation-box")
    box.add_argument("--n", type=_positive_int, default=5000)
    box.add_argument("--reps", type=_positive_int, default=10000)
    box.add_argument("--seed", type=_non_negative_int, default=0)
    box.add_argument("--check", action="store_true")
    box.add_argument("--out")
    box.add_argument("--samples-out", dest="samples_out")
    box.set_defaults(func=cmd_experiment_box)

    inc = expsub.add_parser("inclusion")
    inc.add_argument("--body", required=True)
    inc.add_argument("--cone", default="skew", choices=CONE_PRESETS)
    inc.add_argument("--points", required=True)
    inc.add_argument("--n", type=_positive_int, default=2000)
    inc.add_argument("--reps", type=_positive_int, default=2000)
    inc.add_argument("--seed", type=_non_negative_int, default=0)
    inc.add_argument("--check", action="store_true")
    inc.add_argument("--out")
    inc.set_defaults(func=cmd_experiment_inclusion)

    rec = expsub.add_parser("recession")
    rec.add_argument("--body", required=True)
    rec.add_argument("--cone", required=True, choices=CONE_PRESETS)
    rec.add_argument("--out")
    rec.set_defaults(func=cmd_experiment_recession)

    dual = expsub.add_parser("dual-cone")
    dual.add_argument("--d", type=int, default=2, choices=[2, 3])
    dual.add_argument("--n", type=_positive_int, default=100000)
    dual.add_argument("--seed", type=_non_negative_int, default=0)
    dual.add_argument("--check", action="store_true")
    dual.add_argument("--out")
    dual.set_defaults(func=cmd_experiment_dualcone)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches our contract.
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
