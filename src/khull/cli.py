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
import collections
import json
import math
import operator
import os
import sys
import tempfile
import warnings

import numpy as np

from .bodies import _check_finite_positive, body_from_json, body_to_json
from .empirical import (_window_radius, dual_cone_intensity_experiment,
                        inclusion_functional_estimate,
                        so2_square_experiment, translation_box_experiment)
from .hulls import (hull_full_affine, hull_linear_ball,
                    hull_translations_scalings, k_hull_translations,
                    positive_hull, spherical_hull_halfball)
from .poisson import sample_PK
from .zerocell import CONE_PRESETS, build_zero_cell, cone_preset, is_bounded

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


def _load_points(path, columns):
    """The rows of a CSV file; with `columns` not None, each row must have
    that many entries."""
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
    if columns is not None and pts.shape[1] != columns:
        raise ConfigError(f"--points must have {columns} columns, got "
                          f"{pts.shape[1]}")
    return pts


def _hull_to_json(result):
    """The hull's body document, or its class for a hull with none."""
    try:
        return {"exact": True, **body_to_json(result.body)}
    except TypeError:
        return {"exact": True, "kind": type(result.body).__name__.lower()}


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
    if not takes_body:
        result = hull(_load_points(args.points, None))
    elif not args.body:
        raise ConfigError("--body is required for this family")
    else:
        body = _load_body(args.body)
        result = hull(body, _load_points(args.points, body.dim))
    _write_json(args.out, _hull_to_json(result))
    return EXIT_OK


def cmd_simulate_pk(args):
    body = _load_body(args.body)
    _check_finite_positive(args.tmax, "--tmax")
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
    _check_finite_positive(args.window, "--window")
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


def cmd_experiment_recession(args):
    body = _load_body(args.body)
    cone = cone_preset(args.cone, body.dim)
    bounded, witness = is_bounded(body, cone)
    doc = {"body": body_to_json(body), "cone": args.cone,
           "bounded": bool(bounded)}
    if witness is not None:
        doc["unbounded_direction"] = witness.tolist()
    try:
        rows = body.reflected_recession_rows(cone)
        doc["reflected_recession_facets"] = rows.tolist()
    except (TypeError, ValueError):
        pass
    if args.out:
        _write_json(args.out, doc)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK


def _run_inclusion(args):
    body = _load_body(args.body)
    cone = cone_preset(args.cone, body.dim)
    pts = _load_points(args.points, cone.n_params)
    bad = pts[~np.isfinite(pts)]
    if len(bad):
        raise ConfigError(f"--points must be finite, got {bad[0]}")
    with np.errstate(over="ignore"):
        radius = _window_radius(cone, pts)
    if not math.isfinite(radius):
        raise ConfigError(f"--points are too large: their window radius "
                          f"is {radius}")
    return inclusion_functional_estimate(body, cone, pts, args.n, args.reps,
                                         args.seed)


# A `--check` gate passes when `passes(value, bound)`: `lt` fails at the
# bound, `le` only past it, and both fail a nan.  The value is
# `read(statistics)` of the report, or its `statistic` when `read` is None.
_Gate = collections.namedtuple("_Gate", "statistic bound passes read",
                               defaults=(None,))

# Each `experiment` subcommand but `recession`: its library call, the
# `--samples-out` header and the `report.samples` keys stacked under it
# (None: no such flag), and its `--check` gates.  The calls look the
# library functions up in this module, so a wrapper bound here sees them.
_Experiment = collections.namedtuple("_Experiment", "run samples gates")
EXPERIMENTS = {
    "so2-square": _Experiment(
        lambda a: so2_square_experiment(a.n, a.reps, a.limit_reps, a.seed),
        (["zeta_plus", "zeta_minus"], ["limit_plus", "limit_minus"]),
        [_Gate("ks_two_sample_plus", 0.05, operator.lt),
         _Gate("ks_two_sample_minus", 0.05, operator.lt),
         _Gate("|endpoint_rank_correlation|", 0.03, operator.lt,
               lambda s: abs(s["endpoint_rank_correlation"])),
         _Gate("ks_limit_plus_vs_fitted_exponential", 0.02, operator.lt)]),
    "translation-box": _Experiment(
        lambda a: translation_box_experiment(a.n, a.reps, a.seed),
        (["plus_x", "minus_x", "plus_y", "minus_y"], ["limit_extents"]),
        [_Gate("max ks_limit_vs_exp_half", 0.02, operator.lt,
               lambda s: max(s["ks_limit_vs_exp_half"])),
         _Gate("max_abs_correlation", 0.03, operator.lt),
         _Gate("max ks_two_sample", 0.05, operator.lt,
               lambda s: max(s["ks_two_sample"]))]),
    "inclusion": _Experiment(
        _run_inclusion, None, [_Gate("difference", 0.03, operator.le)]),
    "dual-cone": _Experiment(
        lambda a: dual_cone_intensity_experiment(a.d, a.n, a.seed), None,
        [_Gate("|slope - expected_slope|", 0.1, operator.le,
               lambda s: abs(s["slope"] - s["expected_slope"]))]),
}


def cmd_experiment(args):
    experiment = EXPERIMENTS[args.experiment_command]
    report = experiment.run(args)
    if args.out:
        _write_json(args.out, report.to_json())
    if experiment.samples and args.samples_out:
        header, keys = experiment.samples
        _write_csv(args.samples_out, header,
                   np.column_stack([report.samples[k] for k in keys]))
    if not args.check:
        return EXIT_OK
    code = EXIT_OK
    s = report.statistics
    for gate in experiment.gates:
        value = gate.read(s) if gate.read else s[gate.statistic]
        if not gate.passes(value, gate.bound):
            sys.stderr.write(f"check failed: {gate.statistic} = {value}, "
                             f"bound {gate.bound}\n")
            code = EXIT_CHECK
    return code


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
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=_non_negative_int, default=0)
    shared.add_argument("--check", action="store_true")
    shared.add_argument("--out")
    shared.set_defaults(func=cmd_experiment)
    sidecar = argparse.ArgumentParser(add_help=False, parents=[shared])
    sidecar.add_argument("--samples-out", dest="samples_out")

    def experiment(name):
        return expsub.add_parser(name, parents=[
            sidecar if EXPERIMENTS[name].samples else shared])

    so2 = experiment("so2-square")
    so2.add_argument("--n", type=_positive_int, default=2000)
    so2.add_argument("--reps", type=_positive_int, default=2000)
    so2.add_argument("--limit-reps", type=_positive_int, default=10000,
                     dest="limit_reps")

    box = experiment("translation-box")
    box.add_argument("--n", type=_positive_int, default=5000)
    box.add_argument("--reps", type=_positive_int, default=10000)

    inc = experiment("inclusion")
    inc.add_argument("--body", required=True)
    inc.add_argument("--cone", default="skew", choices=CONE_PRESETS)
    inc.add_argument("--points", required=True)
    inc.add_argument("--n", type=_positive_int, default=2000)
    inc.add_argument("--reps", type=_positive_int, default=2000)

    rec = expsub.add_parser("recession")
    rec.add_argument("--body", required=True)
    rec.add_argument("--cone", required=True, choices=CONE_PRESETS)
    rec.add_argument("--out")
    rec.set_defaults(func=cmd_experiment_recession)

    dual = experiment("dual-cone")
    dual.add_argument("--d", type=int, default=2, choices=[2, 3])
    dual.add_argument("--n", type=_positive_int, default=100000)

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
    except (ConfigError, ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
