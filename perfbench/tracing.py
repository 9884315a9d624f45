"""Spans around calls into khull's layers, installed from outside `src/`.

`Tracer.install` replaces each traced function in every khull module
namespace that binds it (a `from .x import y` copies the name), the traced
methods on their classes, and scipy's `linprog`, `minimize` and
`ConvexHull` where khull looks them up.  A span (name, start, end, parent,
operation id) is kept in memory for each call made while an operation
runs; calls made by the benchmark's own output checks are not traced.
Self time is a span's duration minus the time of its child spans.
"""

import functools
import os
import time
from collections import Counter

import numpy as np

# Per-layer metrics: (name, unit, better, end-to-end metric and workloads
# it should move).  The names match `per_layer` in BENCHMARK.json; every
# `*_s` metric is self time.
METRICS = (
    ("empirical.uniform_sample.calls", "count", "lower", "wall_s, cpu_s on limit-laws, partly cell-stream; no change on geometry"),
    ("empirical.uniform_sample.self_s", "s", "lower", "wall_s, cpu_s on limit-laws, partly cell-stream; no change on geometry"),
    ("empirical.uniform_sample.points", "count", "lower", "wall_s, cpu_s on limit-laws, partly cell-stream; no change on geometry"),
    ("empirical.uniform_sample.accept_ratio", "ratio", "higher", "wall_s, cpu_s on limit-laws, partly cell-stream; no change on geometry"),
    ("poisson.spawn_rng.calls", "count", "lower", "wall_s, cpu_s on limit-laws, partly cell-stream; no change on geometry"),
    ("poisson.spawn_rng.self_s", "s", "lower", "wall_s, cpu_s on limit-laws, partly cell-stream; no change on geometry"),
    ("empirical.experiment.self_s", "s", "lower", "wall_s, cpu_s on limit-laws, partly cell-stream; no change on geometry"),
    ("poisson.BoundarySampler.init_calls", "count", "lower", "wall_s on cell-stream; no change on cell-bulk"),
    ("poisson.BoundarySampler.init_s", "s", "lower", "wall_s on cell-stream; no change on cell-bulk"),
    ("poisson.BoundarySampler.draw_s", "s", "lower", "wall_s on cell-bulk (per mark) and cell-stream (per call)"),
    ("poisson.sample_PK.calls", "count", "lower", "wall_s on cell-bulk (per mark) and cell-stream (per call)"),
    ("poisson.sample_PK.self_s", "s", "lower", "wall_s on cell-bulk (per mark) and cell-stream (per call)"),
    ("poisson.marks", "count", "lower", "wall_s on cell-bulk (per mark) and cell-stream (per call)"),
    ("zerocell.build_zero_cell.calls", "count", "lower", "wall_s on cell-stream and cell-bulk"),
    ("zerocell.build_zero_cell.self_s", "s", "lower", "wall_s on cell-stream and cell-bulk"),
    ("zerocell.constraints", "count", "lower", "wall_s on cell-stream and cell-bulk"),
    ("zerocell.restrict_to_cone.self_s", "s", "lower", "wall_s on cell-stream and cell-bulk"),
    ("zerocell.restrict.kept_ratio", "ratio", "lower", "wall_s on cell-stream and cell-bulk"),
    ("zerocell.query.calls", "count", "lower", "wall_s, peak_rss_mb on cell-bulk"),
    ("zerocell.query.self_s", "s", "lower", "wall_s, peak_rss_mb on cell-bulk"),
    ("zerocell.is_bounded.calls", "count", "lower", "wall_s on geometry"),
    ("zerocell.is_bounded.self_s", "s", "lower", "wall_s on geometry"),
    ("scipy.linprog.calls", "count", "lower", "wall_s on geometry"),
    ("scipy.linprog.self_s", "s", "lower", "wall_s on geometry"),
    ("scipy.linprog.failed", "count", "lower", "wall_s on geometry"),
    ("scipy.minimize.calls", "count", "lower", "wall_s on geometry"),
    ("scipy.minimize.self_s", "s", "lower", "wall_s on geometry"),
    ("scipy.minimize.nfev", "count", "lower", "wall_s on geometry"),
    ("scipy.minimize.failed", "count", "lower", "wall_s on geometry"),
    ("scipy.ConvexHull.calls", "count", "lower", "wall_s on geometry"),
    ("scipy.ConvexHull.self_s", "s", "lower", "wall_s on geometry"),
    ("empirical.xn_membership.calls", "count", "lower", "wall_s on cell-stream and geometry"),
    ("empirical.xn_membership.self_s", "s", "lower", "wall_s on cell-stream and geometry"),
    ("matexp.matrix_exponential.calls", "count", "lower", "wall_s on cell-stream and geometry"),
    ("matexp.matrix_exponential.self_s", "s", "lower", "wall_s on cell-stream and geometry"),
    ("hulls.closed_form.self_s", "s", "lower", "wall_s, peak_rss_mb on geometry"),
    ("hulls.BallHullOracle.queries", "count", "lower", "wall_s, peak_rss_mb on geometry"),
    ("hulls.BallHullOracle.self_s", "s", "lower", "wall_s, peak_rss_mb on geometry"),
    ("bodies.BallIntersection.contains.calls", "count", "lower", "wall_s, peak_rss_mb on geometry"),
    ("bodies.BallIntersection.contains.self_s", "s", "lower", "wall_s, peak_rss_mb on geometry"),
    ("hulls.generic_hull_membership.calls", "count", "lower", "wall_s on geometry"),
    ("hulls.generic_hull_membership.self_s", "s", "lower", "wall_s on geometry"),
    ("hulls.generic.inside", "count", "higher", "wall_s on geometry"),
    ("hulls.generic.outside", "count", "higher", "wall_s on geometry"),
    ("hulls.generic.unknown", "count", "lower", "wall_s on geometry"),
    ("bodies.Polytope.from_halfspaces.calls", "count", "lower", "wall_s on geometry"),
    ("bodies.Polytope.from_halfspaces.self_s", "s", "lower", "wall_s on geometry"),
    ("bodies.Polytope.from_vertices.calls", "count", "lower", "wall_s on geometry"),
    ("bodies.Polytope.from_vertices.self_s", "s", "lower", "wall_s on geometry"),
    ("cli.main.calls", "count", "lower", "wall_s on cell-bulk"),
    ("cli.main.self_s", "s", "lower", "wall_s on cell-bulk"),
    ("cli.out_bytes", "bytes", "lower", "wall_s on cell-bulk"),
    ("trace.overhead_s", "s", "lower", "sanity check: traced minus untraced wall of one pass"),
    ("trace.coverage", "ratio", "higher", "sanity check: top-level span time over traced wall"),
)

# Span name -> the layer it is accounted to.
ZEROCELL_QUERIES = ("zerocell.HalfSpaceSystem.contains",
                    "zerocell.RestrictedSystem.contains",
                    "zerocell.RestrictedSystem.extent",
                    "zerocell.membership", "zerocell.support_extent")
EXPERIMENTS = ("so2_square_experiment", "translation_box_experiment",
               "inclusion_functional_estimate",
               "dual_cone_intensity_experiment")
CLOSED_FORMS = ("k_hull_translations", "hull_translations_scalings",
                "hull_full_affine", "hull_linear_ball", "positive_hull",
                "spherical_hull_halfball")


def _rows(points):
    return len(np.atleast_2d(np.asarray(points)))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, child s]
        self.stack = []
        self.counts = Counter()
        self.op = None  # spans are recorded only while an operation runs

    # -- recording ------------------------------------------------------

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name, fn, after=None):
        """fn with a span per call; after(tracer, args, result) counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                if parent >= 0:
                    tracer.spans[parent][5] += span[2] - span[1]
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self, khull):
        import scipy.optimize
        import scipy.spatial

        mods = [khull] + [getattr(khull, m) for m in (
            "bodies", "cli", "empirical", "hulls", "matexp", "poisson",
            "zerocell")]
        mods += [scipy.optimize, scipy.spatial]

        def rebind(orig, new):
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, new)

        def function(mod, attr, name, after=None):
            orig = getattr(mod, attr)
            rebind(orig, self.wrap(name, orig, after))

        def method(cls, attr, name, after=None, static=False):
            orig = vars(cls)[attr]
            if static:
                orig = orig.__func__
            new = self.wrap(name, orig, after)
            setattr(cls, attr, staticmethod(new) if static else new)

        emp, poi, zc = khull.empirical, khull.poisson, khull.zerocell
        hul, bod = khull.hulls, khull.bodies
        function(khull.cli, "main", "cli.main", _count_out_bytes)
        function(emp, "uniform_sample", "empirical.uniform_sample",
                 _count_sample)
        function(emp, "xn_membership", "empirical.xn_membership")
        for attr in EXPERIMENTS:
            function(emp, attr, f"empirical.{attr}")
        function(poi, "spawn_rng", "poisson.spawn_rng")
        function(poi, "sample_PK", "poisson.sample_PK", _count_marks)
        method(poi.BoundarySampler, "__init__",
               "poisson.BoundarySampler.init")
        method(poi.BoundarySampler, "draw", "poisson.BoundarySampler.draw")
        function(zc, "build_zero_cell", "zerocell.build_zero_cell",
                 _count_constraints)
        function(zc, "restrict_to_cone", "zerocell.restrict_to_cone",
                 _count_restriction)
        function(zc, "is_bounded", "zerocell.is_bounded")
        function(zc, "membership", "zerocell.membership")
        function(zc, "support_extent", "zerocell.support_extent")
        method(zc.HalfSpaceSystem, "contains",
               "zerocell.HalfSpaceSystem.contains")
        method(zc.RestrictedSystem, "contains",
               "zerocell.RestrictedSystem.contains")
        method(zc.RestrictedSystem, "extent",
               "zerocell.RestrictedSystem.extent")
        function(khull.matexp, "matrix_exponential",
                 "matexp.matrix_exponential")
        for attr in CLOSED_FORMS:
            function(hul, attr, f"hulls.{attr}")
        function(hul, "generic_hull_membership",
                 "hulls.generic_hull_membership", _count_verdict)
        method(hul.BallHullOracle, "contains", "hulls.BallHullOracle",
               _count_queries)
        method(bod.BallIntersection, "contains",
               "bodies.BallIntersection.contains")
        method(bod.Polytope, "from_halfspaces",
               "bodies.Polytope.from_halfspaces", static=True)
        method(bod.Polytope, "from_vertices", "bodies.Polytope.from_vertices",
               static=True)
        function(scipy.optimize, "linprog", "scipy.linprog", _count_lp)
        function(scipy.optimize, "minimize", "scipy.minimize",
                 _count_minimize)
        function(scipy.spatial, "ConvexHull", "scipy.ConvexHull")

        # Rows tested by rejection sampling: a counter, not a span.
        contains = bod.Polytope.contains
        tracer = self

        @functools.wraps(contains)
        def polytope_contains(body, points):
            if tracer.parent_name() == "empirical.uniform_sample":
                tracer.counts["uniform_sample.tested"] += _rows(points)
            return contains(body, points)

        bod.Polytope.contains = polytope_contains

    # -- summary --------------------------------------------------------

    def layer_metrics(self, traced_wall, untraced_wall):
        calls, self_s = Counter(), Counter()
        top_level = 0.0
        for name, start, end, parent, _, child in self.spans:
            layer = layer_of(name)
            self_s[layer] += end - start - child
            if parent < 0:
                top_level += end - start
            # A query made by another query (membership -> contains) is
            # one call.
            if not (layer == "zerocell.query" and parent >= 0
                    and layer_of(self.spans[parent][0]) == layer):
                calls[layer] += 1
        c = self.counts
        values = {
            "empirical.uniform_sample.points": c["uniform_sample.points"],
            "empirical.uniform_sample.accept_ratio": _ratio(
                c["uniform_sample.kept"], c["uniform_sample.tested"]),
            "poisson.BoundarySampler.init_calls":
                calls["poisson.BoundarySampler.init"],
            "poisson.BoundarySampler.init_s":
                self_s["poisson.BoundarySampler.init"],
            "poisson.BoundarySampler.draw_s":
                self_s["poisson.BoundarySampler.draw"],
            "poisson.marks": c["marks"],
            "zerocell.constraints": c["constraints"],
            "zerocell.restrict.kept_ratio": _ratio(c["restrict.kept"],
                                                   c["restrict.input"]),
            "scipy.linprog.failed": c["linprog.failed"],
            "scipy.minimize.nfev": c["minimize.nfev"],
            "scipy.minimize.failed": c["minimize.failed"],
            "hulls.BallHullOracle.queries": c["ball_hull.queries"],
            "hulls.generic.inside": c["generic.inside"],
            "hulls.generic.outside": c["generic.outside"],
            "hulls.generic.unknown": c["generic.unknown"],
            "cli.out_bytes": c["out_bytes"],
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.coverage": _ratio(top_level, traced_wall),
        }
        out = {}
        for name, unit, _, _ in METRICS:
            if name in values:
                value = values[name]
            elif name.endswith(".calls"):
                value = calls[name[:-len(".calls")]]
            else:
                value = self_s[name[:-len(".self_s")]]
            out[name] = {"value": float(value), "unit": unit}
        return out

    def top_layers(self, n=3):
        """Per operation id, its n layers with the most self time."""
        per_op = {}
        for name, start, end, _, op, child in self.spans:
            per_op.setdefault(op, Counter())[layer_of(name)] += \
                end - start - child
        return {op: c.most_common(n) for op, c in per_op.items()}

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


def layer_of(name):
    if name in ZEROCELL_QUERIES:
        return "zerocell.query"
    if name.startswith("hulls.") and name[len("hulls."):] in CLOSED_FORMS:
        return "hulls.closed_form"
    if name.startswith("empirical.") and name[len("empirical."):] in \
            EXPERIMENTS:
        return "empirical.experiment"
    return name


def _ratio(num, den):
    return num / den if den else 0.0


def _count_sample(tracer, args, result):
    # A half-ball sample draws from the ball: count the outermost call.
    if tracer.parent_name() != "empirical.uniform_sample":
        tracer.counts["uniform_sample.points"] += len(result)
    if type(args[0]).__name__ == "Polytope":
        tracer.counts["uniform_sample.kept"] += len(result)


def _count_marks(tracer, args, result):
    tracer.counts["marks"] += len(result)


def _count_constraints(tracer, args, result):
    tracer.counts["constraints"] += result.n_constraints


def _count_restriction(tracer, args, result):
    tracer.counts["restrict.input"] += args[0].n_constraints
    tracer.counts["restrict.kept"] += result.n_constraints


def _count_lp(tracer, args, result):
    tracer.counts["linprog.failed"] += not result.success


def _count_minimize(tracer, args, result):
    tracer.counts["minimize.nfev"] += int(result.nfev)
    tracer.counts["minimize.failed"] += not result.success


def _count_queries(tracer, args, result):
    tracer.counts["ball_hull.queries"] += _rows(args[1])


def _count_verdict(tracer, args, result):
    tracer.counts[f"generic.{result[0]}"] += 1


def _count_out_bytes(tracer, args, result):
    argv = list(args[0]) if args else []
    for flag in ("--out", "--samples-out"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                tracer.counts["out_bytes"] += os.path.getsize(path)
