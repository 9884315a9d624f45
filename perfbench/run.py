"""khull benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --workload all    # every workload, one table

Run from the root of a source checkout; khull is imported from `src/`.
Set-up (`setup_s`) times fresh interpreters that import khull and write the
workload's inputs from the seed, three times, and reports the median.  The
measured process then repeats the workload's operation sequence (a pass)
while another pass still fits in `--seconds`, at least once, and reports
the median pass.  Every operation's output is checked; the last line of
standard output is one JSON object with the result.

With `--trace 1` the run makes one untraced and one traced pass and
reports the per-layer metrics of the traced pass instead.  Spans, output
digests and the environment are written under `.perfbench-work/`.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from common import (ROOT, THREAD_VARS, WORK, BenchError, import_khull,
                    pin_threads)

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("limit-laws", "cell-stream", "cell-bulk", "geometry")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_setup(workload, seed, inputs, repeats):
    """Time `repeats` fresh set-ups; every one must write the same inputs."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "inputs.py")
    times, digests = [], set()
    for _ in range(repeats):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, script, "--workload", workload,
                        "--seed", str(seed), "--out", inputs], cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - start)
        digests.add(digest_dir(inputs))
    if len(digests) != 1:
        raise BenchError("the same seed gave different inputs")
    return times


class Pass:
    """One run of a workload's operation sequence."""

    def __init__(self, ops, tracer=None):
        self.failures = {}  # op name -> (kind, message)
        self.digests = {}
        self.op_seconds = {}
        gc.collect()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for op_id, op in enumerate(ops):
            start = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.op = op_id
                try:
                    result = op.run()
                finally:
                    if tracer is not None:
                        tracer.op = None
                payload = op.check(result)
                self.digests[op.name] = hashlib.sha256(payload).hexdigest()
            except Exception as exc:  # count it and go on with the next op
                self.failures[op.name] = (type(exc).__name__, str(exc))
                if type(exc).__name__ not in ("CheckFailed", "GateFailed"):
                    traceback.print_exc(file=sys.stderr)
            self.op_seconds[op.name] = time.perf_counter() - start
        self.wall = time.perf_counter() - wall0
        self.cpu = time.process_time() - cpu0


def environment(khull):
    import numpy
    import scipy

    sha = None  # not a git checkout: do not let git search parent dirs
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "khull": khull.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run_workload(args):
    pin_threads()
    khull = import_khull()
    import tracing  # these import numpy, so only after pin_threads
    import workloads

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    os.makedirs(out)
    setup = run_setup(args.workload, args.seed, inputs,
                      1 if args.trace else SETUP_REPEATS)
    ops = workloads.WORKLOADS[args.workload](khull, inputs, out)

    passes = []
    deadline = time.perf_counter() + args.seconds
    tracer = None
    while True:
        passes.append(Pass(ops))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(khull)
            passes.append(Pass(ops, tracer))
            break
        if time.perf_counter() + passes[-1].wall > deadline:
            break

    # A failed operation counts once per pass; a digest that changes
    # between passes of the same inputs is a failed check too.
    attempted = len(ops) * len(passes)
    failed, correct = 0, True
    for p in passes:
        for name, digest in p.digests.items():
            if digest != passes[0].digests.get(name, digest):
                p.failures[name] = ("CheckFailed",
                                    "output differs from the first pass")
        failed += len(p.failures)
        correct &= all(kind == "GateFailed" for kind, _ in
                       p.failures.values())

    record = {"workload": args.workload, "seed": args.seed,
              "environment": environment(khull), "setup_s": setup,
              "passes": [{"wall_s": p.wall, "cpu_s": p.cpu,
                          "op_seconds": p.op_seconds,
                          "failures": p.failures} for p in passes],
              "digests": passes[0].digests}
    with open(os.path.join(work, "record.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    if args.trace:
        metrics = tracer.layer_metrics(passes[1].wall, passes[0].wall)
        tracer.write_spans(os.path.join(work, "spans.csv"))
        moves = {name: m for name, _, _, m in tracing.METRICS}
    else:
        values = {"wall_s": statistics.median(p.wall for p in passes),
                  "setup_s": statistics.median(setup),
                  "cpu_s": statistics.median(p.cpu for p in passes),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        moves = {}

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} "
          f"operations x {len(passes)} pass(es), trace {args.trace}")
    for name, m in metrics.items():
        note = f"  -> {moves[name]}" if name in moves else ""
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}{note}")
    if args.trace:
        print("  self time by operation (traced pass), top layers:")
        for op_id, top in sorted(tracer.top_layers().items()):
            total = passes[1].op_seconds[ops[op_id].name]
            print(f"    {ops[op_id].name:28s} " + ", ".join(
                f"{layer} {s:.3g}s ({s / total:.0%})" for layer, s in top))
    print(f"  {'error_rate':42s} {failed / attempted:14.6g} "
          f"({failed} failed of {attempted} attempted)")
    for p in passes:
        for name, (kind, message) in p.failures.items():
            print(f"  FAILED {name}: {kind}: {message}")
    print(f"  record: {os.path.relpath(work, ROOT)}/record.json")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in its own process; a table of the end-to-end metrics."""
    rows, result = [], {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        result["correct"] &= res["correct"]
        result["attempted"] += res["attempted"]
        result["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = m
        rows.append((name, res))
    header = ["workload"] + [f"{n} ({u})" for n, u in END_TO_END] + [
        "error_rate"]
    print("  ".join(f"{h:>16s}" for h in header))
    for name, res in rows:
        cells = [f"{res['metrics'][n]['value']:16.4f}" for n, _ in END_TO_END]
        rate = res["failed"] / res["attempted"]
        print("  ".join([f"{name:>16s}"] + cells + [f"{rate:16.4f}"]))
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run_all(args) if args.workload == "all" \
            else run_workload(args)
    except (BenchError, subprocess.CalledProcessError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
