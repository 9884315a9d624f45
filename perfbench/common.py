"""Paths and the guarded import of khull shared by the benchmark scripts.

The benchmark runs from the root of a source checkout and imports the
package from its `src/` directory, never from an installed copy, so the
numbers always belong to the code in the checkout.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

# One BLAS/OpenMP thread: every workload is a single closed-loop client.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def pin_threads():
    """Pin the native thread pools to one thread; call before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_khull():
    """Import khull from the checkout's src/ directory."""
    init = os.path.join(SRC, "khull", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no khull sources at {init}")
    sys.path.insert(0, SRC)
    import khull
    import khull.cli  # the console script's module is not in __init__

    if os.path.abspath(khull.__file__) != init:
        raise BenchError(f"khull imported from {khull.__file__}, not {init}")
    return khull
