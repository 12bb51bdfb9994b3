"""Benchmark entry point.

    python3 perfbench/run.py --workload {run118,sweep118,run14} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The process runs one workload, closed
loop with one client, and prints one JSON result as its last line; see
perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def prepare_process():
    """Pin BLAS and OpenMP to one thread and import jointgrid from this
    checkout's src/.  Must run before numpy is imported: on two cores the
    default thread pool measures the scheduler rather than the program."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


if __name__ == "__main__":
    prepare_process()
    import harness

    sys.exit(harness.main(sys.argv[1:]))
