"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1`` from the repository root.

Prints a details line and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits non-zero without a
result when the program under ``src/`` cannot be imported.
"""

import os
import sys

# BLAS pinning must precede the first NumPy import.  One BLAS thread per
# process: the serial workloads use one core, and on the process backend
# the parent blocks in run_round while its two workers compute, so parent
# plus workers never run more compute threads than two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]

if __name__ == "__main__":
    # Import the program from this checkout only, never an installed copy.
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(f"perfbench: no program at {_ROOT}/src/repro", file=sys.stderr)
        sys.exit(2)
    try:
        from perfbench.bench import main
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
