"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-random --seed 2013 --seconds 20 --trace 0

Run from the root of a source checkout.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The full result -- raw samples,
provenance, spans -- is written under ``.perfbench/results/``.
"""

import os
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

#: One process, one thread per BLAS/OpenMP pool; set before numpy is imported.
THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "repro").is_dir() or not (root / "BENCHMARK.json").is_file():
        print(f"perfbench: {root} is not a source checkout (needs src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINNING)
    sys.path[:0] = [str(here), str(root / "src")]
    from hexbench.bench import main as bench_main

    return bench_main(sys.argv[1:], root, STARTED)


if __name__ == "__main__":
    sys.exit(main())
