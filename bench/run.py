"""srmcmc benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --out DIR

Pins the BLAS and OpenMP thread pools to the CPUs this process may use,
before numpy loads, then hands over to ``harness.main``. The last line of
output is one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).
"""
import os
import sys

NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

if __name__ == "__main__":
    import harness
    sys.exit(harness.main())
