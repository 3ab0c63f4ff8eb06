#!/usr/bin/env python3
"""Benchmark of polmodes: four seeded workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload dense-spectrum --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke          # every workload and check, < 1 min
    python3 perfbench/run.py --blas-sweep     # op rate per BLAS thread count
    python3 perfbench/run.py --big-solve      # one n=512 TM dense solve, per layer

Run from anywhere inside a checkout of the repository: the program is
imported from its `src/` and the CLI from `configs/`; the benchmark exits
with code 2 when they are missing. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread: on the 2-core reference machine two threads cost twice the
# CPU for at most 20% less wall time on the largest solve and lose on the
# smaller ones (README, "BLAS threads"). Must be set before numpy loads.
BLAS_THREADS = 1
WORKLOADS = ("dense-spectrum", "surface-sweep", "analytic-tables", "cli")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one round of every workload, all checks")
    p.add_argument("--blas-sweep", action="store_true", help="dense-spectrum at each BLAS thread count")
    p.add_argument("--big-solve", action="store_true", help="one n=512 TM dense solve, timed per layer")
    p.add_argument("--blas-threads", type=int, default=BLAS_THREADS, help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not (args.smoke or args.blas_sweep or args.big_solve or args.workload):
        p.error("give --workload, --smoke, --blas-sweep or --big-solve")

    threads = max(1, min(args.blas_threads, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)

    root = Path(__file__).resolve().parent.parent
    missing = [p for p in ("src/polmodes/__init__.py", "configs/default_interface.json")
               if not (root / p).is_file()]
    if missing:
        print(f"error: not a polmodes checkout, missing {', '.join(missing)} under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    from polbench import harness

    if args.smoke:
        return harness.smoke(root)
    if args.big_solve:
        return harness.big_solve()
    if args.blas_sweep:
        return harness.blas_sweep(root, int(args.seconds))
    return harness.run(args, root, threads)


if __name__ == "__main__":
    sys.exit(main())
