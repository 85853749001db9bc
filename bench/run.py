"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload onboard_full --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a JSON object with the details (machine, sample counts, p90 where
the rule allows one, checks, and the per-layer table).  Spans of a traced
run are written to ``.bench_out/`` in the checkout.  Workloads are listed
in ``bench/README.md``.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _single_blas_thread():
    """One BLAS thread.  On a shared 2-vCPU host two threads ran no faster
    and spread about three times as much from run to run."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "volcnn", "__init__.py")):
        print(f"no volcnn sources under {src}", file=sys.stderr)
        return 2
    _single_blas_thread()  # before numpy loads BLAS
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    detail, result = workloads.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), ROOT)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
