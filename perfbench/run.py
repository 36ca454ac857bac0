"""Benchmark for mvke: run one workload and print its metrics.

From the root of the repository:

    python3 perfbench/run.py --workload train_mt --seed 0 --seconds 56 --trace 0

Workloads are ``train_mt`` and ``serve`` (see README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and writes its spans under ``perfbench/out``.
Earlier lines of standard output describe the run; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A failed check exits 1, a missing package exits 2.

BLAS and OpenMP are pinned to one thread before numpy loads, and the
package is imported from ``src`` beside this directory, so the numbers
cover library calls only: no interpreter or argparse start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOADS = ("train_mt", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "small"), default="full",
                   help="small runs every workload in seconds, for the tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mvke
    except ImportError as e:
        print(f"cannot import the mvke package from {src}: {e}", file=sys.stderr)
        return 2
    if not Path(mvke.__file__).resolve().is_relative_to(src):
        print(f"mvke was imported from {mvke.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import run_workload

    out_dir = HERE / "out"
    metrics, failures, info, tracer = run_workload(
        args.workload, args.scale, args.seed, args.seconds, bool(args.trace), out_dir)
    if tracer is not None:
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    info.update(workload=args.workload, seed=args.seed, scale=args.scale,
                nproc=len(os.sched_getaffinity(0)),
                blas_threads=int(os.environ["OPENBLAS_NUM_THREADS"]))
    print(json.dumps(info))
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(info["attempted"].values()),
        "failed": sum(info["failed"].values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
