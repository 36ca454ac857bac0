"""Run one workload over several seeds and report the spread of each metric.

From the root of the repository:

    python3 perfbench/spread.py --workload serve --seeds 0-9

Runs are sequential, one process each, of ``run_seconds`` from
``BENCHMARK.json``. For every end-to-end metric it prints the median, the
first and third quartiles (``statistics.quantiles(n=4)``) and the quartile
distance as a share of the median, beside the metric's bound.
``--json FILE`` also writes the raw values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    p.add_argument("--json", type=Path)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares = []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} runs of {seconds} s, "
          f"failed share {sorted(set(shares))}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.3f} {bounds[name]:>6}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                         "seconds": seconds, "values": values}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
