#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload barycenter --seeds 1 2 3 4 5 --seconds 20

For every metric it prints the median of the per-run values and the
distance between their first and third quartiles (``statistics.quantiles``
with n=4) as a share of that median, next to the metric's bound from
``BENCHMARK.json``.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    for wl in args.workload:
        values: dict = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            res = json.loads(last) if proc.returncode == 0 else {}
            if not res.get("correct"):
                print(f"{wl} seed {seed}: exit {proc.returncode}, result {last}\n{proc.stderr}")
                status = 1
                continue
            print(f"{wl} seed {seed}: attempted {res['attempted']} failed {res['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()))
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(k)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above a third of bound"
            print(f"  {wl} {k}: median {med:.6g} spread {spread:.4f} bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
