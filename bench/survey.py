#!/usr/bin/env python3
"""List the failures bwt shows on a workload, for ``known_failures.json``.

    python3 bench/survey.py --workload pairs --seeds 1 2 3

For each seed it builds the inputs, runs every operation of the workload
once and checks it exactly as a benchmark run does.  It prints each entry
(operation label, or ``seeded``; call; kind) that failed, with the number of
seeds it failed on, and as its last line the entries as one JSON list, in
the form of the workload's list in ``known_failures.json``.  The lists there
come from this script at the commit the benchmark was written against.  Run
it again when bwt's behaviour is meant to change, and not to make an
unexpected failure go away.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from collections import Counter
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["pairs", "barycenter", "cli"])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    sys.path[:0] = [str(run.SRC), str(HERE)]
    from ledger import Ledger

    work = run.ROOT / ".bench_work" / f"survey-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    seeds_seen: Counter = Counter()
    try:
        for seed in args.seeds:
            wl = run.make_workload(args.workload)
            wl.setup(seed, work)
            ledger = Ledger()
            run.run_timed(wl, 0.0, ledger)  # one pass, every output checked
            seeds_seen.update({ledger.entry(*key) for key in ledger.seen})
            print(f"seed {seed}: {ledger.n_failed} of {ledger.n_attempted} calls failed",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for (label, call, kind), n in sorted(seeds_seen.items()):
        print(f"  {label}: {call} {kind} on {n} of {len(args.seeds)} seeds")
    print(json.dumps([list(e) for e in sorted(seeds_seen)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
