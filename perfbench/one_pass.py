"""One workload pass in a fresh interpreter: setup, ops, output writing, gate.

    python3 perfbench/one_pass.py --workload sweep-vf --seed 3 --out DIR [--setup-only]

Prints one JSON line with ``time.perf_counter`` marks, which on Linux read
CLOCK_MONOTONIC and so compare with the marks of the process that spawned
this one, plus the op counts, the gate's problems and the peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (after the path so it finds this checkout's t3)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    wl = workloads.WORKLOADS[args.workload]().setup(args.seed)
    workloads.check_origin(ROOT)
    if args.setup_only:
        mark = time.perf_counter()
        print(json.dumps({"first_op": mark, "attempted": wl.attempted}))
        return 0
    problems: list = []
    rec = workloads.run_pass(wl, wl.workers, args.out, problems, time.perf_counter)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    rec["failed"] = workloads.gate(wl, rec, problems)
    del rec["result"]
    rec.update(peak_rss_mb=rss_kb / 1024.0, problems=problems,
               env=workloads.environment(ROOT, args.seed))
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
