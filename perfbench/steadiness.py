"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --seeds 10 [--workloads sweep-vf bounds] [--out FILE]

For each workload: ``--seeds`` timed runs (seeds 0, 1, ...)
give each end-to-end metric's median, quartiles and spread, the distance
between the quartiles as a share of the median, checked against a third of
the metric's bound in BENCHMARK.json; then two traced runs on the first seed
give the per-layer numbers and show that the exact counts repeat.  The summary
is printed and written as JSON; exit status 1 means not steady or not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# counts that must read the same in two traced runs of one seed
EXACT_COUNTS = ("estimator.build_calls", "dist.quadrature_calls", "dist.integrand_calls",
                "dist.integrand_points", "bounds.quadrature_calls", "tinylm.next_token_calls")


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(next(x for x in lines if x.startswith("env "))[4:])
    return result


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_out", "steadiness.json"))
    args = p.parse_args()

    summary = {}
    steady = True
    for wl in args.workloads:
        seeds = list(range(args.seeds))
        results = [run(spec, wl, s, 0) for s in seeds]
        row = {"why": next(w["why"] for w in spec["workloads"] if w["name"] == wl),
               "seeds": seeds, "correct": all(r["correct"] for r in results),
               "end_to_end": {}}
        steady &= row["correct"]
        for m in spec["end_to_end"]:
            st = spread([r["metrics"][m["name"]]["value"] for r in results])
            st["bound"] = m["bound"]
            row["end_to_end"][m["name"]] = st
            ok = m["name"] == "setup_s" or st["spread"] < m["bound"] / 3
            steady &= ok
            print(f"{wl:>9} {m['name']:<16} median {st['median']:<12.6g} "
                  f"spread {st['spread']:.4f}  bound/3 {m['bound'] / 3:.4f}"
                  f"{'' if ok else '  NOT STEADY'}")
        row["env"] = results[-1]["env"]
        if not args.no_trace:
            first, second = run(spec, wl, seeds[0], 1), run(spec, wl, seeds[0], 1)
            row["traced_seed"] = seeds[0]
            row["per_layer"] = first["metrics"]
            row["exact_counts_repeat"] = all(
                first["metrics"][k] == second["metrics"][k] for k in EXACT_COUNTS)
            steady &= first["correct"] and second["correct"] and row["exact_counts_repeat"]
            print(f"{wl:>9} traced twice: exact counts "
                  f"{'repeat' if row['exact_counts_repeat'] else 'DIFFER'}")
        summary[wl] = row
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"wrote {args.out}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
