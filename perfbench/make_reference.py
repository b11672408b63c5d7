"""Regenerate reference.json: the gate's expected outputs for every instance.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted; the gate then holds every
later commit to them.  sweep-vf stores its per-(v_f, T) cell means of retain
and forget error, tinylm the report values of every head and temperature.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    sweep, tiny = workloads.SweepVF(), workloads.TinyLM()
    ref = {
        "sweep-vf": {"trials": sweep.trials, "t_grid": None, "cells": {}},
        "tinylm": {"heads": tiny.heads, "temperatures": list(tiny.temperatures),
                   "reports": {}},
    }
    for i in range(workloads.POOL):
        sweep.setup(i)
        workloads.check_origin(ROOT)
        ref["sweep-vf"]["t_grid"] = [float(t) for t in sweep.config.t_grid]
        ref["sweep-vf"]["cells"][str(i)] = sweep.reference_entry(sweep.run(workers=2))
        tiny.setup(i)
        results = tiny.run(workers=1)
        if any(r is None for r in results):
            raise SystemExit(f"tinylm instance {i}: an op raised")
        ref["tinylm"]["reports"][str(i)] = tiny.reference_entry(results)
        print(f"instance {i} done", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
