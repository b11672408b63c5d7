"""The t3 benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload sweep-vf --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``sweep-vf`` runs load_config ->
run_experiment1(workers=2) -> emit; ``bounds`` runs the soundness sweep with
the T = 2 tempered bounds and the witness rows; ``tinylm`` fits the tabular LM
on the demo corpus, then trains heads and reports over a T grid.

``--trace 0`` times passes of the workload, each in a fresh interpreter, for
``--seconds`` and prints the end-to-end metrics (medians over the passes):

    setup_s         fresh interpreter to the first op: imports and config load,
                    plus the corpus load and fit_lm on tinylm
    wall_s          a whole pass: setup, ops and output writing
    ops_per_s       ops that passed the gate per second of op time
    peak_rss_mb     peak RSS of the pass process plus that of its largest child
    completed_frac  ops that passed the gate over ops attempted

``--trace 1`` runs the workload in this process with ``spans.Recorder``
around each layer's public functions and prints the per-layer metrics; untraced
passes at the same settings, alternating with the traced ones, give
``trace.overhead_frac``.  On
sweep-vf it also makes one workers=2 pass in a fresh interpreter, whose CSV
must be byte-identical to the serial traced one.

Every pass goes through the gate in ``workloads.py``.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the full record, with
the environment block and every sample, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
PASS_TIMEOUT_S = 150
OVERHEAD_S = 10.0

sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


class PassError(RuntimeError):
    """A pass process crashed or timed out: no result to gate."""


def child_pass(workload: str, seed: int, out_dir: str, setup_only: bool = False) -> dict:
    """Run one_pass.py in a fresh interpreter; adds the spawn time."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--out", out_dir] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ)
    env.pop("T3_SEED", None)  # it would override the workload's base_seed
    spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and its pool workers
        proc.communicate()
        raise PassError(f"{workload} pass timed out after {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise PassError(f"{workload} pass exited {proc.returncode}:\n{err[-3000:]}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["spawn"] = spawn
    return rec


def timed(workload: str, seed: int, seconds: float) -> dict:
    """Fresh-interpreter passes for ``seconds``; end-to-end metrics."""
    start = time.perf_counter()
    out_dir = os.path.join(OUT, f"{workload}-s{seed}")
    setups = []
    for _ in range(SETUP_PROBES):
        r = child_pass(workload, seed, out_dir, setup_only=True)
        setups.append(r["first_op"] - r["spawn"])
    passes = []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(child_pass(workload, seed, out_dir))
    setups += [r["first_op"] - r["spawn"] for r in passes]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["end"] - r["spawn"] for r in passes), "s"),
        "ops_per_s": (statistics.median(
            (r["attempted"] - r["failed"]) / (r["ops_end"] - r["first_op"]) for r in passes
        ), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
        "completed_frac": ((attempted - failed) / attempted, "frac"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": [p for r in passes for p in r["problems"]],
        "env": passes[-1]["env"],
        "samples": {"setup_s": setups, "passes": passes},
    }


def traced(workload: str, seed: int) -> dict:
    """A warm-up pass, then traced in-process passes alternating with untraced
    ones at the same settings for at least ``OVERHEAD_S``; per-layer metrics
    of the first traced pass, overhead from the median walls."""
    import spans

    problems: list = []
    records = []
    w2 = None
    if workload == "sweep-vf":
        w2 = child_pass(workload, seed, os.path.join(OUT, f"{workload}-s{seed}-w2"))
        problems += w2["problems"]
        records.append(w2)

    def one_pass(label: str, recorder=None) -> dict:
        wl = workloads.WORKLOADS[workload]()
        out_dir = os.path.join(OUT, f"{workload}-s{seed}-{label}")
        extra = [("tinylm.op", wl, "run_op", True)] if workload == "tinylm" else []
        with recorder.patched(extra) if recorder else contextlib.nullcontext():
            start = time.perf_counter()
            wl.setup(seed)
            rec = workloads.run_pass(wl, 1, out_dir, problems, time.perf_counter)
        rec["wall"] = rec["end"] - start
        rec["failed"] = workloads.gate(wl, rec, problems)
        del rec["result"]
        records.append(rec)
        return rec

    one_pass("warmup")  # first-call costs land here, outside the comparison
    workloads.check_origin(ROOT)
    recorder = spans.Recorder()
    start = time.perf_counter()
    untraced = [one_pass("untraced")]
    traced_walls = []
    while not traced_walls or time.perf_counter() - start < OVERHEAD_S:
        # the per-layer figures come from the first traced pass; later pairs
        # only steady the overhead estimate of short workloads
        tr = one_pass("traced", spans.Recorder() if traced_walls else recorder)
        traced_walls.append(tr["wall"])
        untraced.append(one_pass("untraced"))
    untraced_wall = statistics.median(r["wall"] for r in untraced)
    traced_wall = statistics.median(traced_walls)

    if w2 is not None:
        for rec in (tr, untraced[-1]):
            if _read(rec["output"]) != _read(w2["output"]):
                problems.append(f"sweep-vf: serial CSV {rec['output']} differs from the "
                                f"workers=2 CSV {w2['output']}")
                rec["failed"] = rec["attempted"]
    metrics = spans.per_layer(recorder.spans, recorder.counts, traced_wall, untraced_wall)
    return {
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
        "problems": problems,
        "env": workloads.environment(ROOT, seed),
        "samples": {"passes": records, "spans": recorder.spans},
    }


def _read(path) -> bytes:
    if path is None:
        return b""
    with open(path, "rb") as fh:
        return fh.read()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "t3", "__init__.py")):
        print(f"perfbench: no t3 sources under {ROOT}/src; nothing to measure",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            res = traced(args.workload, args.seed)
        else:
            res = timed(args.workload, args.seed, args.seconds)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for msg in res["problems"]:
        print(f"GATE: {msg}", file=sys.stderr)
    correct = res["failed"] == 0 and not res["problems"]
    for name, (value, unit) in res["metrics"].items():
        print(f"{args.workload:>9} {name:<32} {value:>16.6g} {unit}")
    print(f"gate: {'pass' if correct else 'FAIL'}, "
          f"{res['failed']} of {res['attempted']} ops failed")
    print("env " + json.dumps(res["env"], sort_keys=True))
    path = os.path.join(OUT, f"result-{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "correct": correct, **res}, fh)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
