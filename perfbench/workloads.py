"""The three benchmark workloads and their correctness gate.

A pass is setup -> ops -> output writing, followed by the gate, which checks
the outputs and counts the ops that failed.  Every workload calls t3 through
module attributes (``harness.run_experiment1``, ``tinylm.train_head``, ...),
so the span recorder in ``spans.py`` sees each call when it patches them.

Inputs come from the workload seed alone: it reaches t3 only as
``ExperimentConfig.base_seed`` or as the seed of a head-training rng.  The
workloads with a committed reference (sweep-vf, tinylm) map the seed onto one
of ``POOL`` reference instances, ``seed % POOL``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import traceback
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

POOL = 16

# Cell means may move by reordered arithmetic (a batched quadrature moved Z by
# 2e-10 relative), but a Z that is wrong beyond ~1e-8 must fail the gate.
SWEEP_RTOL = 1e-8
SWEEP_ATOL = 1e-8
TINYLM_RTOL = 1e-6
NORMALIZE_TOL = 1e-12


def count_failed(attempted: int, result, count_ok: Callable) -> int:
    """Failed ops of one sweep call that attempted ``attempted`` ops.

    ``result`` is None when the call raised: no op was returned, so every
    attempted op failed.  Otherwise the ops that ``count_ok(result)`` does
    not pass failed.
    """
    if result is None:
        return attempted
    return attempted - min(max(count_ok(result), 0), attempted)


def _digits(x: float) -> float:
    """x to 12 significant digits: far inside every gate tolerance, and it
    keeps reference.json small."""
    return float(f"{x:.12g}")


def close(value: float, ref: float, rtol: float, atol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


@functools.lru_cache(maxsize=None)
def reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class SweepVF:
    """``t3 sweep-vf`` at the default config with fewer trials."""

    name = "sweep-vf"
    trials = 10
    workers = 2

    def setup(self, seed: int):
        from t3 import harness

        self.harness = harness
        self.instance = seed % POOL
        self.config = harness.load_config(
            None, {"trials": self.trials, "base_seed": self.instance}
        )
        return self

    @property
    def attempted(self) -> int:
        return len(self.config.v_f_grid) * self.config.trials

    def run(self, workers: int):
        return self.harness.run_experiment1(self.config, workers=workers)

    def write(self, table, out_dir: str) -> str:
        from t3 import emit

        return emit.emit(table, out_dir, "sweep_vf")["csv"]

    def count_ok(self, table, problems: list) -> int:
        cfg = self.config
        t_grid = [float(t) for t in cfg.t_grid]
        records = table.records
        expected = len(cfg.v_f_grid) * cfg.trials * len(t_grid)
        if len(records) != expected:
            problems.append(f"sweep-vf: {len(records)} records, expected {expected}")
        ref = reference()["sweep-vf"]
        if ref["trials"] != cfg.trials or ref["t_grid"] != t_grid:
            problems.append("sweep-vf: the reference was made at other settings")
            return 0
        cells = ref["cells"][str(self.instance)]
        ok = 0
        for gi, v_f in enumerate(cfg.v_f_grid):
            trials: dict = {}
            for r in records:
                if r.v_f == v_f:
                    trials.setdefault(r.seed, []).append(r)
            good = [
                rs
                for rs in trials.values()
                if [r.T for r in rs] == t_grid
                and all(math.isfinite(x) for r in rs for x in _record_values(r))
            ]
            if len(good) != len(trials) or len(trials) != cfg.trials:
                problems.append(
                    f"sweep-vf v_f={v_f}: {len(good)} complete finite trials of {cfg.trials}"
                )
            group_ok = True
            for ti in range(len(t_grid)):
                n = len(good)
                if n == 0:
                    group_ok = False
                    break
                ret = math.fsum(rs[ti].retain_err for rs in good) / n
                fog = math.fsum(rs[ti].forget_err for rs in good) / n
                ref_ret, ref_fog = cells[gi * len(t_grid) + ti]
                if not (
                    close(ret, ref_ret, SWEEP_RTOL, SWEEP_ATOL)
                    and close(fog, ref_fog, SWEEP_RTOL, SWEEP_ATOL)
                ):
                    problems.append(
                        f"sweep-vf v_f={v_f} T={t_grid[ti]}: cell means "
                        f"({ret!r}, {fog!r}) differ from reference ({ref_ret!r}, {ref_fog!r})"
                    )
                    group_ok = False
            if group_ok:
                ok += min(len(good), cfg.trials)
        return ok

    def reference_entry(self, table) -> list:
        n_t = len(self.config.t_grid)
        out = []
        for v_f in self.config.v_f_grid:
            rs = [r for r in table.records if r.v_f == v_f]
            for ti in range(n_t):
                cell = rs[ti::n_t]
                out.append([
                    _digits(math.fsum(r.retain_err for r in cell) / len(cell)),
                    _digits(math.fsum(r.forget_err for r in cell) / len(cell)),
                ])
        return out


def _record_values(r) -> tuple:
    return (r.delta_hat, r.delta_se, r.retain_err, r.retain_se, r.forget_err, r.forget_se)


class Bounds:
    """``t3 bounds --tempered-t 2``: the soundness sweep plus the witness rows."""

    name = "bounds"
    workers = 1
    classifiers = 5
    tempered_t = 2.0
    rows_per_classifier = (
        "retain_upper",
        "forget_upper",
        "classifier_l1_upper",
        "partition_lower",
        "retain_upper_tempered",
        "forget_upper_tempered",
        "partition_lower_tempered",
    )
    witness_rows = 10

    def setup(self, seed: int):
        from t3 import harness

        self.harness = harness
        self.config = harness.load_config(None, {"base_seed": seed})
        return self

    @property
    def attempted(self) -> int:
        return self.classifiers

    def run(self, workers: int):
        return self.harness.run_soundness_sweep(
            self.config, n_classifiers=self.classifiers, tempered_t=self.tempered_t
        )

    def write(self, reports, out_dir: str) -> str:
        """The bound_reports.csv that ``t3 bounds`` writes."""
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "bound_reports.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bound_name,bound_value,measured_value,measured_std_err,sound\n")
            for r in reports:
                fh.write(
                    f"{r.bound_name},{r.bound_value!r},{r.measured_value!r},"
                    f"{r.measured_std_err!r},{int(r.sound)}\n"
                )
        return path

    def count_ok(self, reports, problems: list) -> int:
        per = len(self.rows_per_classifier)
        expected = per * self.classifiers + self.witness_rows
        if len(reports) != expected:
            problems.append(f"bounds: {len(reports)} rows, expected {expected}")
            return 0

        def good(r) -> bool:
            values = (r.bound_value, r.measured_value, r.measured_std_err)
            if r.sound and all(math.isfinite(v) for v in values):
                return True
            problems.append(
                f"bounds: {r.bound_name} unsound or non-finite: measured="
                f"{r.measured_value!r} bound={r.bound_value!r} inputs={r.inputs}"
            )
            return False

        witness = reports[per * self.classifiers:]
        if not all([r.bound_name == "forget_lower_witness" and good(r) for r in witness]):
            problems.append("bounds: a witness row failed, so no op of the pass counts")
            return 0
        ok = 0
        for i in range(self.classifiers):
            rows = reports[i * per:(i + 1) * per]
            names_ok = tuple(r.bound_name for r in rows) == self.rows_per_classifier
            if not names_ok:
                problems.append(f"bounds: classifier {i} rows out of order")
            if all([good(r) for r in rows]) and names_ok:
                ok += 1
        return ok


class TinyLM:
    """``t3 tinylm`` on the demo corpus: one op is one head seed, trained and
    then reported over the temperature grid."""

    name = "tinylm"
    workers = 1
    heads = 4
    temperatures = (1.0, 1.5, 2.0, 3.0)
    order = 2
    smoothing = 1e-3
    lam = 1e-4
    epochs = 100
    hidden = 16

    def setup(self, seed: int):
        import numpy as np
        from t3 import tinylm

        self.np = np
        self.tinylm = tinylm
        self.instance = seed % POOL
        self.corpus = tinylm.demo_corpus()
        self.lm = tinylm.fit_lm(
            self.corpus.all_docs(), self.order, self.smoothing, self.corpus.vocab
        )
        c = self.corpus
        self.reference_lm = tinylm.fit_lm(
            c.docs("retain") + c.docs("ra") + c.docs("wf"), self.order, self.smoothing, c.vocab
        )
        self.stream = tinylm.head_training_stream(self.corpus, self.order)
        return self

    @property
    def attempted(self) -> int:
        return self.heads

    def head_seed(self, i: int) -> int:
        return 1000 * self.instance + i

    def run_op(self, i: int):
        head = self.tinylm.train_head(
            self.lm,
            self.stream,
            lam=self.lam,
            epochs=self.epochs,
            rng=self.np.random.default_rng(self.head_seed(i)),
            hidden=self.hidden,
        )
        reports = [
            self.tinylm.unlearning_report(self.lm, head, self.corpus, T, self.reference_lm)
            for T in self.temperatures
        ]
        return head, reports

    def run(self, workers: int):
        """One entry per head: (head, reports), or None when the op raised."""
        out = []
        for i in range(self.heads):
            try:
                out.append(self.run_op(i))
            except Exception:  # one failed head must not hide the others
                traceback.print_exc()
                out.append(None)
        return out

    def write(self, results, out_dir: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "tinylm_reports.json")
        rows = [
            {"head_seed": self.head_seed(i), "reports": [_report_values(r) for r in res[1]]}
            for i, res in enumerate(results)
            if res is not None
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
        return path

    def contexts(self) -> list:
        """Every context the report scores or decodes from."""
        seen = {}
        for split in self.tinylm.SPLITS:
            for qa in self.corpus.pairs(split):
                for cont in (qa.answer, qa.paraphrase, *qa.perturbed):
                    seq = qa.question + cont
                    for k in range(len(qa.question), len(seq)):
                        seen.setdefault(seq[:k], None)
        return list(seen)

    def count_ok(self, results, problems: list) -> int:
        ref = reference()["tinylm"]
        if ref["heads"] != self.heads or ref["temperatures"] != list(self.temperatures):
            problems.append("tinylm: the reference was made at other settings")
            return 0
        refs = ref["reports"][str(self.instance)]
        contexts = self.contexts()
        ok = 0
        for i, res in enumerate(results):
            if res is None:
                problems.append(f"tinylm head {i}: raised")
                continue
            head, reports = res
            good = True
            for T, rep, expected in zip(self.temperatures, reports, refs[i]):
                values = _report_values(rep)
                if not _report_in_range(values):
                    problems.append(f"tinylm head {i} T={T}: report out of range {values}")
                    good = False
                if len(values) != len(expected) or not all(
                    close(v, r, TINYLM_RTOL, 0.0) for v, r in zip(values, expected)
                ):
                    problems.append(
                        f"tinylm head {i} T={T}: report {values} != reference {expected}")
                    good = False
                worst = max(
                    abs(math.fsum(self.tinylm.tilted_next_token(self.lm, head, ctx, T)) - 1.0)
                    for ctx in contexts
                )
                if not worst <= NORMALIZE_TOL:
                    problems.append(f"tinylm head {i} T={T}: a tilted row sums to 1 +- {worst:.3g}")
                    good = False
            ok += good
        return ok

    def reference_entry(self, results) -> list:
        return [[[_digits(v) for v in _report_values(r)] for r in res[1]] for res in results]


def _report_values(rep: dict) -> list:
    """The report's numbers in a fixed order: T, FQ, D_KS, MU, MU-ROUGE, the
    nine per-split values, the forget-probability reduction and the share of
    unchanged retain decodes."""
    out = [rep["temperature"], rep["forget_quality"], rep["ks_statistic"],
           rep["model_utility"], rep["mu_rouge"]]
    for split in ("retain", "ra", "wf"):
        out.extend(rep["per_split"][split])
    out += [rep["min_forget_prob_reduction"], rep["retain_greedy_unchanged"]]
    return [float(v) for v in out]


def _report_in_range(values: list) -> bool:
    unit = values[1:-2] + values[-1:]
    return (
        all(math.isfinite(v) for v in values)
        and all(0.0 <= v <= 1.0 for v in unit)
        and values[-2] > 0.0
    )


WORKLOADS = {w.name: w for w in (SweepVF, Bounds, TinyLM)}


def check_origin(root: str) -> None:
    """Exit unless t3 was imported from this checkout's src/."""
    import t3

    src = os.path.join(root, "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(t3.__file__))) != src:
        raise SystemExit(f"t3 was imported from {t3.__file__}, not from {src}")


def run_pass(workload, workers: int, out_dir: str, problems: list, clock: Callable) -> dict:
    """ops -> output writing on a set-up workload, with ``clock`` marks."""
    marks = {"first_op": clock()}
    try:
        result = workload.run(workers)
    except Exception:  # the benchmark reports the failure instead of dying
        problems.append(traceback.format_exc(limit=4))
        result = None
    marks["ops_end"] = clock()
    output = workload.write(result, out_dir) if result is not None else None
    marks["end"] = clock()
    return {**marks, "attempted": workload.attempted, "output": output, "result": result}


def gate(workload, record: dict, problems: list) -> int:
    """The correctness gate on one pass: returns its failed op count."""
    return count_failed(
        record["attempted"], record["result"], lambda r: workload.count_ok(r, problems)
    )


def environment(root: str, seed: int) -> dict:
    """What the figures depend on besides the code: cores, interpreter, numpy
    and its BLAS, the BLAS thread variables, the git revision and the seed."""
    import platform
    import subprocess

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        blas = "unknown"
    rev, dirty = None, None
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), root):
            rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
            dirty = bool(subprocess.run(["git", "-C", root, "status", "--porcelain"],
                                        capture_output=True, text=True, timeout=10).stdout)
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "git_rev": rev,
        "git_dirty": dirty,
        "seed": seed,
    }
