"""Span recorder and the per-layer metrics derived from its spans.

The recorder replaces each traced t3 function at the name its caller looks it
up by (``t3.harness.build``, not ``t3.estimator.build``; ``t3.estimator.quadrature``
and ``t3.bounds.quadrature``, since wrapping ``t3.dist.quadrature`` would see
no call) and restores them on exit.  A span is (name, start, end, parent, op);
spans stay in memory until the run ends.  Counts of integrand calls and
points come from wrapping the ``f`` handed to ``quadrature``, so they include
its one vectorisation probe per quadrature.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from contextlib import contextmanager

# (metric prefix, module, attribute path, opens an op)
TARGETS = (
    ("harness.build", "t3.harness", "build", False),
    ("harness.train", "t3.harness", "train", False),
    ("harness.estimate_excess_risk", "t3.harness", "estimate_excess_risk", False),
    ("harness.population_risk", "t3.harness", "population_risk", False),
    ("harness.lambda_search", "t3.harness", "lambda_search", False),
    ("harness.run_trial", "t3.harness", "run_trial", True),
    ("harness.retain_error", "t3.harness", "retain_error", False),
    ("harness.forget_error", "t3.harness", "forget_error", False),
    ("harness.soundness_reports", "t3.harness", "soundness_reports_for_classifier", True),
    ("estimator.quadrature", "t3.estimator", "quadrature", False),
    ("bounds.quadrature", "t3.bounds", "quadrature", False),
    ("bounds.thm4", "t3.bounds", "thm4_forget_bound", False),
    ("bounds.thm5", "t3.bounds", "thm5_retain_bound", False),
    ("dist.sample_labeled", "t3.dist", "Mixture.sample_labeled", False),
    ("tinylm.fit_lm", "t3.tinylm", "fit_lm", False),
    ("tinylm.train_head", "t3.tinylm", "train_head", False),
    ("tinylm.unlearning_report", "t3.tinylm", "unlearning_report", False),
    ("tinylm.tilted_next_token", "t3.tinylm", "tilted_next_token", False),
    ("emit.emit", "t3.emit", "emit", False),
)
QUADRATURES = ("estimator.quadrature", "bounds.quadrature")


class Recorder:
    """Spans as lists [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list = []
        self.counts = {"integrand_calls": 0, "integrand_points": 0}
        self._stack: list = []
        self._next_op = 0
        self.op = -1

    def wrap(self, name: str, fn, opens_op: bool = False, counts_integrand: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_integrand:
                args = (self._counted(args[0]),) + args[1:]
            outer_op = self.op
            if opens_op:
                self.op, self._next_op = self._next_op, self._next_op + 1
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self.op = outer_op

        return traced

    def _counted(self, f):
        counts = self.counts

        def integrand(x):
            counts["integrand_calls"] += 1
            counts["integrand_points"] += int(getattr(x, "size", 1))
            return f(x)

        return integrand

    @contextmanager
    def patched(self, extra=()):
        """Wrap every target (plus ``extra`` (name, owner, attribute,
        opens_op) tuples) for the duration of the block."""
        undo = []
        items = [(n, importlib.import_module(m), a, o) for n, m, a, o in TARGETS] + list(extra)
        try:
            for name, owner, attr, opens_op in items:
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                undo.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, opens_op, name in QUADRATURES))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)


def covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= max(a, reach):
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s[3], []).append((s[1], s[2]))
    return [
        (s[2] - s[1]) - covered(children.get(i, []), s[1], s[2])
        for i, s in enumerate(spans)
    ]


def high_percentile(samples: list, beyond: int = 10):
    """(pct, value) of the highest whole-number percentile that leaves at
    least ``beyond`` samples above it, by the nearest-rank rule; None when
    there are too few samples."""
    n = len(samples)
    if n <= beyond:
        return None
    pct = (100 * (n - beyond)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(samples)[rank - 1]


def per_layer(spans: list, counts: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.  Times
    are totals over the pass unless the name says otherwise; a layer the
    workload does not reach reads 0."""
    by_name: dict = {}
    selfs = self_times(spans)
    for s, own in zip(spans, selfs):
        by_name.setdefault(s[0], []).append((s[2] - s[1], own))

    def dur(name):
        return [d for d, _ in by_name.get(name, [])]

    def total_ms(*names):
        return 1e3 * math.fsum(d for n in names for d in dur(n))

    def calls(*names):
        return sum(len(dur(n)) for n in names)

    trial = [1e3 * d for d in dur("harness.run_trial")]
    trial_self = [1e3 * o for _, o in by_name.get("harness.run_trial", [])]
    high = high_percentile(trial) or (0, 0.0)
    lam = dur("harness.lambda_search")
    next_tok = dur("tinylm.tilted_next_token")
    points = counts["integrand_points"]
    m = {
        "harness.lambda_search_s": (statistics.fmean(lam) if lam else 0.0, "s"),
        "harness.lambda_search_calls": (len(lam), "count"),
        "harness.population_risk_ms": (total_ms("harness.population_risk"), "ms"),
        "harness.population_risk_calls": (calls("harness.population_risk"), "count"),
        "harness.run_trial_p50_ms": (statistics.median(trial) if trial else 0.0, "ms"),
        "harness.run_trial_high_ms": (high[1], "ms"),
        "harness.run_trial_high_pct": (high[0], "%"),
        "harness.run_trial_samples": (len(trial), "count"),
        "harness.run_trial_self_ms": (
            statistics.median(trial_self) if trial_self else 0.0, "ms"),
        "estimator.build_ms": (total_ms("harness.build"), "ms"),
        "estimator.build_calls": (calls("harness.build"), "count"),
        "dist.quadrature_calls": (calls(*QUADRATURES), "count"),
        "dist.quadrature_ms": (total_ms(*QUADRATURES), "ms"),
        "dist.integrand_calls": (counts["integrand_calls"], "count"),
        "dist.integrand_points": (points, "count"),
        "dist.points_per_call": (
            points / counts["integrand_calls"] if counts["integrand_calls"] else 0.0,
            "points/call"),
        "dist.sample_ms": (total_ms("dist.sample_labeled"), "ms"),
        "dist.sample_calls": (calls("dist.sample_labeled"), "count"),
        "classifier.train_ms": (total_ms("harness.train"), "ms"),
        "classifier.train_calls": (calls("harness.train"), "count"),
        "classifier.excess_risk_ms": (total_ms("harness.estimate_excess_risk"), "ms"),
        "classifier.excess_risk_calls": (calls("harness.estimate_excess_risk"), "count"),
        "metrics.retain_error_ms": (total_ms("harness.retain_error"), "ms"),
        "metrics.retain_error_calls": (calls("harness.retain_error"), "count"),
        "metrics.forget_error_ms": (total_ms("harness.forget_error"), "ms"),
        "metrics.forget_error_calls": (calls("harness.forget_error"), "count"),
        "bounds.thm4_ms": (total_ms("bounds.thm4"), "ms"),
        "bounds.thm5_ms": (total_ms("bounds.thm5"), "ms"),
        "bounds.quadrature_calls": (calls("bounds.quadrature"), "count"),
        "tinylm.fit_lm_ms": (total_ms("tinylm.fit_lm"), "ms"),
        "tinylm.train_head_ms": (total_ms("tinylm.train_head"), "ms"),
        "tinylm.train_head_calls": (calls("tinylm.train_head"), "count"),
        "tinylm.report_ms": (total_ms("tinylm.unlearning_report"), "ms"),
        "tinylm.report_calls": (calls("tinylm.unlearning_report"), "count"),
        "tinylm.next_token_calls": (len(next_tok), "count"),
        "tinylm.next_token_us": (
            1e6 * statistics.fmean(next_tok) if next_tok else 0.0, "us"),
        "emit.emit_ms": (total_ms("emit.emit"), "ms"),
        "trace.spans": (len(spans), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "frac"),
    }
    return m
