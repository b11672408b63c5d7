"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_high_percentile_leaves_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # unsorted on purpose
    assert spans.high_percentile(samples) == (90, 90)
    pct, value = spans.high_percentile(list(range(1, 25)))
    assert pct == 58  # 100 * 14 / 24 = 58.3; the 59th would leave only 9 beyond
    assert sum(x > value for x in range(1, 25)) == 10
    assert spans.high_percentile(list(range(1, 1001))) == (99, 990)


def test_high_percentile_needs_more_than_ten_samples():
    assert spans.high_percentile(list(range(10))) is None
    assert spans.high_percentile([]) is None
    assert spans.high_percentile(list(range(11))) == (9, 0)


def test_self_time_counts_overlapping_children_once():
    # parent 0..10; children 1..4 and 3..6 overlap, 8..12 runs past the parent
    tree = [
        ["parent", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 12.0, 0, 0],
        ["grandchild", 1.5, 2.0, 1, 0],
    ]
    own = spans.self_times(tree)
    assert own[0] == 10.0 - (5.0 + 2.0)
    assert own[1] == 3.0 - 0.5
    assert own[2] == 3.0 and own[3] == 4.0 and own[4] == 0.5


def test_covered_ignores_intervals_outside_the_span():
    assert spans.covered([(11.0, 12.0), (-3.0, -1.0)], 0.0, 10.0) == 0.0
    assert spans.covered([(2.0, 3.0), (2.0, 3.0)], 0.0, 10.0) == 1.0


class _AbortingSweep:
    attempted = 6

    def run(self, workers):
        raise RuntimeError("a worker raised; the whole sweep call is lost")

    def count_ok(self, result, problems):
        raise AssertionError("the gate must not look at a result that never came")


class _PartialSweep(_AbortingSweep):
    def run(self, workers):
        return ["op"] * 6

    def write(self, result, out_dir):
        return None

    def count_ok(self, result, problems):
        return 4


def _pass(workload):
    problems = []
    rec = workloads.run_pass(workload, 1, "unused", problems, iter(range(100)).__next__)
    return workloads.gate(workload, rec, problems), problems


def test_aborted_sweep_call_fails_every_op():
    failed, problems = _pass(_AbortingSweep())
    assert failed == 6
    assert "whole sweep call is lost" in problems[0]


def test_ops_that_fail_the_gate_count_as_failed():
    assert _pass(_PartialSweep())[0] == 2
    assert workloads.count_failed(6, ["x"], lambda r: 9) == 0
    assert workloads.count_failed(6, ["x"], lambda r: -1) == 6
