"""Seeding, config parsing, the regularization search, trial independence,
CSV/SVG emission, and cross-worker determinism."""

import math
import multiprocessing
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

from t3 import _kernels
from t3.classifier import QuadClassifier, cross_entropy_terms, witness_classifier
from t3.dist import GaussianComponent, Mixture, UniformComponent
from t3.emit import emit, write_csv
from t3.harness import (
    CSV_HEADER,
    ExperimentConfig,
    SweepTable,
    TrialRecord,
    derive_seed,
    lambda_search,
    load_config,
    population_risk,
    run_experiment1,
    run_experiment2,
    run_soundness_sweep,
    run_trial,
)

FAST = replace(
    ExperimentConfig(),
    trials=3,
    n_mc=2_000,
    n_mc_risk=2_000,
    lambda_grid=(1e-4, 1e-2),
    lambda_search_trials=2,
    v_f_grid=(1e-3, 1.0),
    t_grid=(1.0, 2.0, 3.0),
    n=40,
    base_seed=99,
)

FAST_CONFIG_TEXT = """\
# fast determinism config
trials = 3
n = 40
n_mc = 2000            # per metric
n_mc_risk = 2000
lambda_grid = 1e-4, 1e-2
lambda_search_trials = 2
v_f_grid = 1e-3, 1.0
t_grid = 1.0, 2.0, 3.0
base_seed = 99
"""


class TestSeeding:
    def test_derive_seed_deterministic_and_spread(self):
        a = derive_seed(1234, 10, 0)
        b = derive_seed(1234, 10, 0)
        c = derive_seed(1234, 10, 1)
        d = derive_seed(1235, 10, 0)
        assert a == b
        assert len({a, c, d}) == 3
        assert all(0 <= s < 2**64 for s in (a, c, d))

    def test_trial_independence(self):
        r0_alone = run_trial(FAST, 1e-3, 40, 1e-3, 10, 0)
        r0_with_others = [run_trial(FAST, 1e-3, 40, 1e-3, 10, i) for i in range(3)][0]
        for a, b in zip(r0_alone, r0_with_others):
            assert a.csv_row() == b.csv_row()

    def test_run_trial_matches_metric_functions(self):
        # replaying the trial's rng stream through the public functions, in
        # its draw order, must reproduce its record exactly
        from t3.classifier import LabeledDataset, bayes_classifier, estimate_excess_risk, train
        from t3.estimator import build
        from t3.metrics import forget_error, retain_error

        cfg = replace(FAST, t_grid=(1.7,))
        [rec] = run_trial(cfg, 1e-3, 40, 1e-3, 10, 2)

        rng = np.random.default_rng(derive_seed(cfg.base_seed, 10, 2))
        m = cfg.mixture(1e-3)
        data = LabeledDataset.from_mixture(m, 40, rng)
        clf = train(data, 1e-3)
        d_hat, d_se = estimate_excess_risk(clf, m, bayes_classifier(m), cfg.n_mc_risk, rng)
        assert (d_hat, d_se) == (rec.delta_hat, rec.delta_se)

        # run_trial draws its retain sample, then its forget sample
        est = build(m, clf, [1.7])
        (ret,) = retain_error(est, cfg.n_mc, rng)
        (fog,) = forget_error(est, cfg.n_mc, rng)
        assert (ret.value, ret.std_err) == (rec.retain_err, rec.retain_se)
        assert (fog.value, fog.std_err) == (rec.forget_err, rec.forget_se)


@pytest.mark.skipif(not _kernels.HEAP_KEEPS_FREED_ARRAYS, reason="the C library has no mallopt")
def test_a_warm_trial_takes_under_100_minor_page_faults():
    # the heap keeps the trial's freed 800 KB Monte Carlo arrays, so a trial
    # run again on the same sizes reuses their pages instead of faulting
    # fresh ones in (default glibc settings: several hundred faults)
    cfg = replace(ExperimentConfig(), t_grid=(1.0, 1.5, 2.0))
    for _ in range(2):
        run_trial(cfg, 1e-3, 50, 1e-3, 10, 0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_trial(cfg, 1e-3, 50, 1e-3, 10, 0)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


class TestTrialFailure:
    def test_failing_trial_names_itself(self, monkeypatch):
        from t3 import harness
        from t3.classifier import LabeledDataset, TrainingError

        cfg = replace(FAST, v_f_grid=(1e-3,))
        seed = derive_seed(cfg.base_seed, 10, 1)
        doomed = LabeledDataset.from_mixture(cfg.mixture(1e-3), cfg.n, np.random.default_rng(seed)).z
        real_train = harness.train

        def train(data, lam):
            if np.array_equal(data.z, doomed):
                raise TrainingError("injected")
            return real_train(data, lam)

        monkeypatch.setattr(harness, "train", train)
        with pytest.raises(RuntimeError, match=rf"trial 1 of stream 10 failed \(seed {seed}\)") as info:
            run_experiment1(cfg, workers=1)
        assert isinstance(info.value.__cause__, TrainingError)
        assert "run_trial(config, 0.001, 40, " in str(info.value)
        assert f"base_seed={cfg.base_seed}" in str(info.value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_lambda_search_fit_names_itself(self, monkeypatch, workers):
        from t3 import harness
        from t3.classifier import LabeledDataset, TrainingError

        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched train reaches pool workers only through fork")
        cfg = replace(FAST, v_f_grid=(1e-3,))
        seed = derive_seed(cfg.base_seed, 10, 1_000 + 1, 1)
        doomed = LabeledDataset.from_mixture(cfg.mixture(1e-3), cfg.n, np.random.default_rng(seed)).z
        real_train = harness.train

        def train(data, lam):
            if np.array_equal(data.z, doomed):
                raise TrainingError("injected")
            return real_train(data, lam)

        monkeypatch.setattr(harness, "train", train)
        with pytest.raises(RuntimeError) as info:
            run_experiment1(cfg, workers=workers)
        msg = str(info.value)
        assert msg.startswith(
            f"lambda-search fit 1 at lambda[1] = 0.01 of stream 10 failed (seed {seed}): "
            "TrainingError('injected')"
        )
        assert msg.endswith("replay with lambda_search(config, 0.001, 40, 10) at base_seed=99")
        if workers == 1:
            assert isinstance(info.value.__cause__, TrainingError)


class TestConfig:
    def test_parse_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(FAST_CONFIG_TEXT)
        cfg = load_config(str(path))
        assert cfg.trials == 3
        assert cfg.n == 40
        assert cfg.lambda_grid == (1e-4, 1e-2)
        assert cfg.t_grid == (1.0, 2.0, 3.0)
        assert cfg.base_seed == 99

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("trials = 3\nn_mc = 1e5\n",
             r":2: bad value for 'n_mc': invalid literal for int\(\) with base 10: '1e5'$"),
            ("v_f_grid = 1e-3, abc\n",
             r":1: bad value for 'v_f_grid': could not convert string to float: 'abc'$"),
        ],
    )
    def test_unparseable_value_names_file_line_and_key(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{message}"):
            load_config(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("n_mc = 5\n# again\nn_mc = 7\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: config key 'n_mc' "
                                             "repeats line 1$"):
            load_config(str(path))

    def test_rejects_nonpositive_n(self):
        for bad in ({"n": 0}, {"n_grid": (25, 0)}):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [{"t_grid": (1.0, float("nan"))}, {"t_grid": (float("inf"),)}, {"n_mc": 1},
         {"n_mc_risk": 1}, {"lambda_search_trials": 0}, {"lambda_grid": ()}, {"t_grid": ()},
         {"v_f_grid": ()}, {"n_grid": ()}, {"gamma": 1.5}, {"v_f_grid": (1e-3, 0.0)},
         {"v_f": -1.0}, {"lambda_grid": (-1e-3,)}, {"lambda_grid": (float("nan"),)},
         {"lambda_grid": (1e-3, float("inf"))}],
    )
    def test_rejects_out_of_domain_fields(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "key, grid, value",
        [("t_grid", (1.0, 1.0, 2.0), "1.0"), ("v_f_grid", (1.0, 1e-3, 1.0), "1.0"),
         ("n_grid", (25, 50, 25), "25"), ("lambda_grid", (0.01, 0.01), "0.01")],
    )
    def test_rejects_a_repeated_grid_value(self, key, grid, value):
        # a repeat once merged groups in group_values and counted each trial
        # twice, or gave one lambda a second, differently seeded search entry
        with pytest.raises(ValueError, match=f"^{key} repeats the value {re.escape(value)}$"):
            ExperimentConfig(**{key: grid})

    def test_every_field_parses_back_with_its_annotated_type(self, tmp_path, monkeypatch):
        monkeypatch.delenv("T3_SEED", raising=False)
        lines = []
        for f in fields(FAST):
            value = getattr(FAST, f.name)
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{f.name} = {text}\n")
        path = tmp_path / "all.txt"
        path.write_text("".join(lines))
        cfg = load_config(str(path))
        assert cfg == FAST
        # == alone would let an int field come back as an equal float
        for name, kind in get_type_hints(ExperimentConfig).items():
            value = getattr(cfg, name)
            if get_args(kind):
                assert {type(v) for v in value} == {get_args(kind)[0]}, name
            else:
                assert type(value) is kind, name
        assert type(cfg.n) is int and type(cfg.n_grid[0]) is int and type(cfg.gamma) is float

    def test_readme_config_block_is_the_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv("T3_SEED", raising=False)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config file", 1)[1].split("```\n", 2)[1]
        assert block.startswith("gamma = ")
        path = tmp_path / "readme.txt"
        path.write_text(block)
        assert load_config(str(path)) == ExperimentConfig()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.txt"
        path.write_text("base_seed = 7\n")
        monkeypatch.setenv("T3_SEED", "4242")
        cfg = load_config(str(path))
        assert cfg.base_seed == 4242

    def test_env_seed_that_is_not_an_integer_is_named(self, monkeypatch):
        monkeypatch.setenv("T3_SEED", "abc")
        with pytest.raises(ValueError, match=r"^T3_SEED must be an integer, got 'abc'$"):
            load_config()


class TestLambdaSearch:
    def test_single_element_grid(self):
        cfg = replace(FAST, lambda_grid=(0.3,))
        assert lambda_search(cfg, 1e-3, 40, stream_tag=1) == 0.3

    def test_separated_risks_pick_lower(self):
        # a huge coefficient collapses the classifier to 0.5; risk difference
        # is many standard errors, so the search must pick the smaller one
        cfg = replace(FAST, lambda_grid=(1e-3, 1e6), lambda_search_trials=3)
        assert lambda_search(cfg, 1.0, 200, stream_tag=2) == 1e-3

    def test_tied_risks_pick_the_larger_lambda_in_either_grid_order(self, monkeypatch):
        # the tie once went to the later grid entry, whatever its value
        from t3 import harness

        monkeypatch.setattr(harness, "population_risk", lambda clf, m, n_mc, rng: 0.5)
        for grid in ((1e-2, 1e-4), (1e-4, 1e-2)):
            assert lambda_search(replace(FAST, lambda_grid=grid), 1e-3, 40, stream_tag=1) == 1e-2

    def test_deterministic(self):
        a = lambda_search(FAST, 1e-3, 40, stream_tag=3)
        b = lambda_search(FAST, 1e-3, 40, stream_tag=3)
        assert a == b


class TestPopulationRisk:
    MIXTURES = [
        Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-3)),
        Mixture(0.3, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0)),
    ]
    CLASSIFIERS = [
        QuadClassifier(weights=np.array([0.4, -1.5, 2.0])),
        witness_classifier(0.01, 0.3, (2.0, 3.0), (0.0, 1.0)),
    ]

    @staticmethod
    def fresh(clf, m, n, seed):
        z, s = m.sample_labeled(np.random.default_rng(seed), n)
        return float(np.mean(cross_entropy_terms(clf, z, s)))

    @pytest.mark.parametrize("case", [0, 1])
    def test_matches_the_fresh_array_mean(self, case):
        m, clf = self.MIXTURES[case], self.CLASSIFIERS[case]
        for n, seed in ((1, 0), (7, 1), (20_000, 2)):
            risk = population_risk(clf, m, n, np.random.default_rng(seed))
            assert risk == self.fresh(clf, m, n, seed)

    def test_a_warm_call_peaks_under_3_2_float_arrays(self):
        # the sample (z and its mask) plus the two arrays that the
        # cross-entropy chain runs in: the peak traced allocation stays under
        # 3.2 float64 arrays of n_mc, so no n-sized temporary is added
        n = 100_000
        m, clf = self.MIXTURES[0], self.CLASSIFIERS[0]
        population_risk(clf, m, n, np.random.default_rng(0))
        tracemalloc.start()
        try:
            population_risk(clf, m, n, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * 8 * n

    @pytest.mark.parametrize("n_mc", [0, -1])
    def test_rejects_fewer_than_one_draw(self, n_mc):
        with pytest.raises(ValueError, match=f"n_mc must be >= 1, got {n_mc}"):
            population_risk(self.CLASSIFIERS[0], self.MIXTURES[0], n_mc, np.random.default_rng(0))


class TestSweepTable:
    def test_mean_curve_and_argmin(self):
        table = run_experiment1(FAST, workers=1)
        assert table.group_values() == [1e-3, 1.0]
        ts, means, ses = table.mean_curve(1.0, "forget")
        assert ts == [1.0, 2.0, 3.0]
        assert len(means) == 3 and all(s >= 0 for s in ses)
        cells = [[r.forget_err for r in table.records if r.v_f == 1.0 and r.T == t] for t in ts]
        assert means == [float(np.mean(errs)) for errs in cells]
        # one trial has no spread to report
        one = SweepTable(sweep_key="v_f", records=table.records[:1])
        assert one.mean_curve(1e-3, "retain") == ([1.0], [table.records[0].retain_err], [0.0])


class TestEmit:
    def _tiny_table(self):
        rec = TrialRecord(
            seed=5, v_f=0.1, n=7, T=1.5, lam=1e-3,
            delta_hat=0.01, delta_se=0.001,
            retain_err=0.02, retain_se=0.002,
            forget_err=0.03, forget_se=0.003,
        )
        return SweepTable(sweep_key="v_f", records=(rec,))

    def test_csv_header_is_the_readme_schema(self):
        # CSV_HEADER comes from the TrialRecord fields, so reordering a field
        # changes the schema the README states
        header = "seed,v_f,n,T,lambda,delta_hat,delta_se,retain_err,retain_se,forget_err,forget_se"
        assert CSV_HEADER == header
        assert f"`{header}`" in (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def test_csv_header_and_roundtrip(self, tmp_path):
        table = self._tiny_table()
        path = tmp_path / "t.csv"
        write_csv(table, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        rec = table.records[0]
        assert int(fields[0]) == rec.seed
        assert float(fields[1]) == rec.v_f
        assert float(fields[3]) == rec.T
        assert float(fields[5]) == rec.delta_hat  # repr round-trips bit-exactly
        assert float(fields[9]) == rec.forget_err

    @staticmethod
    def _explicit_csv_row(rec):
        # the formatter that named each column, before csv_row followed the fields
        return ",".join(
            (
                str(rec.seed),
                repr(rec.v_f),
                str(rec.n),
                repr(rec.T),
                repr(rec.lam),
                repr(rec.delta_hat),
                repr(rec.delta_se),
                repr(rec.retain_err),
                repr(rec.retain_se),
                repr(rec.forget_err),
                repr(rec.forget_se),
            )
        )

    def test_csv_row_matches_the_explicit_formatter(self):
        rec = self._tiny_table().records[0]
        numpy_rec = TrialRecord(
            seed=np.int64(5), v_f=np.float64(0.1), n=np.int64(7), T=np.float64(1.5),
            lam=np.float64(1e-3), delta_hat=np.float64(0.01), delta_se=np.float64(1 / 3),
            retain_err=np.float64(-0.0), retain_se=np.float64(2e-300),
            forget_err=np.float64(0.03), forget_se=np.float64(0.003),
        )
        for r in (rec, replace(rec, seed=2**64 - 1)):
            assert r.csv_row() == self._explicit_csv_row(r)
        # a numpy float is written as the Python float it holds, so the row
        # equals that of the Python-scalar record and reads back bit for bit
        values = [getattr(numpy_rec, f.name) for f in fields(TrialRecord)]
        python_rec = TrialRecord(*(v.item() for v in values))
        assert numpy_rec.csv_row() == self._explicit_csv_row(python_rec)
        assert "np." not in numpy_rec.csv_row()
        parsed = [type(v.item())(text) for v, text in zip(values, numpy_rec.csv_row().split(","))]
        assert [(v, math.copysign(1.0, v)) for v in parsed] == [
            (v, math.copysign(1.0, v)) for v in values]
        assert rec.csv_row() == "5,0.1,7,1.5,0.001,0.01,0.001,0.02,0.002,0.03,0.003"
        assert replace(rec, seed=2**64 - 1).csv_row().startswith("18446744073709551615,0.1,7,")

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(SweepTable(sweep_key="v_f", records=()), str(path))
        assert path.read_text() == CSV_HEADER + "\n"

    def test_sweep_emits_two_charts_with_three_series(self, tmp_path):
        cfg = replace(FAST, v_f_grid=(1e-6, 1e-3, 1.0), trials=2)
        table = run_experiment1(cfg, workers=1)
        out = emit(table, str(tmp_path), "sweep_vf")
        assert Path(out["csv"]).exists()
        assert len(out["charts"]) == 2
        for chart in out["charts"]:
            text = Path(chart).read_text()
            assert text.count("<polyline") == 3  # one series per forget variance
            ET.fromstring(text)  # well-formed XML
            assert "temperature T" in text

    def test_a_one_temperature_sweep_writes_both_charts(self, tmp_path):
        # one x value once divided by a zero x range after the CSV was written
        cfg = replace(FAST, t_grid=(2.0,), v_f_grid=(1.0,), lambda_grid=(0.01,), trials=2)
        out = emit(run_experiment1(cfg, workers=1), str(tmp_path), "sweep_vf")
        names = [Path(chart).name for chart in out["charts"]]
        assert names == ["sweep_vf_retain.svg", "sweep_vf_forget.svg"]
        for chart in out["charts"]:
            text = Path(chart).read_text()
            ET.fromstring(text)
            assert text.count("<polyline") == 1 and "nan" not in text


class TestSoundnessSweep:
    def test_small_sweep_has_no_violations(self):
        reports = run_soundness_sweep(FAST, n_classifiers=5)
        names = {r.bound_name for r in reports}
        assert {
            "retain_upper",
            "forget_upper",
            "classifier_l1_upper",
            "partition_lower",
            "forget_lower_witness",
        } <= names
        assert all(r.sound for r in reports)

    def test_tempered_rows_sound(self):
        reports = run_soundness_sweep(FAST, n_classifiers=3, tempered_t=1.5)
        tempered = [r for r in reports if r.bound_name.endswith("_tempered")]
        assert len(tempered) == 9  # three rows per classifier
        assert all(r.sound for r in tempered)

    def test_rows_in_order_and_tempering_leaves_the_untempered_rows(self):
        from t3.bounds import thm1_retain_bound
        from t3.classifier import LabeledDataset, train
        from t3.harness import soundness_reports_for_classifier

        m = FAST.mixture(1e-2)
        clf = train(LabeledDataset.from_mixture(m, 100, np.random.default_rng(3)), 1e-3)
        plain = soundness_reports_for_classifier(m, clf)
        tempered = soundness_reports_for_classifier(m, clf, tempered_t=1.5)
        # the order the benchmark's bounds gate checks, row by row
        names = ["retain_upper", "forget_upper", "classifier_l1_upper", "partition_lower",
                 "retain_upper_tempered", "forget_upper_tempered", "partition_lower_tempered"]
        assert [r.bound_name for r in tempered] == names
        assert [r.bound_name for r in plain] == names[:4]
        for a, b in zip(plain, tempered):
            assert (a.bound_value, a.measured_value, a.measured_std_err, a.inputs) == (
                b.bound_value, b.measured_value, b.measured_std_err, b.inputs)
        retain = plain[0]
        assert retain.bound_value == thm1_retain_bound(retain.inputs["delta"], m.gamma)

    def test_rows_draw_nothing_so_two_calls_agree(self):
        # every measurement is a quadrature: no rng is taken, every standard
        # error is 0, and a second call repeats the first row for row
        from t3.classifier import LabeledDataset, train
        from t3.harness import soundness_reports_for_classifier

        m = FAST.mixture(1e-2)
        clf = train(LabeledDataset.from_mixture(m, 100, np.random.default_rng(3)), 1e-3)
        first, second = (soundness_reports_for_classifier(m, clf, tempered_t=1.5)
                         for _ in range(2))
        assert len(first) == 7
        for a, b in zip(first, second):
            assert a == b
            assert a.measured_std_err == 0.0

    def test_oracle_classifier_trivially_sound(self):
        # the exact posterior has zero excess risk and zero errors, so every
        # bound holds with slack
        from t3.classifier import bayes_classifier
        from t3.harness import soundness_reports_for_classifier

        m = FAST.mixture(1e-2)
        reports = soundness_reports_for_classifier(m, bayes_classifier(m), tempered_t=2.0)
        assert all(r.sound for r in reports)
        upper = [r for r in reports if r.bound_name in ("retain_upper", "forget_upper")]
        assert len(upper) == 2
        assert all(abs(r.measured_value) <= 1e-12 for r in upper)

    def test_every_root_refines_in_at_most_12_steps(self, monkeypatch):
        # the bound fixed before the first run; bisection took 24 steps at
        # exact_forget_error's rtol 1e-9 and 40 at thm5's 1e-14.  All of a
        # call's brackets refine together, so its g calls past the scan are
        # the steps of its slowest bracket
        import t3.bounds
        import t3.dist
        import t3.metrics

        steps = []

        def counted(g, *args, **kwargs):
            calls = []

            def counted_g(z):
                calls.append(z.size)
                return g(z)

            roots = t3.dist.sign_change_roots(counted_g, *args, **kwargs)
            if roots:
                steps.append(len(calls) - 1)
            return roots

        monkeypatch.setattr(t3.metrics, "sign_change_roots", counted)
        monkeypatch.setattr(t3.bounds, "sign_change_roots", counted)
        for seed in range(10):
            run_soundness_sweep(ExperimentConfig(base_seed=seed), n_classifiers=5, tempered_t=2.0)
        assert len(steps) > 100
        assert max(steps) <= 12

    def test_root_scan_leaves_numpy_ma_unimported(self):
        # np.union1d imports numpy.ma (~15 ms) on its first call; a fresh
        # process must not pay that inside its first bounds row
        assert not _loaded_after_one_bounds_row("numpy.ma")

    def test_bounds_row_leaves_the_process_pool_unimported(self):
        # importing concurrent.futures.process adds tens of ms to a fresh
        # process; only a sweep with workers > 1 opens a pool and needs it
        assert not _loaded_after_one_bounds_row("concurrent.futures.process")


def _loaded_after_one_bounds_row(module: str) -> bool:
    """Whether ``module`` is in sys.modules after a fresh process imports
    t3.harness and measures one classifier's bounds rows."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from t3.classifier import LabeledDataset, train\n"
        "from t3.dist import GaussianComponent, Mixture\n"
        "from t3.harness import soundness_reports_for_classifier\n"
        "m = Mixture(0.1, GaussianComponent(1.0, 1.0), GaussianComponent(0.0, 1e-3))\n"
        "clf = train(LabeledDataset.from_mixture(m, 100, np.random.default_rng(3)), 1e-3)\n"
        "assert len(soundness_reports_for_classifier(m, clf, tempered_t=2.0)) == 7\n"
        f"print({module!r} in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip() == "True"


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that records its size and maps in
    this process."""

    opened: list = []

    def __init__(self, max_workers):
        self.opened.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


# picks different lambdas for the groups of both sweeps
PICKY = replace(FAST, lambda_grid=(1e-8, 1e-4, 1e-2, 1.0))


class TestWorkerDeterminism:
    @pytest.mark.parametrize(
        "run, tag0, groups",
        [
            (run_experiment1, 10, [(v_f, PICKY.n) for v_f in PICKY.v_f_grid]),
            (run_experiment2, 50, [(PICKY.v_f, n) for n in PICKY.n_grid]),
        ],
    )
    def test_pool_matches_serial_in_process(self, run, tag0, groups):
        serial = run(PICKY, workers=1)
        pooled = run(PICKY, workers=2)
        assert pooled.records == serial.records
        picked = [r.lam for r in pooled.records[:: PICKY.trials * len(PICKY.t_grid)]]
        assert picked == [
            lambda_search(PICKY, v_f, n, tag0 + gi) for gi, (v_f, n) in enumerate(groups)
        ]
        assert len(set(picked)) > 1

    def test_one_pool_per_sweep_capped_at_task_count(self, monkeypatch):
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "opened", [])
        serial = run_experiment1(FAST, workers=1)
        assert _InlinePool.opened == []
        # 2 groups: 2 x 2 lambda cells, then 2 x 3 trials
        assert run_experiment1(FAST, workers=8).records == serial.records
        assert _InlinePool.opened == [6]
        tiny = replace(FAST, v_f_grid=(1.0,), lambda_grid=(1e-2,), trials=1)
        run_experiment1(tiny, workers=3)
        assert _InlinePool.opened == [6]  # one task per phase: no pool

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment1(FAST, workers=workers)

    def test_cli_sweep_identical_across_worker_counts(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(FAST_CONFIG_TEXT)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for workers, sub in ((1, "w1"), (2, "w2")):
            out_dir = tmp_path / sub
            result = subprocess.run(
                [
                    sys.executable, "-m", "t3", "sweep-vf",
                    "--config", str(cfg_path),
                    "--out", str(out_dir),
                    "--workers", str(workers),
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert result.returncode == 0, result.stderr
            outputs.append((out_dir / "sweep_vf.csv").read_bytes())
        assert outputs[0] == outputs[1]
