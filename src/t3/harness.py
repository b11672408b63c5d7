"""Experiment orchestration: the synthetic Gaussian sweeps, regularization
search, multi-seed trials, and bound-soundness runs.

A sweep with workers > 1 opens one process pool for all its groups.  The
pool first runs the lambda-search cells (one per group and lambda-grid
index); the parent picks each group's lambda from their risks, and the same
pool then runs every trial of every group.  With one worker nothing is
spawned and the same cell and trial functions run in-process.

A trial scores its whole temperature grid on one retain sample and one
forget sample.  A bound-soundness classifier draws nothing once trained:
its excess risk, classifier L1 and both errors, at T = 1 and at the
tempered temperature when one is asked for, all come from quadrature.

Determinism contract: every trial derives its rng stream from
splitmix64(base_seed, stream tag, trial index), and every lambda-search fit
from splitmix64(base_seed, stream tag, 1000 + lambda index, fit index), so
results are bit-identical for any worker count and unchanged when other
trials are added or removed.  Aggregation order is fixed by trial index.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import bounds as bounds_mod
from ._kernels import check_temperature, mean_se
from .classifier import (
    LabeledDataset,
    bayes_classifier,
    cross_entropy_terms,
    estimate_excess_risk,
    exact_excess_risk,
    population_l1,
    train,
    witness_instance,
)
from .dist import GaussianComponent, Mixture
from .estimator import T3Estimator, build
from .metrics import exact_forget_error, exact_retain_error, forget_error, retain_error

SEED_ENV = "T3_SEED"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *indices: int) -> int:
    """Fold (base_seed, *indices) through splitmix64 into one 64-bit seed."""
    h = _splitmix64(base_seed & _MASK64)
    for ix in indices:
        h = _splitmix64(h ^ _splitmix64(ix & _MASK64))
    return h


@dataclass(frozen=True)
class ExperimentConfig:
    gamma: float = 0.1
    mu_r: float = 1.0
    mu_f: float = 0.0
    v_r: float = 1.0
    v_f_grid: tuple[float, ...] = (1e-6, 1e-3, 1.0)
    n_grid: tuple[int, ...] = (25, 50, 100, 200, 400)
    n: int = 50           # per-trial sample size for the forget-variance sweep
    v_f: float = 1e-3     # fixed forget variance for the sample-size sweep
    t_grid: tuple[float, ...] = tuple(round(1.0 + 0.1 * i, 10) for i in range(21))
    trials: int = 200
    # decades from 1e-8 up: sharp-spike instances have huge posterior weights,
    # so the risk-minimizing coefficient ranges over many orders of magnitude
    lambda_grid: tuple[float, ...] = (
        1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
    )
    lambda_search_trials: int = 10
    n_mc: int = 100_000         # per error metric, per (trial, T)
    n_mc_risk: int = 100_000    # excess-risk Monte Carlo
    base_seed: int = 1234

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.t_grid or not self.v_f_grid or not self.n_grid:
            raise ValueError("t_grid, v_f_grid and n_grid must be nonempty")
        for t in self.t_grid:
            check_temperature(t)
        if self.n < 1 or any(n < 1 for n in self.n_grid):
            raise ValueError("sample sizes n and n_grid must be >= 1")
        if self.n_mc < 2 or self.n_mc_risk < 2:
            raise ValueError("n_mc and n_mc_risk must be >= 2 for a standard error")
        if self.lambda_search_trials < 1:
            raise ValueError("lambda_search_trials must be >= 1")
        if not self.lambda_grid:
            raise ValueError("lambda_grid must be nonempty")
        for lam in self.lambda_grid:
            if not 0.0 <= lam < math.inf:
                raise ValueError(f"lambda_grid values must be finite and >= 0, got {lam}")
        for v_f in (*self.v_f_grid, self.v_f):
            self.mixture(v_f)  # the component and mixture guards name a bad value
        # a repeat would merge two groups or T cells, whose trials mean_curve
        # would count twice, or give one lambda two seeded chances to win
        for key in ("t_grid", "v_f_grid", "n_grid", "lambda_grid"):
            grid = getattr(self, key)
            for i, value in enumerate(grid):
                if value in grid[:i]:
                    raise ValueError(f"{key} repeats the value {value!r}")

    def mixture(self, v_f: float) -> Mixture:
        return Mixture(
            gamma=self.gamma,
            retain=GaussianComponent(self.mu_r, self.v_r),
            forget=GaussianComponent(self.mu_f, v_f),
        )


def _parse_value(kind, val: str):
    """``val`` as the annotated type ``kind``, a tuple as comma-separated items."""
    if get_args(kind):
        item = get_args(kind)[0]
        return tuple(item(v.strip()) for v in val.split(",") if v.strip())
    return kind(val)


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a flat ``key = value`` config file (# comments allowed; list
    values comma-separated).  An unknown or repeated key, or a value that
    does not parse, is rejected with the file, line and key.  The T3_SEED
    environment variable, when set, overrides base_seed last."""
    types = get_type_hints(ExperimentConfig)
    values: dict = {}
    if path is not None:
        first_line: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{line_no}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in types:
                    raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
                if key in first_line:
                    raise ValueError(
                        f"{path}:{line_no}: config key {key!r} repeats line {first_line[key]}"
                    )
                first_line[key] = line_no
                try:
                    values[key] = _parse_value(types[key], val)
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from None
    if overrides:
        values.update(overrides)
    cfg = ExperimentConfig(**values)
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {env_seed!r}") from None
        cfg = replace(cfg, base_seed=seed)
    return cfg


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    v_f: float
    n: int
    T: float
    lam: float
    delta_hat: float
    delta_se: float
    retain_err: float
    retain_se: float
    forget_err: float
    forget_se: float

    def csv_row(self) -> str:
        """The fields in order: ``repr(float(v))`` for a float (a numpy float
        too, so that ``float()`` reads it back), ``str`` for anything else."""
        values = (getattr(self, f.name) for f in fields(self))
        return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values)


CSV_HEADER = ",".join("lambda" if f.name == "lam" else f.name for f in fields(TrialRecord))


@dataclass(frozen=True)
class SweepTable:
    sweep_key: str  # "v_f" or "n"
    records: tuple[TrialRecord, ...]

    def group_values(self) -> list:
        seen = []
        for r in self.records:
            v = getattr(r, self.sweep_key)
            if v not in seen:
                seen.append(v)
        return seen

    def mean_curve(self, group_value, metric: str) -> tuple[list[float], list[float], list[float]]:
        """(T values, means over trials, SEs of the means) for one group;
        metric is 'retain' or 'forget'."""
        rows = [r for r in self.records if getattr(r, self.sweep_key) == group_value]
        ts = sorted({r.T for r in rows})
        means, ses = [], []
        for t in ts:
            errs = np.array([getattr(r, f"{metric}_err") for r in rows if r.T == t])
            if errs.size == 1:  # one trial: no spread to report
                mean, se = float(errs[0]), 0.0
            else:
                mean, se = mean_se(errs)
            means.append(mean)
            ses.append(se)
        return ts, means, ses


# ---------------------------------------------------------------------------
# risk / lambda search
# ---------------------------------------------------------------------------

def population_risk(clf, m: Mixture, n_mc: int, rng: np.random.Generator) -> float:
    """MC mean of the population cross-entropy of clf under the mixture,
    over n_mc labeled draws (z, s) from ``m``: the mean of
    cross_entropy_terms(clf, z, s)."""
    if n_mc < 1:
        raise ValueError(f"n_mc must be >= 1, got {n_mc}")
    z, s = m.sample_labeled(rng, n_mc)
    return float(np.mean(cross_entropy_terms(clf, z, s)))


def _lambda_cell(args) -> list[float]:
    """Population risks of the lambda_search_trials fits at one lambda-grid
    index, in trial order; a failing fit re-raises under a message that
    names it and the call that replays it."""
    config, v_f, n, stream_tag, li = args
    m = config.mixture(v_f)
    lam = config.lambda_grid[li]
    risks = []
    for trial in range(config.lambda_search_trials):
        seed = derive_seed(config.base_seed, stream_tag, 1_000 + li, trial)
        rng = np.random.default_rng(seed)
        try:
            clf = train(LabeledDataset.from_mixture(m, n, rng), lam)
            risks.append(population_risk(clf, m, config.n_mc_risk, rng))
        except Exception as exc:
            raise RuntimeError(
                f"lambda-search fit {trial} at lambda[{li}] = {lam!r} of stream {stream_tag} "
                f"failed (seed {seed}): {exc!r}; replay with lambda_search(config, {v_f!r}, "
                f"{n}, {stream_tag}) at base_seed={config.base_seed}"
            ) from exc
    return risks


def _lambda_cells(config: ExperimentConfig, v_f: float, n: int, stream_tag: int) -> list[tuple]:
    return [(config, v_f, n, stream_tag, li) for li in range(len(config.lambda_grid))]


def _pick_lambda(config: ExperimentConfig, cell_risks) -> float:
    """Grid value with the smallest mean risk; ties break toward the larger
    coefficient."""
    best_lam, best_key = None, (math.inf, math.inf)
    for lam, risks in zip(config.lambda_grid, cell_risks):
        key = (float(np.mean(risks)), -lam)  # a NaN risk never wins
        if key < best_key:
            best_lam, best_key = lam, key
    return float(best_lam)


def lambda_search(
    config: ExperimentConfig,
    v_f: float,
    n: int,
    stream_tag: int,
) -> float:
    """Grid value minimizing the mean MC population risk over fresh-data
    trials; ties break toward the larger coefficient."""
    return _pick_lambda(config, map(_lambda_cell, _lambda_cells(config, v_f, n, stream_tag)))


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------

def run_trial(
    config: ExperimentConfig,
    v_f: float,
    n: int,
    lam: float,
    stream_tag: int,
    trial_index: int,
) -> list[TrialRecord]:
    """One seeded trial: sample data, train, then measure errors at every T.

    The estimator covers the whole temperature grid, and each metric draws
    one sample and shares it across the grid (common random numbers), so
    only the tempering exponent and the partition change per T.  This
    matches fresh draws per T in expectation while making the T-curves of
    one trial directly comparable.

    A consequence the acceptance suite relies on (clause C5c): with the
    retain draws fixed, the retain error at beta = 1/T is affine in beta
    plus ln Z(beta), a log-Laplace transform, so each trial's retain curve
    is strictly convex in 1/T.
    """
    seed = derive_seed(config.base_seed, stream_tag, trial_index)
    rng = np.random.default_rng(seed)
    m = config.mixture(v_f)
    data = LabeledDataset.from_mixture(m, n, rng)
    clf = train(data, lam)
    bayes = bayes_classifier(m)
    delta_hat, delta_se = estimate_excess_risk(clf, m, bayes, config.n_mc_risk, rng)
    e = build(m, clf, config.t_grid)
    retain = retain_error(e, config.n_mc, rng)
    forget = forget_error(e, config.n_mc, rng)
    return [
        TrialRecord(
            seed=seed,
            v_f=v_f,
            n=n,
            T=T,
            lam=lam,
            delta_hat=delta_hat,
            delta_se=delta_se,
            retain_err=r.value,
            retain_se=r.std_err,
            forget_err=f.value,
            forget_se=f.std_err,
        )
        for T, r, f in zip(e.temperatures, retain, forget)
    ]


def _trial_task(args) -> list[TrialRecord]:
    """run_trial(*args), with any failure re-raised under a message that
    names the trial and the call that replays it."""
    config, v_f, n, lam, stream_tag, trial_index = args
    try:
        return run_trial(*args)
    except Exception as exc:
        seed = derive_seed(config.base_seed, stream_tag, trial_index)
        raise RuntimeError(
            f"trial {trial_index} of stream {stream_tag} failed (seed {seed}): {exc!r}; "
            f"replay with run_trial(config, {v_f!r}, {n}, {lam!r}, {stream_tag}, {trial_index}) "
            f"at base_seed={config.base_seed}"
        ) from exc


def _sweep(
    config: ExperimentConfig, sweep_key: str, groups: list, stream_tag0: int, workers: int
) -> SweepTable:
    """For each (v_f, n) group, pick lambda by search, then run the seeded
    trials; group gi draws from stream tag stream_tag0 + gi.  One pool, no
    larger than the task count, serves both phases (see the module notes)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tagged = [(v_f, n, stream_tag0 + gi) for gi, (v_f, n) in enumerate(groups)]
    cells = [_lambda_cells(config, *g) for g in tagged]
    workers = min(workers, max(sum(map(len, cells)), len(tagged) * config.trials))

    def trial_tasks(lams):
        return [
            (config, v_f, n, lam, tag, trial)
            for (v_f, n, tag), lam in zip(tagged, lams)
            for trial in range(config.trials)
        ]

    if workers <= 1:
        lams = [lambda_search(config, *g) for g in tagged]
        batches = [_trial_task(t) for t in trial_tasks(lams)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # here: bounds runs open no pool
        with ProcessPoolExecutor(max_workers=workers) as pool:
            risks = iter(pool.map(_lambda_cell, [c for cs in cells for c in cs], chunksize=1))
            lams = [_pick_lambda(config, [next(risks) for _ in cs]) for cs in cells]
            batches = list(pool.map(_trial_task, trial_tasks(lams), chunksize=1))
    records = tuple(rec for batch in batches for rec in batch)
    return SweepTable(sweep_key=sweep_key, records=records)


def run_experiment1(config: ExperimentConfig, workers: int = 1) -> SweepTable:
    """Forget-sharpness sweep: for each forget variance, pick lambda by
    search, run seeded trials, and measure both errors across the T grid."""
    return _sweep(config, "v_f", [(v_f, config.n) for v_f in config.v_f_grid], 10, workers)


def run_experiment2(config: ExperimentConfig, workers: int = 1) -> SweepTable:
    """Sample-size sweep at fixed forget variance."""
    return _sweep(config, "n", [(config.v_f, n) for n in config.n_grid], 50, workers)


# ---------------------------------------------------------------------------
# bound soundness
# ---------------------------------------------------------------------------

def soundness_reports_for_classifier(
    m: Mixture,
    clf,
    inputs: Optional[dict] = None,
    tempered_t: Optional[float] = None,
) -> list[bounds_mod.BoundReport]:
    """Measure one classifier's errors exactly and compare them against
    every bound at its exact excess risk delta.  ``tempered_t`` adds the
    tempered-estimator rows at that temperature (quadrature-heavy, so off by
    default in sweeps).

    Nothing is drawn: delta comes from exact_excess_risk, lemma 1's
    E_p|f* - f| from population_l1, and the retain and forget errors from
    exact_retain_error and exact_forget_error, all quadratures, so every
    row's standard error is 0 and two calls give the same rows.  Each T has
    its own one-row ``build``, which exact_forget_error scores on its own,
    and exact_retain_error's A and B do not depend on T, so the untempered
    rows are the same with or without ``tempered_t``."""
    bayes = bayes_classifier(m)
    delta = exact_excess_risk(clf, m, bayes)
    pf_inf = m.forget.peak_density()
    inputs = dict(inputs or {}, delta=delta, pf_inf=pf_inf)
    temps = (1.0,) if tempered_t is None else (1.0, float(tempered_t))
    ests = [build(m, clf, [T]) for T in temps]
    retain = exact_retain_error(T3Estimator(m, clf, temps, tuple(e.partitions[0] for e in ests)))
    forget = [exact_forget_error(e)[0] for e in ests]
    l1_row = bounds_mod.BoundReport(
        bound_name="classifier_l1_upper",
        inputs=inputs,
        bound_value=bounds_mod.lemma1_l1_bound(delta),
        measured_value=population_l1(m, bayes, clf),
        measured_std_err=0.0,
    )
    thm2_bound = bounds_mod.thm2_forget_bound(delta, m.gamma, pf_inf)

    reports = []
    for i, T in enumerate(temps):
        # T = 1 checks thm1 (thm5 at T = 1), thm2, lemma 1 and lemma 2; the
        # tempered T checks thm5, thm4 and lemma 2, and records T
        suffix, row_inputs = ("_tempered", dict(inputs, T=T)) if i else ("", inputs)
        reports += [
            bounds_mod.BoundReport(
                bound_name="retain_upper" + suffix,
                inputs=row_inputs,
                bound_value=bounds_mod.thm5_retain_bound(m, delta, T),
                measured_value=retain[i],
                measured_std_err=0.0,
            ),
            bounds_mod.BoundReport(
                bound_name="forget_upper" + suffix,
                inputs=row_inputs,
                bound_value=bounds_mod.thm4_forget_bound(m, delta, T) if i else thm2_bound,
                measured_value=forget[i],
                measured_std_err=0.0,
            ),
            *([l1_row] if i == 0 else []),
            bounds_mod.BoundReport(
                bound_name="partition_lower" + suffix,
                inputs=row_inputs,
                bound_value=ests[i].partitions[0],
                measured_value=bounds_mod.lemma2_partition_lower_bound(m, delta, T),
                measured_std_err=0.0,
            ),
        ]
    return reports


def run_soundness_sweep(
    config: ExperimentConfig,
    n_classifiers: int = 50,
    tempered_t: Optional[float] = None,
) -> list[bounds_mod.BoundReport]:
    """Train classifiers on randomized instances, measure their errors
    exactly, and record a soundness row per bound at the exact excess risk;
    then add ten rows checking the forget-error lower bound on witness
    instances, each the exact forget error of the estimator built on the
    witness classifier.  The only draws are each instance's parameters and
    training data; every measured value is a quadrature with standard
    error 0.

    Upper bounds are reported as measured <= bound; the lower bounds (the
    witness forget bound, the partition bound) swap roles so the recorded
    inequality reads the same way.
    """
    reports: list[bounds_mod.BoundReport] = []
    for i in range(n_classifiers):
        rng = np.random.default_rng(derive_seed(config.base_seed, 90, i))
        v_f = float(10.0 ** rng.uniform(-4.0, 0.0))
        n = int(rng.integers(50, 400))
        lam = float(10.0 ** rng.uniform(-6.0, -1.0))
        m = config.mixture(v_f)
        data = LabeledDataset.from_mixture(m, n, rng)
        clf = train(data, lam)
        reports.extend(
            soundness_reports_for_classifier(
                m, clf, inputs={"v_f": v_f, "n": n, "lambda": lam}, tempered_t=tempered_t
            )
        )

    for i in range(10):
        rng = np.random.default_rng(derive_seed(config.base_seed, 91, i))
        gamma = float(rng.uniform(0.05, 0.5))
        delta = float(10.0 ** rng.uniform(-4.0, -1.0))
        m, wit = witness_instance(gamma, delta)
        (fog,) = exact_forget_error(build(m, wit, [1.0]))
        lb = bounds_mod.thm3_forget_lower_bound(delta, gamma, m.forget.peak_density())
        reports.append(
            bounds_mod.BoundReport(
                bound_name="forget_lower_witness",
                inputs={"gamma": gamma, "delta": delta},
                bound_value=fog,
                measured_value=lb,
                measured_std_err=0.0,
            )
        )
    return reports
