"""Experiment orchestration: the synthetic Gaussian sweeps, regularization
search, multi-seed trials, and bound-soundness runs.

Determinism contract: every trial derives its rng stream from
splitmix64(base_seed, stream tag, trial index), so results are bit-identical
for any worker count and unchanged when other trials are added or removed.
Aggregation order is fixed by trial index.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from ._kernels import mean_se
from .classifier import (
    LabeledDataset,
    bayes_classifier,
    cross_entropy_terms,
    estimate_excess_risk,
    train,
    witness_classifier,
)
from .dist import GaussianComponent, Mixture, UniformComponent
from .estimator import build, clamped_log_tilt
from .metrics import forget_error, forget_terms, retain_error, retain_terms

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
    v_f_grid: tuple = (1e-6, 1e-3, 1.0)
    n_grid: tuple = (25, 50, 100, 200, 400)
    n: int = 50           # per-trial sample size for the forget-variance sweep
    v_f: float = 1e-3     # fixed forget variance for the sample-size sweep
    t_grid: tuple = tuple(round(1.0 + 0.1 * i, 10) for i in range(21))
    trials: int = 200
    # decades from 1e-8 up: sharp-spike instances have huge posterior weights,
    # so the risk-minimizing coefficient ranges over many orders of magnitude
    lambda_grid: tuple = (
        1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
    )
    lambda_search_trials: int = 10
    n_mc: int = 100_000         # per error metric, per (trial, T)
    n_mc_risk: int = 100_000    # excess-risk Monte Carlo
    base_seed: int = 1234
    partition_tol: float = 1e-10

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not all(1.0 <= t < math.inf for t in self.t_grid):
            raise ValueError("temperature grid must lie in [1, inf)")
        if self.n < 1 or any(n < 1 for n in self.n_grid):
            raise ValueError("sample sizes n and n_grid must be >= 1")
        if self.n_mc < 2 or self.n_mc_risk < 2:
            raise ValueError("n_mc and n_mc_risk must be >= 2 for a standard error")
        if self.lambda_search_trials < 1:
            raise ValueError("lambda_search_trials must be >= 1")

    def mixture(self, v_f: float) -> Mixture:
        return Mixture(
            gamma=self.gamma,
            retain=GaussianComponent(self.mu_r, self.v_r),
            forget=GaussianComponent(self.mu_f, v_f),
        )


_LIST_FIELDS = {"v_f_grid", "n_grid", "t_grid", "lambda_grid"}
_INT_FIELDS = {"n", "trials", "lambda_search_trials", "n_mc", "n_mc_risk", "base_seed"}


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a flat ``key = value`` config file (# comments allowed; list
    values comma-separated).  Unknown keys are rejected.  The T3_SEED
    environment variable, when set, overrides base_seed last."""
    known = {f.name for f in fields(ExperimentConfig)}
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{line_no}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
                if key in _LIST_FIELDS:
                    items = [v.strip() for v in val.split(",") if v.strip()]
                    if key == "n_grid":
                        values[key] = tuple(int(v) for v in items)
                    else:
                        values[key] = tuple(float(v) for v in items)
                elif key in _INT_FIELDS:
                    values[key] = int(val)
                else:
                    values[key] = float(val)
    if overrides:
        values.update(overrides)
    cfg = ExperimentConfig(**values)
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        cfg = replace(cfg, base_seed=int(env_seed))
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
        return ",".join(
            (
                str(self.seed),
                repr(self.v_f),
                str(self.n),
                repr(self.T),
                repr(self.lam),
                repr(self.delta_hat),
                repr(self.delta_se),
                repr(self.retain_err),
                repr(self.retain_se),
                repr(self.forget_err),
                repr(self.forget_se),
            )
        )


CSV_HEADER = "seed,v_f,n,T,lambda,delta_hat,delta_se,retain_err,retain_se,forget_err,forget_se"


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

    def mean_errors(self, group_value, T: float) -> tuple[float, float, float, float]:
        """(retain mean, retain SE-of-mean, forget mean, forget SE) over
        trials at one (group, T) cell."""
        rs = [
            r
            for r in self.records
            if getattr(r, self.sweep_key) == group_value and r.T == T
        ]
        if not rs:
            raise KeyError(f"no records at {self.sweep_key}={group_value}, T={T}")
        ret = np.array([r.retain_err for r in rs])
        fog = np.array([r.forget_err for r in rs])
        if len(rs) == 1:  # one trial: no spread to report
            return float(ret[0]), 0.0, float(fog[0]), 0.0
        return (*mean_se(ret), *mean_se(fog))

    def mean_curve(self, group_value, metric: str) -> tuple[list[float], list[float], list[float]]:
        """(T values, means, SEs) for one group; metric is 'retain' or 'forget'."""
        ts = sorted({r.T for r in self.records if getattr(r, self.sweep_key) == group_value})
        means, ses = [], []
        for t in ts:
            rm, rs_, fm, fs = self.mean_errors(group_value, t)
            means.append(rm if metric == "retain" else fm)
            ses.append(rs_ if metric == "retain" else fs)
        return ts, means, ses

    def argmin_forget_t(self, group_value) -> float:
        ts, means, _ = self.mean_curve(group_value, "forget")
        return ts[int(np.argmin(means))]


# ---------------------------------------------------------------------------
# risk / lambda search
# ---------------------------------------------------------------------------

def population_risk(clf, m: Mixture, n_mc: int, rng: np.random.Generator) -> tuple[float, float]:
    """MC estimate of the population cross-entropy of clf under the mixture."""
    z, s = m.sample_labeled(rng, n_mc)
    return mean_se(cross_entropy_terms(clf, z, s))


def lambda_search(
    config: ExperimentConfig,
    v_f: float,
    n: int,
    stream_tag: int,
) -> float:
    """Grid value minimizing the mean MC population risk over fresh-data
    trials; ties break toward the larger coefficient."""
    if not config.lambda_grid:
        raise ValueError("lambda grid must be nonempty")
    m = config.mixture(v_f)
    best_lam, best_risk = None, math.inf
    for li, lam in enumerate(config.lambda_grid):
        risks = []
        for trial in range(config.lambda_search_trials):
            rng = np.random.default_rng(
                derive_seed(config.base_seed, stream_tag, 1_000 + li, trial)
            )
            data = LabeledDataset.from_mixture(m, n, rng)
            clf = train(data, lam)
            risks.append(population_risk(clf, m, config.n_mc_risk, rng)[0])
        mean_risk = float(np.mean(risks))
        if mean_risk <= best_risk:  # <= so later (larger) lambdas win ties
            best_risk, best_lam = mean_risk, lam
    return float(best_lam)


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

    The two Monte Carlo samples are drawn once per trial and shared across
    the temperature grid (common random numbers), so only the tempering
    exponent and the partition change per T.  This matches calling the
    metric functions per T with fresh draws in expectation while making the
    T-curves of one trial directly comparable.

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

    # the per-draw inputs of the metric terms depend on the draws, not on T
    z_r = m.retain.sample(rng, config.n_mc)
    z_f = m.forget.sample(rng, config.n_mc)
    retain_draws = (m.retain.log_density(z_r), m.log_density(z_r), clamped_log_tilt(clf, z_r))
    forget_draws = (np.exp(m.retain.log_density(z_f)), m.log_density(z_f), clf.predict(z_f))

    records = []
    for T in config.t_grid:
        est = build(m, clf, T, tol=config.partition_tol)
        retain_err, retain_se = mean_se(retain_terms(*retain_draws, T, est.partition))
        forget_err, forget_se = mean_se(forget_terms(*forget_draws, T, est.partition))
        records.append(
            TrialRecord(
                seed=seed,
                v_f=v_f,
                n=n,
                T=float(T),
                lam=lam,
                delta_hat=delta_hat,
                delta_se=delta_se,
                retain_err=retain_err,
                retain_se=retain_se,
                forget_err=forget_err,
                forget_se=forget_se,
            )
        )
    return records


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


def _run_trials(tasks: list[tuple], workers: int) -> list[TrialRecord]:
    if workers <= 1:
        batches = [_trial_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_trial_task, tasks, chunksize=1))
    return [rec for batch in batches for rec in batch]


def _sweep(
    config: ExperimentConfig, sweep_key: str, groups: list, stream_tag0: int, workers: int
) -> SweepTable:
    """For each (v_f, n) group, pick lambda by search, then run the seeded
    trials; group gi draws from stream tag stream_tag0 + gi."""
    records: list[TrialRecord] = []
    for gi, (v_f, n) in enumerate(groups):
        tag = stream_tag0 + gi
        lam = lambda_search(config, v_f, n, stream_tag=tag)
        tasks = [(config, v_f, n, lam, tag, trial) for trial in range(config.trials)]
        records.extend(_run_trials(tasks, workers))
    return SweepTable(sweep_key=sweep_key, records=tuple(records))


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
    config: ExperimentConfig,
    m: Mixture,
    clf,
    rng: np.random.Generator,
    inputs: Optional[dict] = None,
    tempered_t: Optional[float] = None,
) -> list[bounds_mod.BoundReport]:
    """Measure one classifier's errors and compare them against every bound
    at delta_hat + 3 SE.  ``tempered_t`` adds the tempered-estimator rows at
    that temperature (quadrature-heavy, so off by default in sweeps)."""
    bayes = bayes_classifier(m)
    delta_hat, delta_se = estimate_excess_risk(clf, m, bayes, config.n_mc_risk, rng)
    delta_up = delta_hat + 3.0 * delta_se
    pf_inf = m.forget.peak_density()
    inputs = dict(inputs or {}, delta_up=delta_up, pf_inf=pf_inf)

    est = build(m, clf, 1.0, tol=config.partition_tol)
    ret = retain_error(est, m, config.n_mc, rng)
    fog = forget_error(est, m, config.n_mc, rng)

    z_l1 = m.sample(rng, config.n_mc)
    l1, l1_se = mean_se(np.abs(bayes.predict(z_l1) - clf.predict(z_l1)))

    reports = [
        bounds_mod.BoundReport(
            bound_name="retain_upper",
            inputs=inputs,
            bound_value=bounds_mod.thm1_retain_bound(delta_up, m.gamma),
            measured_value=ret.value,
            measured_std_err=ret.std_err,
        ),
        bounds_mod.BoundReport(
            bound_name="forget_upper",
            inputs=inputs,
            bound_value=bounds_mod.thm2_forget_bound(delta_up, m.gamma, pf_inf),
            measured_value=fog.value,
            measured_std_err=fog.std_err,
        ),
        bounds_mod.BoundReport(
            bound_name="classifier_l1_upper",
            inputs=inputs,
            bound_value=bounds_mod.lemma1_l1_bound(delta_up),
            measured_value=l1,
            measured_std_err=l1_se,
        ),
        bounds_mod.BoundReport(
            bound_name="partition_lower",
            inputs=inputs,
            bound_value=est.partition,
            measured_value=bounds_mod.lemma2_partition_lower_bound(m, delta_up, 1.0),
            measured_std_err=0.0,
        ),
    ]

    if tempered_t is not None:
        t_val = float(tempered_t)
        est_t = build(m, clf, t_val, tol=config.partition_tol)
        ret_t = retain_error(est_t, m, config.n_mc, rng)
        fog_t = forget_error(est_t, m, config.n_mc, rng)
        t_inputs = dict(inputs, T=t_val)
        reports.append(
            bounds_mod.BoundReport(
                bound_name="retain_upper_tempered",
                inputs=t_inputs,
                bound_value=bounds_mod.thm5_retain_bound(m, delta_up, t_val),
                measured_value=ret_t.value,
                measured_std_err=ret_t.std_err,
            )
        )
        reports.append(
            bounds_mod.BoundReport(
                bound_name="forget_upper_tempered",
                inputs=t_inputs,
                bound_value=bounds_mod.thm4_forget_bound(m, delta_up, t_val),
                measured_value=fog_t.value,
                measured_std_err=fog_t.std_err,
            )
        )
        reports.append(
            bounds_mod.BoundReport(
                bound_name="partition_lower_tempered",
                inputs=t_inputs,
                bound_value=est_t.partition,
                measured_value=bounds_mod.lemma2_partition_lower_bound(m, delta_up, t_val),
                measured_std_err=0.0,
            )
        )
    return reports


def run_soundness_sweep(
    config: ExperimentConfig,
    n_classifiers: int = 50,
    tempered_t: Optional[float] = None,
) -> list[bounds_mod.BoundReport]:
    """Train classifiers on randomized instances, measure errors, and record
    a soundness row per bound at delta_hat + 3 SE; then add ten rows checking
    the forget-error lower bound on witness instances.

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
                config,
                m,
                clf,
                rng,
                inputs={"v_f": v_f, "n": n, "lambda": lam},
                tempered_t=tempered_t,
            )
        )

    for i in range(10):
        rng = np.random.default_rng(derive_seed(config.base_seed, 91, i))
        gamma = float(rng.uniform(0.05, 0.5))
        delta = float(10.0 ** rng.uniform(-4.0, -1.0))
        m = Mixture(gamma, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
        wit = witness_classifier(delta, gamma, (2.0, 3.0), (0.0, 1.0))
        est = build(m, wit, 1.0, tol=config.partition_tol)
        fog = forget_error(est, m, config.n_mc, rng)
        lb = bounds_mod.thm3_forget_lower_bound(delta, gamma, m.forget.peak_density())
        reports.append(
            bounds_mod.BoundReport(
                bound_name="forget_lower_witness",
                inputs={"gamma": gamma, "delta": delta},
                bound_value=fog.value,
                measured_value=lb,
                measured_std_err=fog.std_err,
            )
        )
    return reports
