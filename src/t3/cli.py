"""Command-line interface.

    t3 sweep-vf --config cfg.txt --out results/   forget-sharpness sweep
    t3 sweep-n  --config cfg.txt --out results/   sample-size sweep
    t3 bounds   --out results/                    bound-soundness sweep
    t3 verify-lb --gamma 0.1 --delta 0.01         lower-bound equality check
    t3 tinylm --corpus corpus.tsv --temperature 2 tabular-LM unlearning demo

The T3_SEED environment variable overrides the configured base seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .harness import load_config, run_experiment1, run_experiment2, run_soundness_sweep


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _float_type(what: str, ok):
    """An argparse type that accepts a float for which ``ok`` holds and
    otherwise says it must be ``what``."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_temperature = _float_type("a finite temperature >= 1", lambda x: 1.0 <= x < math.inf)
_positive_float = _float_type("a finite number > 0", lambda x: 0.0 < x < math.inf)
_nonnegative_float = _float_type("a finite number >= 0", lambda x: 0.0 <= x < math.inf)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for the lambda-search and trials",
    )
    p.add_argument("--trials", type=_positive_int, default=None, help="override trial count")


def _load_config(args):
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    return load_config(args.config, overrides)


def _cmd_sweep(run_experiment, prefix: str, args) -> int:
    from .emit import emit

    config = _load_config(args)
    table = run_experiment(config, workers=args.workers)
    paths = emit(table, args.out, prefix)
    print(f"wrote {paths['csv']}")
    for c in paths["charts"]:
        print(f"wrote {c}")
    return 0


def _cmd_bounds(args) -> int:
    import os

    config = load_config(args.config)
    reports = run_soundness_sweep(
        config, n_classifiers=args.classifiers, tempered_t=args.tempered_t
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bound_reports.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bound_name,bound_value,measured_value,measured_std_err,sound\n")
        for r in reports:
            fh.write(
                f"{r.bound_name},{r.bound_value!r},{r.measured_value!r},"
                f"{r.measured_std_err!r},{int(r.sound)}\n"
            )
    violations = [r for r in reports if not r.sound]
    print(f"wrote {path}: {len(reports)} checks, {len(violations)} violations")
    for r in violations:
        print(f"  VIOLATION {r.bound_name}: measured={r.measured_value:.6g} "
              f"bound={r.bound_value:.6g} inputs={r.inputs}")
    return 1 if violations else 0


def _cmd_verify_lb(args) -> int:
    from .bounds import thm3_forget_lower_bound
    from .classifier import witness_classifier
    from .dist import Mixture, UniformComponent
    from .estimator import build
    from .metrics import closed_form_errors, forget_error

    gamma, delta = args.gamma, args.delta
    m = Mixture(gamma, UniformComponent(2.0, 3.0), UniformComponent(0.0, 1.0))
    wit = witness_classifier(delta, gamma, (2.0, 3.0), (0.0, 1.0))
    retain_cf, forget_cf = closed_form_errors(m, wit)
    lb = thm3_forget_lower_bound(delta, gamma, m.forget.peak_density())
    est = build(m, wit, 1.0)
    rng = np.random.default_rng(args.seed)
    fog = forget_error(est, m, 100_000, rng)
    gap = abs(forget_cf - lb)
    # the witness integrand is constant on the forget support, so the MC
    # spread can be exactly zero; compare with a machine-noise floor
    mc_gap = abs(fog.value - forget_cf)
    mc_tol = 3.0 * fog.std_err + 1e-12
    print(f"gamma={gamma} delta={delta}")
    print(f"  witness epsilon         = {wit.forget_value:.10f}")
    print(f"  closed-form forget err  = {forget_cf:.12f}")
    print(f"  lower-bound formula     = {lb:.12f}   |gap| = {gap:.3e}")
    print(f"  closed-form retain err  = {retain_cf:.12f}")
    print(f"  MC forget err           = {fog.value:.12f} +- {fog.std_err:.2e}  (|diff| = {mc_gap:.2e})")
    ok = gap <= 1e-12 and mc_gap <= mc_tol
    print("  equality instance:", "OK" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_tinylm(args) -> int:
    from . import tinylm as tl

    if args.write_demo:
        corpus = tl.demo_corpus()
        tl.save_corpus(corpus, args.write_demo)
        print(f"wrote demo corpus to {args.write_demo}")
        if not args.corpus:
            return 0
    if not args.corpus:
        print("error: --corpus is required (or use --write-demo)", file=sys.stderr)
        return 2
    corpus = tl.load_corpus(args.corpus)
    lm = tl.fit_lm(corpus.all_docs(), args.order, args.smoothing, corpus.vocab)
    reference_docs = corpus.docs("retain") + corpus.docs("ra") + corpus.docs("wf")
    reference = tl.fit_lm(reference_docs, args.order, args.smoothing, corpus.vocab)
    stream = tl.head_training_stream(corpus, args.order)
    head = tl.train_head(
        lm,
        stream,
        lam=args.head_lambda,
        epochs=args.epochs,
        rng=np.random.default_rng(args.seed),
        hidden=args.hidden,
    )
    report = tl.unlearning_report(lm, head, corpus, args.temperature, reference)
    print(f"corpus: |V|={len(corpus.vocab)}, "
          + ", ".join(f"{s}:{len(corpus.pairs(s))}" for s in tl.SPLITS))
    print(f"temperature                 = {report['temperature']}")
    print(f"forget quality (KS p-value) = {report['forget_quality']:.6g}  "
          f"(D_KS = {report['ks_statistic']:.4f})")
    print(f"model utility               = {report['model_utility']:.4f}")
    print(f"MU-ROUGE                    = {report['mu_rouge']:.4f}")
    for split, (prob, rouge, trp) in report["per_split"].items():
        print(f"  {split:<7} probability={prob:.4f} rouge={rouge:.4f} tr+={trp:.4f}")
    print(f"min forget-answer prob reduction = {report['min_forget_prob_reduction']:.1f}x")
    print(f"retain greedy decodes unchanged  = {report['retain_greedy_unchanged']:.0%}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="t3", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-vf", help="forget-variance sweep over the temperature grid")
    _add_config_args(p)
    p.set_defaults(func=functools.partial(_cmd_sweep, run_experiment1, "sweep_vf"))

    p = sub.add_parser("sweep-n", help="sample-size sweep over the temperature grid")
    _add_config_args(p)
    p.set_defaults(func=functools.partial(_cmd_sweep, run_experiment2, "sweep_n"))

    p = sub.add_parser("bounds", help="train classifiers and check every bound")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--classifiers", type=_positive_int, default=50)
    p.add_argument(
        "--tempered-t",
        type=_temperature,
        default=None,
        help="also check the tempered-estimator bounds at this temperature",
    )
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify-lb", help="check the lower-bound equality instance")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_lb)

    p = sub.add_parser("tinylm", help="run the tabular-LM unlearning demo")
    p.add_argument("--corpus", default=None, help="corpus TSV path")
    p.add_argument("--temperature", type=_temperature, default=2.0)
    p.add_argument("--order", type=int, choices=(1, 2), default=2)
    p.add_argument("--smoothing", type=_positive_float, default=1e-3)
    p.add_argument("--head-lambda", type=_nonnegative_float, default=1e-4)
    p.add_argument("--epochs", type=_positive_int, default=100)
    p.add_argument("--hidden", type=_positive_int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--write-demo", default=None, help="write the built-in demo corpus here")
    p.set_defaults(func=_cmd_tinylm)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
