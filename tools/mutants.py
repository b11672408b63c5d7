"""The mutation catalogue: known faults that the test suite must catch.

Each entry names a module under src/t3, an exact source fragment that
occurs there once, the fragment's faulty replacement, and the pytest node
ids expected to fail on the mutant.  For each entry the script copies src/,
tests/, perfbench/, pyproject.toml and README.md (which tests read) to a
temporary directory, applies the replacement there (never in place), runs
the entry's selection in the copy and reports the mutant as killed (the
selection fails) or survived (it passes).  Before
the mutants it runs every selection once on the unmutated copy, so a kill
is never a test that fails anyway.

    python tools/mutants.py               # every entry
    python tools/mutants.py thm2-no-sqrt  # the named entries

Exit status: 0 if every mutant was killed, 1 if any survived or its run
errored, 2 if a fragment is missing or a selection fails unmutated.

Standard library only.  Mutation analysis after DeMillo, Lipton and
Sayward, "Hints on Test Data Selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/t3
    fragment: str
    replacement: str
    selection: tuple[str, ...]  # pytest node ids under tests/


CATALOGUE = (
    Mutant(
        "thm4-no-bias",
        "bounds.py",
        "    return bias + term2 + float(term3)\n",
        "    return term2 + float(term3)\n",
        ("tests/test_harness.py::TestSoundnessSweep::test_oracle_classifier_trivially_sound",),
    ),
    Mutant(
        "thm5-tau-T-only",
        "bounds.py",
        "    taus = np.array([1.0, T])\n",
        "    taus = np.array([T])\n",
        ("tests/test_bounds.py::TestSupOverTau::test_thm5_keeps_tau_one_where_it_is_the_maximum",),
    ),
    Mutant(
        "lemma2-no-delta",
        "bounds.py",
        "(delta - g * math.log(g)) / (1.0 - g)",
        "(-g * math.log(g)) / (1.0 - g)",
        ("tests/test_bounds.py::TestLemma2",),
    ),
    Mutant(
        "thm2-no-sqrt",
        "bounds.py",
        "    return pf_inf * math.sqrt(2.0 * delta / (1.0 - gamma))\n",
        "    return pf_inf * (2.0 * delta / (1.0 - gamma))\n",
        ("tests/test_bounds.py::TestForgetUpper",),
    ),
    Mutant(
        "thm4-k-grid-unclamped",
        "bounds.py",
        "    ks = np.maximum(T * np.asarray(K_OVER_T), 2.0)\n",
        "    ks = T * np.asarray(K_OVER_T)\n",
        ("tests/test_bounds.py::TestThm4KGrid::test_k2_row_is_the_minimum_up_to_t_1_5",),
    ),
    Mutant(
        # the former k = max(T, 2), whose c = 0 row at T >= 2 read the
        # window's length in place of the divergent integral of p^0
        "thm4-window-length",
        "bounds.py",
        "    power_ints = _power_integrals(m, (ks - T) / (T * (ks - 1.0)))\n",
        "    ks = np.array([max(T, 2.0)])\n"
        "    lo, hi, _ = quadrature_domain(m, [T])\n"
        "    power_ints = (np.array([hi - lo]) if T >= 2.0\n"
        "                  else _power_integrals(m, (ks - T) / (T * (ks - 1.0))))\n",
        ("tests/test_bounds.py::TestThm4KGrid::test_does_not_depend_on_the_quadrature_window",),
    ),
    Mutant(
        "tilted-multiply-divide-swapped",
        "estimator.py",
        "    np.multiply(np.exp(out, out=out), f, out=out)\n"
        "    return np.divide(out, partition, out=out)\n",
        "    np.divide(np.exp(out, out=out), f, out=out)\n"
        "    return np.multiply(out, partition, out=out)\n",
        ("tests/test_estimator.py::TestTilted",),
    ),
)


def occurrences(mutant: Mutant, src: Path = ROOT / "src" / "t3") -> dict[str, int]:
    """How often the mutant's fragment occurs in each module of ``src``
    that holds it."""
    counts = {p.name: p.read_text().count(mutant.fragment) for p in sorted(src.glob("*.py"))}
    return {name: n for name, n in counts.items() if n}


def _copy_tree(dest: Path) -> None:
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(tree: Path, selection) -> subprocess.CompletedProcess:
    # pyproject's pythonpath = ["src"] puts the copy's src/ first
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection],
        cwd=tree,
        capture_output=True,
        text=True,
    )


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant, run in a copy."""
    with tempfile.TemporaryDirectory(prefix="t3-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        path = tree / "src" / "t3" / mutant.file
        path.write_text(path.read_text().replace(mutant.fragment, mutant.replacement))
        result = _pytest(tree, mutant.selection)
    if result.returncode == 0:
        return "survived"
    if result.returncode == 1:
        return "killed"
    return f"error: pytest exit {result.returncode}: {result.stdout.strip()[-300:]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in CATALOGUE}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"no catalogue entry named {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(CATALOGUE)

    for m in chosen:
        if occurrences(m) != {m.file: 1}:
            print(f"{m.name}: fragment must occur once, in {m.file}; found {occurrences(m)}")
            return 2
    with tempfile.TemporaryDirectory(prefix="t3-unmutated-") as tmp:
        _copy_tree(Path(tmp))
        clean = _pytest(Path(tmp), sorted({s for m in chosen for s in m.selection}))
    if clean.returncode != 0:
        print(f"the unmutated tree fails a selection:\n{clean.stdout[-2000:]}")
        return 2

    outcomes = {}
    for m in chosen:
        outcomes[m.name] = run(m)
        print(f"{m.name:32s} {outcomes[m.name]}", flush=True)
    survived = [n for n, o in outcomes.items() if o != "killed"]
    print(f"{len(chosen) - len(survived)} killed, {len(survived)} not killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
