"""The ``t3 bounds``, ``t3 verify-lb`` and ``t3 tinylm`` commands, argument
validation, the documented command list and the README's library quick
start, run in-process."""

import re
from pathlib import Path

import pytest

from t3 import cli


def test_verify_lb_equality_instance(capsys):
    assert cli.main(["verify-lb", "--gamma", "0.1", "--delta", "0.01"]) == 0
    assert "equality instance: OK" in capsys.readouterr().out


def test_verify_lb_checks_the_exact_forget_error(capsys, monkeypatch):
    from t3 import metrics

    argv = ["verify-lb", "--gamma", "0.1", "--delta", "0.01"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "  exact forget err        = 0.010462988551   |rel diff| = " in out
    # one part in 1e11 off the closed form fails the check
    exact = metrics.exact_forget_error
    monkeypatch.setattr(metrics, "exact_forget_error",
                        lambda est: [v * (1.0 + 1e-11) for v in exact(est)])
    assert cli.main(argv) == 1
    assert "equality instance: MISMATCH" in capsys.readouterr().out


def test_bounds_writes_every_row_in_order_and_sound(capsys, tmp_path):
    argv = ["bounds", "--classifiers", "1", "--tempered-t", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    path = tmp_path / "bound_reports.csv"
    assert capsys.readouterr().out == f"wrote {path}: 17 checks, 0 violations\n"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "bound_name,bound_value,measured_value,measured_std_err,sound"
    # one classifier's rows in the order the benchmark's bounds gate checks,
    # then the ten witness rows
    assert [r.split(",")[0] for r in rows] == [
        "retain_upper", "forget_upper", "classifier_l1_upper", "partition_lower",
        "retain_upper_tempered", "forget_upper_tempered", "partition_lower_tempered",
    ] + ["forget_lower_witness"] * 10
    assert all(r.endswith(",1") for r in rows)


def test_tinylm_reports_on_the_demo_corpus(capsys, tmp_path):
    path = str(tmp_path / "corpus.tsv")
    assert cli.main(["tinylm", "--write-demo", path, "--corpus", path]) == 0
    out = capsys.readouterr().out
    for line in (
        "corpus: |V|=57, retain:16, forget:16, ra:8, wf:4",
        "temperature                 = 2.0",
        "forget quality (KS p-value) = ",
        "model utility               = ",
        "MU-ROUGE                    = 1.0000",
        "  retain  probability=",
        "  ra      probability=",
        "  wf      probability=",
        "min forget-answer prob reduction = ",
        "retain greedy decodes unchanged  = 100%",
    ):
        assert line in out


def test_tinylm_rejects_a_corpus_with_an_empty_split(capsys, tmp_path, monkeypatch):
    from t3 import tinylm as tl

    path = tmp_path / "corpus.tsv"
    path.write_text("forget\tq z\tb\tb c\ta\nretain\tq y\ta\ta c\tb\n", encoding="utf-8")
    monkeypatch.setattr(tl, "fit_lm", None)  # no work may start
    with pytest.raises(ValueError, match="corpus has no pairs in split ra, wf$"):
        cli.main(["tinylm", "--corpus", str(path)])
    assert capsys.readouterr().out == ""


def _assert_rejected(capsys, tmp_path, command, option, value, message):
    """Argparse exits with code 2 and prints ``message`` before any output."""
    if command == "tinylm":
        out = ["--write-demo", str(tmp_path / "corpus.tsv")]
    elif command == "verify-lb":  # the option under test overrides one of these
        out = ["--gamma", "0.1", "--delta", "0.01"]
    else:
        out = ["--out", str(tmp_path)]
    with pytest.raises(SystemExit) as info:
        cli.main([command, *out, option, value])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["sweep-vf", "sweep-n"])
@pytest.mark.parametrize("workers", ["0", "-2", "two"])
def test_sweep_rejects_worker_count_below_one(capsys, tmp_path, command, workers):
    message = f"argument --workers: must be an integer >= 1, got '{workers}'"
    _assert_rejected(capsys, tmp_path, command, "--workers", workers, message)


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("sweep-vf", "--trials", "0"),
        ("sweep-n", "--trials", "-1"),
        ("bounds", "--trials", "0"),
        ("bounds", "--classifiers", "-3"),
        ("bounds", "--classifiers", "0"),
        ("bounds", "--tempered-t", "0.5"),
        ("bounds", "--tempered-t", "nan"),
        ("bounds", "--tempered-t", "inf"),
        ("tinylm", "--temperature", "0.5"),
        ("tinylm", "--temperature", "nan"),
        ("tinylm", "--temperature", "two"),
        ("tinylm", "--smoothing", "nan"),
        ("tinylm", "--smoothing", "0"),
        ("tinylm", "--smoothing", "inf"),
        ("tinylm", "--head-lambda", "nan"),
        ("tinylm", "--head-lambda", "-5"),
        ("tinylm", "--hidden", "0"),
        ("tinylm", "--epochs", "0"),
        ("tinylm", "--order", "0"),
        ("tinylm", "--order", "3"),
        ("tinylm", "--seed", "-3"),
        ("tinylm", "--seed", "two"),
        ("verify-lb", "--gamma", "0"),
        ("verify-lb", "--gamma", "1"),
        ("verify-lb", "--gamma", "nan"),
        ("verify-lb", "--delta", "0"),
        ("verify-lb", "--delta", "-1"),
        ("verify-lb", "--delta", "nan"),
        ("verify-lb", "--delta", "inf"),
        ("verify-lb", "--seed", "-1"),
        ("verify-lb", "--delta", "4"),  # in range alone, not with --gamma 0.1
        ("verify-lb", "--gamma", "0.9999999999999"),  # in (0, 1), above 1 - 1e-12
    ],
)
def test_rejects_out_of_domain_argument(capsys, tmp_path, command, option, value):
    reason = {
        "--tempered-t": "must be a finite temperature >= 1",
        "--temperature": "must be a finite temperature >= 1",
        "--smoothing": "must be a finite number > 0",
        "--head-lambda": "must be a finite number >= 0",
        "--gamma": "must be a number in (0, 1)",
        "--delta": "must be a finite number > 0",
        "--seed": "must be an integer >= 0",
    }.get(option, "must be an integer >= 1")
    if (command, option) == ("bounds", "--trials"):  # bounds has no --trials option
        message = f"unrecognized arguments: --trials {value}"
    elif (command, value) == ("verify-lb", "4"):
        message = "--gamma 0.1 and --delta 4.0 admit no witness instance"
    elif (command, value) == ("verify-lb", "0.9999999999999"):
        message = "--gamma 0.9999999999999 and --delta 0.01 admit no witness instance"
    elif option == "--order":
        message = f"argument --order: invalid choice: {value} (choose from 1, 2)"
    else:
        message = f"argument {option}: {reason}, got '{value}'"
    _assert_rejected(capsys, tmp_path, command, option, value, message)


def test_documented_commands_match_the_parser(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    choices = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1).split(",")
    in_docstring = re.findall(r"^\s+t3 ([\w-]+)", cli.__doc__, re.M)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    in_readme = re.findall(r"^t3 ([\w-]+)", block, re.M)
    assert choices == in_docstring == in_readme


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    # the Monte Carlo retain and forget errors, each beside its exact value
    mc_retain, exact_retain, mc_forget, exact_forget = map(float, lines[3].split())
    assert abs(mc_retain - exact_retain) < 0.01 and abs(mc_forget - exact_forget) < 0.01
