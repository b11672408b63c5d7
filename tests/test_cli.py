"""The ``t3 verify-lb`` and ``t3 tinylm`` commands, argument validation and
the documented command list, run in-process."""

import re
from pathlib import Path

import pytest

from t3 import cli


def test_verify_lb_equality_instance(capsys):
    assert cli.main(["verify-lb", "--gamma", "0.1", "--delta", "0.01"]) == 0
    assert "equality instance: OK" in capsys.readouterr().out


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
    ],
)
def test_rejects_out_of_domain_argument(capsys, tmp_path, command, option, value):
    reason = {
        "--tempered-t": "must be a finite temperature >= 1",
        "--temperature": "must be a finite temperature >= 1",
        "--smoothing": "must be a finite number > 0",
        "--head-lambda": "must be a finite number >= 0",
    }.get(option, "must be an integer >= 1")
    if (command, option) == ("bounds", "--trials"):  # bounds has no --trials option
        message = f"unrecognized arguments: --trials {value}"
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
