"""The ``t3 check`` and ``t3 verify-lb`` commands and the sweep options,
run in-process."""

import pytest

from t3 import cli


def test_check_passes(capsys):
    assert cli.main(["check"]) == 0
    assert "11/11 checks passed" in capsys.readouterr().out


def test_verify_lb_equality_instance(capsys):
    assert cli.main(["verify-lb", "--gamma", "0.1", "--delta", "0.01"]) == 0
    assert "equality instance: OK" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep-vf", "sweep-n"])
@pytest.mark.parametrize("workers", ["0", "-2", "two"])
def test_sweep_rejects_worker_count_below_one(capsys, tmp_path, command, workers):
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--out", str(tmp_path), "--workers", workers])
    assert info.value.code == 2
    assert f"argument --workers: must be an integer >= 1, got '{workers}'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
