"""The ``t3 check`` and ``t3 verify-lb`` commands, run in-process."""

from t3 import cli


def test_check_passes(capsys):
    assert cli.main(["check"]) == 0
    assert "11/11 checks passed" in capsys.readouterr().out


def test_verify_lb_equality_instance(capsys):
    assert cli.main(["verify-lb", "--gamma", "0.1", "--delta", "0.01"]) == 0
    assert "equality instance: OK" in capsys.readouterr().out
