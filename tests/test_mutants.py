"""The mutation catalogue in tools/mutants.py stays applicable: each
fragment occurs exactly once in src/t3, in the module its entry names.
The mutants themselves run only in the script, to keep this suite fast."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import mutants  # noqa: E402


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_fragment_occurs_once_in_its_module(mutant):
    assert mutants.occurrences(mutant) == {mutant.file: 1}
