"""The benchmark traces t3 functions by the names in ``perfbench/spans.py``;
a name that no longer resolves would leave its per-layer metric at 0."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    # run_path compiles the file in memory, so nothing is written beside it
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    missing = []
    for name, module, attr, _opens_op in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module}.{attr}")
    assert targets and not missing
