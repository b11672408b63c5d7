"""Module layering: no t3 module imports another t3 module's private
(underscore) names, so each decision stays behind the module that owns it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "t3"
OPEN_PRIVATE_MODULES = {"_kernels"}  # private modules whose names are public


def _private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "t3":
            continue  # outside t3: __future__, numpy, the standard library
        if module.split(".")[-1] in OPEN_PRIVATE_MODULES:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and alias.name not in OPEN_PRIVATE_MODULES:
                yield f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{module}"


def test_no_module_imports_private_names_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules under {SRC}"
    assert [hit for path in modules for hit in _private_imports(path)] == []
