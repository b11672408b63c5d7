"""Module layering: no t3 module imports another t3 module's private
(underscore) names, so each decision stays behind the module that owns it,
and t3._kernels imports nothing from t3, so any module may use it without a
cycle."""

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


def _package_imports(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith(".") or name.split(".")[0] == "t3":
                yield f"line {node.lineno} imports {name}"


def test_kernels_imports_nothing_from_the_package():
    assert list(_package_imports((SRC / "_kernels.py").read_text())) == []
    # the check sees relative and absolute imports of both forms, and only those
    probe = "import t3.dist\nfrom t3 import dist\nfrom . import dist\nfrom .dist import Mixture\nimport numpy, math\nfrom numpy import exp\n"
    assert [hit.split()[-1] for hit in _package_imports(probe)] == ["t3.dist", "t3", ".", ".dist"]
