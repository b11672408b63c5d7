"""The modules that touch Monte Carlo samples reduce with ufuncs only: no
matrix product and no BLAS-backed call.  On 10^5-point arrays such a call
starts OpenBLAS threads, and in a 2-worker sweep pool they oversubscribe the
cores.  The estimator is among them: ``tilted`` runs on the forget sample,
and ``density`` feeds the exact forget error.  So are the harness, which
averages the lambda-search's cross-entropy terms, and the classifier, whose
cross-entropy chain runs on every Monte Carlo sample; only its two trainer
functions are exempt, because their products are over designs of at most a
few hundred rows."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "t3"
# each module, with the functions in it that the check skips
UFUNC_ONLY = {
    "metrics.py": (),
    "_kernels.py": (),
    "estimator.py": (),
    "harness.py": (),
    "classifier.py": ("_objective", "_train"),
}
BLAS_CALLS = {"dot", "cov", "inner", "vdot", "matmul", "tensordot", "einsum"}


def _nodes(node, exempt):
    """node and its descendants in source order, less the functions named
    in exempt and all they contain."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name in exempt):
            yield from _nodes(child, exempt)


def _blas_uses(path: Path, exempt=()):
    for node in _nodes(ast.parse(path.read_text(), str(path)), exempt):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield f"{path.name}:{node.lineno} uses @"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in BLAS_CALLS:
                yield f"{path.name}:{node.lineno} calls {name}"


@pytest.mark.parametrize("module", UFUNC_ONLY)
def test_no_matrix_product_or_blas_call(module):
    assert list(_blas_uses(SRC / module, UFUNC_ONLY[module])) == []


def test_the_check_sees_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x @ y\nx @= y\nnp.dot(x, y)\nx.dot(y)\nnp.cov(x)\neinsum('i,i', x, y)\n")
    assert [hit.split(" ", 1)[1] for hit in _blas_uses(probe)] == [
        "uses @", "uses @", "calls dot", "calls dot", "calls cov", "calls einsum",
    ]
    # a function named as exempt is skipped whole, wherever it is defined;
    # the code around it is still checked
    probe.write_text(
        "def fit(x, y):\n    def inner():\n        return x @ y\n    return np.dot(x, y)\n"
        "def score(x, y):\n    def fit():\n        return x @ y\n    return np.matmul(x, y)\n"
    )
    assert [hit.split(" ", 1)[1] for hit in _blas_uses(probe, ("fit",))] == ["calls matmul"]
    assert [hit.split(":", 1)[1] for hit in _blas_uses(probe, ("inner",))] == [
        "4 calls dot", "7 uses @", "8 calls matmul",
    ]
