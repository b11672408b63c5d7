"""The modules that touch Monte Carlo samples reduce with ufuncs only: no
matrix product and no BLAS-backed call.  On 10^5-point arrays such a call
starts OpenBLAS threads, and in a 2-worker sweep pool they oversubscribe the
cores.  The estimator is among them: ``tilted`` runs on the forget sample,
and ``density`` feeds the exact forget error."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "t3"
UFUNC_ONLY = ("metrics.py", "_kernels.py", "estimator.py")
BLAS_CALLS = {"dot", "cov", "inner", "vdot", "matmul", "tensordot", "einsum"}


def _blas_uses(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield f"{path.name}:{node.lineno} uses @"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in BLAS_CALLS:
                yield f"{path.name}:{node.lineno} calls {name}"


@pytest.mark.parametrize("module", UFUNC_ONLY)
def test_no_matrix_product_or_blas_call(module):
    assert list(_blas_uses(SRC / module)) == []


def test_the_check_sees_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x @ y\nx @= y\nnp.dot(x, y)\nx.dot(y)\nnp.cov(x)\neinsum('i,i', x, y)\n")
    assert [hit.split(" ", 1)[1] for hit in _blas_uses(probe)] == [
        "uses @", "uses @", "calls dot", "calls dot", "calls cov", "calls einsum",
    ]
