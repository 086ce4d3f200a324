"""The answer path holds no BLAS product, so reports have the same bytes on any CPU.

OpenBLAS picks its kernel by CPU when it loads, and its kernels add the
terms of a product in different orders.  ``OPENBLAS_CORETYPE`` forces a
kernel for one process, so child processes under two other kernels stand
in for other machines.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"

BLAS_CALLS = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum"}


def blas_uses(source: str, filename: str = "<source>") -> list[str]:
    """Each ``@``/``@=`` and each call of a BLAS-backed numpy function in the source."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Call):
            parts = ast.unparse(node.func).split(".")
            if parts[-1] in BLAS_CALLS or "linalg" in parts[:-1]:
                found.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("c = a @ b", True),
    ("c @= b", True),
    ("np.dot(a, b)", True),
    ("a.dot(b)", True),
    ("np.einsum('ij,j', a, b)", True),
    ("np.linalg.norm(a)", True),
    ("@dataclass(eq=False)\nclass A:\n    x: int", False),
    ("@np.vectorize\ndef f(x):\n    return x", False),
    ("(a * b).sum(axis=0)", False),
])
def test_blas_guard_flags_products_not_decorators(source, flagged):
    assert bool(blas_uses(source)) == flagged


def test_package_has_no_blas_products():
    found = []
    for path in sorted((SRC / "revalloc").glob("*.py")):
        found += blas_uses(path.read_text(encoding="utf-8"), path.name)
    assert not found


# One child per kernel runs every golden case and prints each file whose
# bytes differ from tests/data/golden/, which test_golden.py checks under
# the default kernel.
CHILD = "import golden; print(*golden.compare(golden.run_all()), sep='\\n', end='')"


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_reports_have_the_same_bytes_under_every_openblas_kernel(kernel, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=path)
    child = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stdout) == (0, ""), child.stderr
