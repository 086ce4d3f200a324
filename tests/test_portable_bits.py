"""The answer path holds no BLAS product, so reports have the same bytes on any CPU.

OpenBLAS picks its kernel by CPU when it loads, and its kernels add the
terms of a product in different orders.  ``OPENBLAS_CORETYPE`` forces a
kernel for one process, so child processes under two other kernels stand
in for other machines.  numpy picks its own SIMD loops at import, and
``NPY_DISABLE_CPU_FEATURES`` turns every level above the baseline off for
one more child, which stands in for the oldest CPU this numpy build runs
on.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from test_dea import production_dataset

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


def run_child(code, tmp_path, **env):
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_reports_have_the_same_bytes_under_every_openblas_kernel(kernel, tmp_path):
    child = run_child(CHILD, tmp_path, OPENBLAS_CORETYPE=kernel)
    assert (child.returncode, child.stdout) == (0, ""), child.stderr


def dispatched_on() -> list[str]:
    """numpy's SIMD levels above the baseline that this process uses."""
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def seeded_data_digest() -> str:
    """One hash over the raw arrays of the seeded datasets ``tests/test_dea.py`` draws."""
    digest = hashlib.sha256()
    for seed in range(10):
        for n in (18, 24, 80, 240):
            ds = production_dataset([seed, 0], n)
            digest.update(ds.raw_inputs.tobytes() + ds.raw_outputs.tobytes())
    return digest.hexdigest()


BASELINE_CHILD = """import json, golden, test_portable_bits as t
print(json.dumps([t.dispatched_on(), golden.compare(golden.run_all()), t.seeded_data_digest()]))"""


def test_reports_and_test_data_have_the_same_bytes_at_the_baseline_simd_level(tmp_path):
    child = run_child(BASELINE_CHILD, tmp_path, NPY_DISABLE_CPU_FEATURES=" ".join(dispatched_on()))
    assert child.returncode == 0, child.stderr
    on, changed, data = json.loads(child.stdout)
    assert on == []
    assert changed == []
    assert data == seeded_data_digest()
