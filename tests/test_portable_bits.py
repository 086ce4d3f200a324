"""The answer path holds no BLAS product, so reports have the same bytes on any CPU.

OpenBLAS picks its kernel by CPU when it loads, and its kernels add the
terms of a product in different orders.  ``OPENBLAS_CORETYPE`` forces a
kernel for one process, so child processes under three kernels stand in
for three machines.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BANK_DATA, TOY_DATA

SRC = Path(__file__).parent.parent / "src"

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


# Run in one child per kernel: each command's exit code and stdout go to a
# file in the working directory, next to the matrix files of ``--out``.
CHILD = """
import contextlib, io, json, sys
from revalloc.cli import main
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(f"{code}\\n{out.getvalue()}")
"""


def commands():
    runs = {}
    for case, data, clusters, revenue in (("toy", TOY_DATA, "2", "10000"),
                                          ("bank", BANK_DATA, "3", "2900")):
        for fmt, extra in (("json", []), ("csv", ["--precision", "17"])):
            common = ["--input", str(data), "--clusters", clusters, "--format", fmt,
                      "--no-timestamp", *extra]
            runs[f"{case}-crosseff-{fmt}"] = ["crosseff", *common, "--out", f"{case}-matrix-{fmt}.csv"]
            runs[f"{case}-pipeline-{fmt}"] = ["pipeline", *common, "--revenue", revenue]
    return runs


def test_reports_have_the_same_bytes_under_every_openblas_kernel(tmp_path):
    runs = commands()
    outputs = {}
    for kernel in ("default", "Haswell", "Sandybridge"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if kernel != "default":
            env["OPENBLAS_CORETYPE"] = kernel
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        work = tmp_path / kernel
        work.mkdir()
        subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)], cwd=work, env=env,
                       check=True, timeout=120)
        outputs[kernel] = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    default = outputs["default"]
    assert len(default) == len(runs) + 4  # four matrix files
    assert all(default[name].startswith(b"0\n") for name in runs)
    for kernel in ("Haswell", "Sandybridge"):
        differ = [name for name in default if outputs[kernel].get(name) != default[name]]
        assert not differ, (kernel, differ)
