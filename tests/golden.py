"""Golden reports: the CLI's exact output on the bundled case studies.

Each case is one ``revalloc`` command line with repo-relative paths, since a
report echoes its paths in ``config``.  It runs in a work directory that
holds a copy of ``tests/data``, so a ``crosseff --out`` matrix lands there
too.  A case's golden file holds the exit code, the first stderr line and
stdout; its ``--out`` matrix, if any, is pinned beside it.

These cases are the one list of end-to-end CLI runs: ``test_golden.py``
compares them with the golden files in process, ``test_portable_bits.py``
under other OpenBLAS kernels, and ``test_cli.py`` validates their JSON
reports against the schema.

Regenerate every file under ``tests/data/golden/`` from the repo root with::

    PYTHONPATH=src python tests/golden.py --write

It prints each golden file it added, changed or removed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

from revalloc.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "golden"


def cases() -> dict[str, list[str]]:
    """Case name -> argv.  The ``--out`` file of a case is ``<name>.matrix.csv``."""
    runs = {}
    for case, clusters, revenue in (("toy", "2", "10000"), ("bank", "3", "2900")):
        data, matrix = f"tests/data/{case}_data.csv", f"tests/data/{case}_matrix.csv"
        for fmt, extra in (("json", []), ("csv", ["--precision", "17"])):
            tail = ["--format", fmt, *extra, "--no-timestamp"]
            runs[f"{case}-ccr-{fmt}"] = ["ccr", "--input", data, *tail]
            runs[f"{case}-crosseff-{fmt}"] = ["crosseff", "--input", data, "--clusters", clusters,
                                             *tail, "--out", f"{case}-crosseff-{fmt}.matrix.csv"]
            runs[f"{case}-shapley-{fmt}"] = ["shapley", "--matrix", matrix, *tail]
            runs[f"{case}-allocate-{fmt}"] = ["allocate", "--matrix", matrix,
                                             "--revenue", revenue, *tail]
            runs[f"{case}-pipeline-{fmt}"] = ["pipeline", "--input", data, "--clusters", clusters,
                                             "--revenue", revenue, *tail]
    runs["toy-shapley-input-json"] = ["shapley", "--input", "tests/data/toy_data.csv",
                                      "--clusters", "2", "--format", "json", "--no-timestamp"]
    # the paths that read a groups file, a reference for calibrate, or a
    # --matrix fixture beside --input (its ledger notes)
    toy, tail = "tests/data/toy_data.csv", ["--format", "json", "--no-timestamp"]
    runs["toy-pipeline-groups-json"] = ["pipeline", "--input", toy,
                                        "--groups", "tests/data/toy_groups.csv",
                                        "--revenue", "10000", *tail]
    runs["toy-shapley-calibrate-json"] = ["shapley", "--input", toy, "--clusters", "2",
                                          "--empty-coalition", "calibrate", "--reference",
                                          "tests/data/toy_shares_reference.csv", *tail]
    runs["toy-ccr-fixture-json"] = ["ccr", "--input", toy,
                                    "--matrix", "tests/data/toy_matrix.csv", *tail]
    runs["bank-crosseff-fixture-json"] = ["crosseff", "--input", "tests/data/bank_data.csv",
                                          "--matrix", "tests/data/bank_matrix.csv",
                                          "--clusters", "3", *tail,
                                          "--out", "bank-crosseff-fixture-json.matrix.csv"]
    # neither --groups nor --clusters: one all-ally group
    runs["bank-crosseff-onegroup-json"] = ["crosseff", "--input", "tests/data/bank_data.csv",
                                           *tail, "--out", "bank-crosseff-onegroup-json.matrix.csv"]
    # Z05 has a zero input cell: its tie-break is unbounded (exit 4)
    runs["zero-cells-crosseff"] = ["crosseff", "--input", "tests/data/zero_cells.csv",
                                   "--clusters", "2", "--no-timestamp",
                                   "--out", "zero-cells-crosseff.matrix.csv"]
    # the first DMU has no name (exit 3)
    runs["blank-name-ccr"] = ["ccr", "--input", "tests/data/blank_name.csv", "--no-timestamp"]
    # the second DMU's name is GBK, not UTF-8 (exit 3)
    runs["gbk-name-ccr"] = ["ccr", "--input", "tests/data/gbk_name.csv", "--no-timestamp"]
    # one DMU over the coalition cap of 24 (exit 3)
    runs["over-cap-shapley"] = ["shapley", "--matrix", "tests/data/matrix_25.csv",
                                "--no-timestamp"]
    return runs


def run_case(name: str, work: Path) -> dict[str, bytes]:
    """Run one case in ``work``; file name -> the bytes its golden files should hold."""
    if not (work / "tests" / "data").is_dir():
        shutil.copytree(DATA, work / "tests" / "data", ignore=shutil.ignore_patterns("golden"))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(cases()[name])
    finally:
        os.chdir(cwd)
    first_err = err.getvalue().partition("\n")[0]
    files = {f"{name}.txt": f"exit: {code}\nstderr: {first_err}\n{out.getvalue()}".encode()}
    matrix = work / f"{name}.matrix.csv"
    if matrix.exists():
        files[matrix.name] = matrix.read_bytes()
    return files


def run_all() -> dict[str, bytes]:
    """Every case's files, from one work directory."""
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in cases():
            files.update(run_case(name, Path(tmp)))
    return files


def compare(files: dict[str, bytes]) -> list[str]:
    """One line per golden file that ``files`` would add, change or remove,
    such as ``changed bank-ccr-csv.txt``."""
    pinned = {p.name: p.read_bytes() for p in GOLDEN.glob("*")}
    lines = []
    for fname in sorted(pinned.keys() | files.keys()):
        if fname not in files:
            lines.append(f"removed {fname}")
        elif fname not in pinned:
            lines.append(f"added {fname}")
        elif files[fname] != pinned[fname]:
            lines.append(f"changed {fname}")
    return lines


def write() -> None:
    files = run_all()
    changes = compare(files)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    for fname, content in files.items():
        (GOLDEN / fname).write_bytes(content)
    for line in changes:
        print(line)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="regenerate tests/data/golden/")
    parser.parse_args()
    write()
