"""CLI behavior: commands, exit codes, determinism, and report contracts."""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from revalloc import dea, game, report
from revalloc.cli import main

import golden
from conftest import (
    BANK_DATA,
    BANK_MATRIX,
    TOY_DATA,
    TOY_GROUPS,
    TOY_MATRIX,
    TOY_SHARES_REFERENCE,
)

SCHEMA_PATH = Path(__file__).parent.parent / "docs" / "report_schema.json"
SRC = Path(__file__).parent.parent / "src"

# imports the CLI, runs the argv lists given as JSON through ``cli.main``
# and prints one JSON object: the top-level modules added by then, other
# than the standard library's, numpy's and the package's own; whether
# OpenSSL's ``_hashlib`` is loaded; and each run's exit code and stdout
RUN_CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
from revalloc.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append((main(argv), out.getvalue()))
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"foreign": sorted(added - set(sys.stdlib_module_names) - {"numpy", "revalloc"}),
                  "_hashlib": "_hashlib" in sys.modules, "runs": runs}))
"""
# golden cases that hash every input role between them, after one bank pipeline
HASHED_CASES = ("bank-pipeline-json", "toy-ccr-fixture-json", "toy-pipeline-groups-json",
                "toy-shapley-calibrate-json")


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ccr_fixture_comparison_lands_in_ledger(capsys):
    code, out, _ = run(capsys, "ccr", "--input", TOY_DATA, "--matrix", TOY_MATRIX,
                       "--no-timestamp")
    assert code == 0
    assert "discrepancy" in out
    assert "DMU_5" in out  # computed 0.76 vs fixture diagonal 1.00


def test_ccr_requires_input(capsys):
    code, _, err = run(capsys, "ccr")
    assert code == 3
    assert "requires --input" in err


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "ccr", "--input", "no/such/file.csv")
    assert code == 2


def test_malformed_dataset_is_validation_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("dmu,x:a,y:b\nA,-3,1\n")
    code, _, err = run(capsys, "ccr", "--input", bad)
    assert code == 3


@pytest.mark.parametrize("text, message", [
    ("dmu,x:a,x:a,y:b\nA,1,1,3\nB,2,2,3\n", "duplicate input names: ['a']"),
    ("dmu,x:a,y:b,y:b\nA,1,3,3\nB,2,3,3\n", "duplicate output names: ['b']"),
    ("dmu,x:,y:b\nA,1,3\nB,2,3\n", "input 1 of 1 has a blank name"),
    # the name after the prefix is stripped, as DMU names are
    ("dmu,x:a,y:b,y: b\nA,1,3,3\nB,2,3,3\n", "duplicate output names: ['b']"),
], ids=["input-repeated", "output-repeated", "input-blank", "output-spaced"])
def test_repeated_or_blank_column_names_exit_three(capsys, tmp_path, text, message):
    # a copy-pasted input column would otherwise be modelled as a second input
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code, _, err = run(capsys, "ccr", "--input", bad)
    assert code == 3 and message in err


def test_crosseff_writes_matrix(capsys, tmp_path):
    out_path = tmp_path / "m.csv"
    code, out, _ = run(capsys, "crosseff", "--input", TOY_DATA, "--clusters", 2,
                       "--out", out_path, "--no-timestamp")
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "dmu,DMU_1,DMU_2,DMU_3,DMU_4,DMU_5"
    assert len(lines) == 6
    assert "matrix,DMU_1" in out


def test_crosseff_default_artifact_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "crosseff", "--input", TOY_DATA, "--no-timestamp")
    assert code == 0
    assert (tmp_path / "matrix.csv").exists()


def test_crosseff_explicit_groups_override(capsys, tmp_path):
    code, out, _ = run(capsys, "crosseff", "--input", TOY_DATA, "--groups", TOY_GROUPS,
                       "--out", tmp_path / "m.csv", "--no-timestamp")
    assert code == 0
    assert f"config,groups,{TOY_GROUPS}" in out


def test_crosseff_regeneration_gap_is_ledgered(capsys, tmp_path):
    code, out, _ = run(capsys, "crosseff", "--input", TOY_DATA, "--matrix", TOY_MATRIX,
                       "--out", tmp_path / "m.csv", "--no-timestamp")
    assert code == 0
    assert "matrix regeneration vs fixture" in out


def test_crosseff_bank_under_five_seconds(capsys, tmp_path):
    start = time.perf_counter()
    code, _, _ = run(capsys, "crosseff", "--input", BANK_DATA, "--clusters", 3,
                     "--out", tmp_path / "m.csv", "--no-timestamp")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0, f"crosseff took {elapsed:.2f}s"


def test_shapley_needs_exactly_one_source(capsys):
    for sources in ((), ("--input", TOY_DATA, "--matrix", TOY_MATRIX)):
        code, out, err = run(capsys, "shapley", *sources)
        assert code == 3
        assert err.splitlines()[0] == "error: shapley requires exactly one of --input or --matrix"
        assert out == ""


def test_shapley_from_dataset(capsys):
    code, out, _ = run(capsys, "shapley", "--input", TOY_DATA, "--clusters", 2,
                       "--no-timestamp")
    assert code == 0
    assert "shapley,DMU_1" in out
    assert "matrix,DMU_1" in out  # computed stage outputs are included


def test_calibrate_requires_reference(capsys):
    code, _, err = run(capsys, "shapley", "--matrix", TOY_MATRIX,
                       "--empty-coalition", "calibrate")
    assert code == 3
    assert "--reference" in err


def test_calibrate_selects_exclude_on_toy_reference(capsys):
    code, out, _ = run(capsys, "shapley", "--matrix", TOY_MATRIX,
                       "--empty-coalition", "calibrate",
                       "--reference", TOY_SHARES_REFERENCE, "--no-timestamp")
    assert code == 0
    assert "selected exclude" in out
    assert "shapley_meta,empty_coalition,exclude" in out


def test_calibrate_equals_one_run_per_convention(capsys, tmp_path):
    def shapley(*flags):
        code, out, _ = run(capsys, "shapley", "--matrix", TOY_MATRIX, "--format", "json",
                           "--no-timestamp", *flags)
        assert code == 0
        payload = json.loads(out)
        return payload["results"]["shapley"], payload["discrepancy_ledger"]

    single = {c: shapley("--empty-coalition", c)[0] for c in ("exclude", "unit")}
    # one reference that each convention fits exactly, so each is selected once
    for winner in ("exclude", "unit"):
        reference = tmp_path / f"{winner}.csv"
        reference.write_text("dmu,phi\n" + "".join(
            f"{name},{phi!r}\n" for name, phi in zip(single[winner]["names"],
                                                     single[winner]["phi"])))
        shares, notes = shapley("--empty-coalition", "calibrate", "--reference", reference)
        assert shares == single[winner]
        fits = {c: max(abs(a - b) for a, b in zip(single[c]["phi"], single[winner]["phi"]))
                for c in ("exclude", "unit")}
        assert notes == [
            f"empty-coalition calibration: exclude max-abs-dev {fits['exclude']:.4f}, "
            f"unit max-abs-dev {fits['unit']:.4f}; selected {winner}"
        ]


def test_allocate_rejects_bad_revenue(capsys):
    code, _, err = run(capsys, "allocate", "--matrix", TOY_MATRIX, "--revenue", -5)
    assert code == 3
    code, _, err = run(capsys, "allocate", "--matrix", TOY_MATRIX)
    assert code == 3
    assert "--revenue" in err


def test_allocate_central_row_sums_to_revenue(capsys):
    code, out, _ = run(capsys, "allocate", "--matrix", TOY_MATRIX,
                       "--revenue", 10000, "--format", "json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    central = payload["results"]["allocation"]["central"]
    assert abs(sum(central) - 10000) < 1e-6 * 10000


def test_degenerate_matrix_exits_four(capsys, tmp_path):
    path = tmp_path / "degenerate.csv"
    path.write_text(
        "dmu,A,B,C\n"
        "A,1,1,1\n"
        "B,1,1,1\n"
        "C,0.0000000001,0.0000000001,1\n"
    )
    code, _, err = run(capsys, "shapley", "--matrix", path)
    assert code == 4
    assert "coalition" in err
    assert "DMU C (index 2) joining coalition {A}" in err


def test_game_over_the_coalition_cap_exits_three(capsys, tmp_path, monkeypatch):
    # bad game inputs are refused before any stage runs
    def stage(*args, **kwargs):
        pytest.fail("a stage ran before the game inputs were checked")

    monkeypatch.setattr(dea, "cross_efficiency_matrix", stage)
    monkeypatch.setattr(game, "shapley_triples", stage)
    names = [f"D{i + 1:02d}" for i in range(25)]
    matrix = tmp_path / "m25.csv"
    matrix.write_text(",".join(["dmu"] + names) + "\n" + "".join(
        ",".join([name] + ["1" if i == j else "0.5" for j in range(25)]) + "\n"
        for i, name in enumerate(names)))
    dataset = tmp_path / "d25.csv"
    dataset.write_text("dmu,x:a,y:b\n" + "".join(
        f"{name},{i + 1},{25 - i}\n" for i, name in enumerate(names)))
    reference = tmp_path / "reference.csv"
    reference.write_text("".join(TOY_SHARES_REFERENCE.read_text().splitlines(True)[:-1]))
    cap = "error: 25 DMUs exceeds the coalition cap of 24\n"
    for argv, error in (
        (["shapley", "--matrix", matrix], cap),
        (["allocate", "--revenue", 100, "--matrix", matrix], cap),
        (["shapley", "--input", dataset], cap),
        (["pipeline", "--revenue", 100, "--input", dataset], cap),
        (["allocate", "--revenue", -5, "--matrix", TOY_MATRIX],
         "error: revenue must be positive, got -5.0\n"),
        (["allocate", "--revenue", "nan", "--matrix", TOY_MATRIX],
         "error: revenue must be positive, got nan\n"),
        (["shapley", "--input", TOY_DATA, "--empty-coalition", "calibrate"],
         "error: --empty-coalition calibrate requires --reference\n"),
        (["shapley", "--input", TOY_DATA, "--empty-coalition", "calibrate",
          "--reference", reference], "error: reference file does not cover DMUs ['DMU_5']\n"),
    ):
        assert run(capsys, *argv) == (3, "", error)


def test_zero_input_cell_tie_break_exits_four(capsys, tmp_path):
    # Z05 has a zero first input, so its tie-break LP is unbounded whenever
    # an adversary uses that input: a defined failure until the model
    # handles zero input cells
    X = [[3, 2], [2, 1], [1, 0], [1, 0], [0, 3], [2, 3], [2, 2], [3, 2]]
    Y = [2, 2, 2, 3, 1, 3, 3, 1]
    path = tmp_path / "zeros.csv"
    path.write_text("dmu,x:a,x:b,y:c\n" + "".join(
        f"Z{k + 1:02d},{x[0]},{x[1]},{y}\n" for k, (x, y) in enumerate(zip(X, Y))))
    code, _, err = run(capsys, "crosseff", "--input", path, "--clusters", 2,
                       "--out", tmp_path / "m.csv", "--no-timestamp")
    assert code == 4
    assert "'Z05'" in err
    assert "zero input cells" in err


def test_zero_virtual_input_exits_four(capsys, tmp_path):
    # A's tie-break weights rest on input a, which B lacks; B's and C's own
    # tie-breaks are unbounded, but DMU order reaches A first
    path = tmp_path / "zero_virtual_input.csv"
    path.write_text("dmu,x:a,x:b,y:c\nA,1,1,2\nB,0,1,0\nC,1,0,0\n")
    code, _, err = run(capsys, "crosseff", "--input", path, "--clusters", 3,
                       "--out", tmp_path / "m.csv", "--no-timestamp")
    assert code == 4
    assert "evaluator 'A' gives DMU 'B' zero virtual input" in err


# the golden JSON reports, by command and source flag, and the stages each reports
@pytest.mark.parametrize("command, source, sections", [
    ("ccr", "--input", {"theta"}),
    ("crosseff", "--input", {"theta", "matrix"}),
    ("shapley", "--matrix", {"shapley"}),
    ("shapley", "--input", {"matrix", "shapley"}),
    ("allocate", "--matrix", {"shapley", "allocation"}),
    ("pipeline", "--input", {"theta", "matrix", "shapley", "allocation"}),
], ids=["ccr", "crosseff", "shapley-matrix", "shapley-input", "allocate", "pipeline"])
def test_json_report_validates_against_schema(command, source, sections):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    names = [name for name, argv in golden.cases().items()
             if name.endswith("-json") and argv[:2] == [command, source]]
    assert names
    for name in names:
        text = (golden.GOLDEN / f"{name}.txt").read_text()
        assert text.startswith("exit: 0\nstderr: \n"), name
        payload = json.loads(text.split("\n", 2)[2])
        jsonschema.validate(payload, schema)
        assert set(payload["results"]) == sections, name


def test_pipeline_matrix_fixture_is_compared(capsys):
    code, out, _ = run(capsys, "pipeline", "--input", TOY_DATA, "--matrix", TOY_MATRIX,
                       "--revenue", 10000, "--no-timestamp")
    assert code == 0
    assert "matrix regeneration vs fixture" in out
    code, out, err = run(capsys, "pipeline", "--input", TOY_DATA, "--matrix", BANK_MATRIX,
                         "--revenue", 10000, "--no-timestamp")
    assert code == 3
    assert "do not match dataset names" in err
    assert out == ""


def test_pipeline_requires_input_and_revenue(capsys):
    assert run(capsys, "pipeline", "--revenue", 10)[0] == 3
    assert run(capsys, "pipeline", "--input", TOY_DATA)[0] == 3


def test_composability_matrix_file_reproduces_pipeline(capsys, tmp_path):
    mpath = tmp_path / "m.csv"
    run(capsys, "crosseff", "--input", TOY_DATA, "--clusters", 2, "--out", mpath,
        "--no-timestamp")
    _, from_file, _ = run(capsys, "shapley", "--matrix", mpath, "--format", "json",
                          "--no-timestamp")
    _, in_process, _ = run(capsys, "shapley", "--input", TOY_DATA, "--clusters", 2,
                           "--format", "json", "--no-timestamp")
    a = json.loads(from_file)["results"]["shapley"]
    b = json.loads(in_process)["results"]["shapley"]
    for key in ("phi_lower", "phi", "phi_upper"):
        assert np.abs(np.array(a[key]) - np.array(b[key])).max() <= 1e-9


def test_report_json_round_trip(capsys):
    _, out, _ = run(capsys, "allocate", "--matrix", TOY_MATRIX, "--revenue", 100,
                    "--format", "json", "--no-timestamp")
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_report_csv_round_trips_at_precision(capsys):
    _, out, _ = run(capsys, "allocate", "--matrix", TOY_MATRIX, "--revenue", 100,
                    "--precision", 3, "--no-timestamp")
    rows = list(csv.reader(io.StringIO(out)))
    assert ["meta", "command", "allocate"] in rows
    central = [float(row[3]) for row in rows if row[0] == "allocation"]
    _, json_out, _ = run(capsys, "allocate", "--matrix", TOY_MATRIX, "--revenue", 100,
                         "--format", "json", "--no-timestamp")
    exact = json.loads(json_out)["results"]["allocation"]["central"]
    assert central == [round(v, 3) for v in exact]


def test_out_writes_report_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    _, out, _ = run(capsys, "shapley", "--matrix", TOY_MATRIX, "--format", "json",
                    "--no-timestamp", "--out", path)
    assert path.read_text() == out


def test_out_write_failure_is_io_error(capsys, tmp_path):
    path = tmp_path / "no" / "such" / "r.csv"
    code, out, err = run(capsys, "shapley", "--matrix", TOY_MATRIX, "--out", path)
    assert code == 2
    assert str(path) in err
    assert out == ""


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 3


def test_negative_precision_is_usage_error(capsys):
    for precision in ("-1", "x"):
        code, out, err = run(capsys, "allocate", "--matrix", TOY_MATRIX, "--revenue", 100,
                             "--precision", precision)
        assert code == 3
        assert err.splitlines()[0] == (
            f"error: argument --precision: expected a nonnegative integer, got '{precision}'")
        assert out == ""


def test_precision_above_17_is_usage_error(capsys):
    code, out, err = run(capsys, "allocate", "--matrix", TOY_MATRIX, "--revenue", 100,
                         "--precision", "18")
    assert code == 3
    assert err.splitlines()[0] == (
        "error: argument --precision: expected at most 17 decimals, got '18'")
    assert out == ""


def test_unknown_convention_is_usage_error(capsys):
    code, out, err = run(capsys, "shapley", "--matrix", TOY_MATRIX, "--empty-coalition", "bogus")
    assert code == 3
    assert "--empty-coalition" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["ccr", "--input", ""],
    ["ccr", "--input", TOY_DATA, "--matrix", ""],
    ["ccr", "--input", TOY_DATA, "--groups", ""],
    ["shapley", "--matrix", TOY_MATRIX, "--empty-coalition", "calibrate", "--reference", ""],
    ["crosseff", "--input", TOY_DATA, "--out", ""],
], ids=["input", "matrix", "groups", "reference", "out"])
def test_empty_path_flag_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)   # a crosseff that ignored --out '' writes matrix.csv here
    code, out, err = run(capsys, *argv)
    flag = argv[argv.index("") - 1]
    assert code == 3
    assert f"argument {flag}: expected a file path, got ''" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_provenance_hashes_the_input_an_out_overwrites(capsys, tmp_path):
    data = tmp_path / "t.csv"
    data.write_bytes(TOY_DATA.read_bytes())
    code, out, _ = run(capsys, "crosseff", "--input", data, "--out", data, "--format", "json",
                       "--no-timestamp")
    assert code == 0
    assert data.read_bytes() != TOY_DATA.read_bytes()   # the matrix is written over it
    provenance = json.loads(out)["provenance"]
    assert provenance["input_sha256"] == hashlib.sha256(TOY_DATA.read_bytes()).hexdigest()


@pytest.mark.parametrize("bad_row", ["DMU_2,abc", "DMU_2", "DMU_2,nan",
                                     "DMU_1,0.31", "DMU_9,0.19"])
def test_bad_reference_row_is_validation_error(capsys, tmp_path, bad_row):
    lines = TOY_SHARES_REFERENCE.read_text().splitlines()
    lines[2] = bad_row
    reference = tmp_path / "reference.csv"
    reference.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "shapley", "--matrix", TOY_MATRIX,
                       "--empty-coalition", "calibrate", "--reference", reference)
    assert code == 3
    assert "line 3" in err



@pytest.mark.parametrize("argv, error", [
    (["ccr", "--input", TOY_DATA, "--groups", BANK_MATRIX, "--clusters", 7],
     "ccr does not read --groups"),
    (["ccr", "--input", TOY_DATA, "--revenue", 5], "ccr does not read --revenue"),
    (["ccr", "--input", TOY_DATA, "--empty-coalition", "unit"],
     "ccr does not read --empty-coalition"),
    (["ccr", "--input", TOY_DATA, "--reference", TOY_SHARES_REFERENCE],
     "ccr does not read --reference"),
    (["crosseff", "--input", TOY_DATA, "--revenue", 5], "crosseff does not read --revenue"),
    (["shapley", "--matrix", TOY_MATRIX, "--revenue", 5], "shapley does not read --revenue"),
    (["shapley", "--matrix", TOY_MATRIX, "--groups", TOY_GROUPS],
     "shapley reads --groups only with --input"),
    (["allocate", "--matrix", TOY_MATRIX, "--revenue", 5, "--clusters", 2],
     "allocate reads --clusters only with --input"),
    (["shapley", "--matrix", TOY_MATRIX, "--reference", TOY_SHARES_REFERENCE],
     "shapley reads --reference only with --empty-coalition calibrate"),
    (["crosseff", "--input", TOY_DATA, "--groups", TOY_GROUPS, "--clusters", 2],
     "--groups and --clusters are exclusive"),
    (["pipeline", "--input", TOY_DATA, "--revenue", 5, "--groups", TOY_GROUPS, "--clusters", 2],
     "--groups and --clusters are exclusive"),
    # the default convention, given explicitly, is no flag to refuse
    (["ccr", "--input", TOY_DATA, "--empty-coalition", "exclude"], None),
], ids=["ccr-groups-clusters", "ccr-revenue", "ccr-convention", "ccr-reference",
        "crosseff-revenue", "shapley-revenue", "shapley-matrix-groups",
        "allocate-matrix-clusters", "shapley-reference-without-calibrate",
        "crosseff-groups-and-clusters", "pipeline-groups-and-clusters", "ccr-default-convention"])
def test_input_flags_a_run_does_not_read_exit_three(capsys, tmp_path, argv, error):
    artifact = tmp_path / "artifact"
    code, out, err = run(capsys, *argv, "--no-timestamp", "--out", artifact)
    if error is None:
        assert code == 0
        return
    assert code == 3
    assert error in err
    assert out == ""
    assert not artifact.exists()


def run_child(argvs, *, cwd, preamble=""):
    """Run ``RUN_CHILD`` in a fresh interpreter, with ``preamble`` first; its JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", preamble + RUN_CHILD, json.dumps(argvs)],
                           capture_output=True, text=True, timeout=60, cwd=cwd,
                           env=dict(os.environ, PYTHONPATH=path))
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.fixture(scope="module")
def hashed_runs(tmp_path_factory):
    """One fresh CLI process that runs ``HASHED_CASES`` in a copy of the test data."""
    work = tmp_path_factory.mktemp("hashed")
    shutil.copytree(golden.DATA, work / "tests" / "data",
                    ignore=shutil.ignore_patterns("golden"))
    cases = golden.cases()
    return work, run_child([cases[name] for name in HASHED_CASES], cwd=work)


def test_cli_imports_only_the_standard_library_and_numpy(hashed_runs):
    # numpy is the one runtime dependency, and every CLI call pays for its
    # imports at start-up; modules the interpreter's site loads do not
    # count, and those a command loads as it runs do
    _, child = hashed_runs
    assert child["foreign"] == []
    assert [code for code, _ in child["runs"]] == [0] * len(HASHED_CASES)


def test_hashed_runs_never_load_openssl(hashed_runs):
    # hashlib's _hashlib maps libcrypto (about 3.5 MB resident) into every
    # CLI process; the built-in SHA-256 must give its digests without it
    work, child = hashed_runs
    assert child["_hashlib"] is False
    roles = set()
    for _, out in child["runs"]:
        payload = json.loads(out)
        for key, digest in payload["provenance"].items():
            role = key.removesuffix("_sha256")
            if role != key:
                roles.add(role)
                path = work / payload["config"][role]
                assert digest == hashlib.sha256(path.read_bytes()).hexdigest(), key
    assert roles == {"input", "matrix", "groups", "reference"}


def test_digests_fall_back_to_hashlib(tmp_path):
    # an interpreter without the built-in modules hashes through hashlib
    hide = 'import sys\nsys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
    argv = ["ccr", "--input", str(TOY_DATA), "--format", "json", "--no-timestamp"]
    child = run_child([argv], cwd=tmp_path, preamble=hide)
    [(code, out)] = child["runs"]
    assert code == 0
    assert child["_hashlib"] is True
    provenance = json.loads(out)["provenance"]
    assert provenance["input_sha256"] == hashlib.sha256(TOY_DATA.read_bytes()).hexdigest()


@pytest.mark.parametrize("size", [0, 65536, 200_000])
def test_sha256_of_matches_hashlib_at_chunk_boundaries(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert report.sha256_of(path) == hashlib.sha256(path.read_bytes()).hexdigest()
