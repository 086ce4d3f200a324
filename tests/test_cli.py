"""CLI behavior: commands, exit codes, determinism, and report contracts."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from revalloc.cli import main
from revalloc.report import Report

from conftest import (
    BANK_DATA,
    BANK_MATRIX,
    TOY_DATA,
    TOY_GROUPS,
    TOY_MATRIX,
    TOY_SHARES_REFERENCE,
)

SCHEMA_PATH = Path(__file__).parent.parent / "docs" / "report_schema.json"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ccr_toy(capsys):
    code, out, _ = run(capsys, "ccr", "--input", TOY_DATA, "--no-timestamp")
    assert code == 0
    assert "theta,DMU_1,1.00" in out
    assert "theta,DMU_5,0.76" in out


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
    code, _, err = run(capsys, "shapley")
    assert code == 3
    code, _, err = run(capsys, "shapley", "--input", TOY_DATA, "--matrix", TOY_MATRIX)
    assert code == 3
    assert "exactly one" in err


def test_shapley_from_fixture(capsys):
    code, out, _ = run(capsys, "shapley", "--matrix", TOY_MATRIX, "--no-timestamp",
                       "--precision", 4)
    assert code == 0
    assert "shapley,DMU_1,0.5128,0.6201,0.7401" in out


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


@pytest.mark.parametrize("argv, sections", [
    (["ccr", "--input", TOY_DATA], {"theta"}),
    (["crosseff", "--input", TOY_DATA], {"theta", "matrix"}),
    (["shapley", "--matrix", TOY_MATRIX], {"shapley"}),
    (["shapley", "--input", TOY_DATA], {"matrix", "shapley"}),
    (["allocate", "--matrix", TOY_MATRIX, "--revenue", 10000], {"shapley", "allocation"}),
    (["pipeline", "--input", TOY_DATA, "--revenue", 10000],
     {"theta", "matrix", "shapley", "allocation"}),
], ids=["ccr", "crosseff", "shapley-matrix", "shapley-input", "allocate", "pipeline"])
def test_json_report_validates_against_schema(capsys, tmp_path, argv, sections):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run(capsys, *argv, "--format", "json", "--no-timestamp",
                       "--out", tmp_path / "artifact")
    assert code == 0
    payload = json.loads(out)
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(payload, schema)
    assert set(payload["results"]) == sections


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


def test_reports_are_byte_identical(capsys):
    argv = ["pipeline", "--input", TOY_DATA, "--revenue", 2900, "--no-timestamp"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv_json = argv + ["--format", "json"]
    _, first, _ = run(capsys, *argv_json)
    _, second, _ = run(capsys, *argv_json)
    assert first == second


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
    rep = Report.from_json(out)
    assert rep.to_json() == out


def test_report_csv_round_trips_at_precision(capsys):
    _, out, _ = run(capsys, "allocate", "--matrix", TOY_MATRIX, "--revenue", 100,
                    "--precision", 3, "--no-timestamp")
    sections = Report.parse_csv(out)
    assert sections["meta"]["command"] == ["allocate"]
    central = [float(sections["allocation"][f"DMU_{i}"][1]) for i in range(1, 6)]
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
    code, _, err = run(capsys, "allocate", "--matrix", TOY_MATRIX, "--revenue", 100,
                       "--precision", -1)
    assert code == 3
    assert "--precision" in err


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

