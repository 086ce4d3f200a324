"""The CLI's reports, matrix files, exit codes and first error lines keep their bytes.

A change that alters a golden file on purpose regenerates it with
``PYTHONPATH=src python tests/golden.py --write`` and says why.
"""

import pytest

import golden


@pytest.mark.parametrize("name", list(golden.cases()))
def test_cli_output_matches_golden(name, tmp_path):
    produced = golden.run_case(name, tmp_path)
    pinned = sorted(p.name for p in golden.GOLDEN.glob(f"{name}.*"))
    assert sorted(produced) == pinned
    for fname, content in produced.items():
        assert content.decode() == (golden.GOLDEN / fname).read_bytes().decode(), fname


def test_a_changed_file_reports_its_largest_numeric_change():
    pinned = b'{"D01": 0.25, "shares": [1e-3, -2.5], "sha256": "3270e7d2", "DMU_12": 7}\n'
    produced = b'{"D01": 0.5, "shares": [1.5e-3, -2.5], "sha256": "3270e9d2", "DMU_12": 7}\n'
    # 0.25 -> 0.5 is the largest; the digits inside D01, DMU_12 and the
    # digest are no numbers
    assert golden.largest_change(pinned, produced) == 0.25
    assert golden.largest_change(pinned, pinned) == 0.0
    assert golden.largest_change(b"exit: 3\n", b"exit: 3\nline 2: 4\n") is None
