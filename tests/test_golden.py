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
