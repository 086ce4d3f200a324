"""The benchmark's per-layer tracer must find every entry point it wraps.

``perfbench/layers.py`` skips an entry point that no longer exists and
leaves its metrics out of the report, so a renamed or deleted function
would silently drop per-layer numbers.  These tests fail instead: one
resolves every entry point, the other runs one traced round of the
benchmark on a copy of the checkout and reads its result line.
"""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
LAYERS_PATH = ROOT / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_entry_point_resolves():
    entry_points = load_layers().ENTRY_POINTS
    assert entry_points
    missing = []
    for module_name, attr, *_ in entry_points:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_one_traced_round_reports_every_layer_metric(tmp_path):
    # a copy, so the run's scratch directory and bytecode stay out of the checkout
    skip = shutil.ignore_patterns("__pycache__", "golden")
    for part in ("perfbench", "src", "tests/data"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bank", "--seconds", "0",
         "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
