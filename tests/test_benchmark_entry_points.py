"""The benchmark's per-layer tracer must find every entry point it wraps.

``perfbench/layers.py`` skips an entry point that no longer exists and
leaves its metrics out of the report, so a renamed or deleted function
would silently drop per-layer numbers.  This test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PATH = Path(__file__).parent.parent / "perfbench" / "layers.py"


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
