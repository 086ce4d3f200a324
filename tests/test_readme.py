"""The README's library example runs as written, from the repo root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_entry_points_example_runs(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.partition("\n## Library entry points\n")[2]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert abs(namespace["plan"].central.sum() - 2900) <= 1e-9
