"""The README's library section runs as written, from the repo root, and
names every public name."""

import re
from pathlib import Path

import revalloc

ROOT = Path(__file__).resolve().parent.parent


def test_library_entry_points_example_runs(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.partition("\n## Library entry points\n")[2]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert abs(namespace["plan"].central.sum() - 2900) <= 1e-9


def test_library_entry_points_name_every_public_name():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.partition("\n## Library entry points\n")[2].partition("\n## ")[0]
    missing = [name for name in revalloc.__all__
               if not re.search(f"`{re.escape(name)}[`(]", section)]
    assert not missing, f"README 'Library entry points' does not name {missing}"
