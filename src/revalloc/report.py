"""Versioned run reports: provenance, stage outputs, and a discrepancy ledger.

JSON reports carry full float precision and round-trip losslessly.  CSV
reports are flat ``section,key,values...`` tables rounded to the display
precision; parsing one back recovers exactly the printed numbers.  Output
is byte-deterministic for fixed inputs and flags once the timestamp is
suppressed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

# hashlib loads OpenSSL (about 3.5 MB resident) for one small hash per
# input file; CPython's built-in SHA-256 gives the same digest
try:
    from _sha2 import sha256   # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256   # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

TOOL_NAME = "revalloc"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 2
# The results sections in report order, and the CSV rows of each: (scalar
# keys, one "<section>_meta" row each; per-DMU keys, whose entries for one
# DMU, a number or a row of them, fill that DMU's "<section>" row)
CSV_SECTIONS = {
    "theta": ((), ("values",)),
    "matrix": ((), ("values",)),
    "shapley": (("empty_coalition",), ("phi_lower", "phi", "phi_upper")),
    "allocation": (("revenue",), ("lower", "central", "upper")),
}


@dataclass(eq=False)
class Report:
    config: dict   # "command" first
    provenance: dict
    results: dict
    discrepancies: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.config["command"],
            "config": self.config,
            "provenance": self.provenance,
            "results": {s: self.results[s] for s in CSV_SECTIONS if s in self.results},
            "discrepancy_ledger": self.discrepancies,
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def to_csv(self, precision: int = 2) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["section", "key", "values"])
        w.writerow(["meta", "schema_version", SCHEMA_VERSION])
        w.writerow(["meta", "command", self.config["command"]])
        for key in sorted(self.config):
            w.writerow(["config", key, self.config[key]])
        for key in sorted(self.provenance):
            w.writerow(["provenance", key, self.provenance[key]])
        for idx, note in enumerate(self.discrepancies):
            w.writerow(["discrepancy", idx, note])

        for section, (scalars, per_dmu) in CSV_SECTIONS.items():
            if section not in self.results:
                continue
            part = self.results[section]
            for key in scalars:
                w.writerow([f"{section}_meta", key, part[key]])
            for i, name in enumerate(part["names"]):
                row = []
                for key in per_dmu:
                    entry = part[key][i]   # a number, or a matrix row of them
                    row += entry if isinstance(entry, list) else [entry]
                w.writerow([section, name] + [f"{v:.{precision}f}" for v in row])
        return out.getvalue()


def sha256_of(path) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_provenance(input_files: dict, timestamp: bool) -> dict:
    """Hash every provided input file; optionally stamp the wall clock."""
    prov = {"tool": TOOL_NAME, "version": TOOL_VERSION}
    for role in sorted(input_files):
        path = input_files[role]
        if path is not None:
            prov[f"{role}_sha256"] = sha256_of(path)
    if timestamp:
        prov["timestamp"] = datetime.now(timezone.utc).isoformat()
    return prov
