"""Per-layer spans and counts around revalloc's public entry points.

``Tracer.installed()`` replaces each entry point with a wrapper in every
``revalloc`` module that holds it, so calls between the package's modules
(``from .dataset import load_dataset`` in the CLI, ``simplex.solve`` in
``dea``) are caught as well.  A span records name, start, end, parent and
the operation it belongs to; spans stay in memory until ``dump``.  Counts
are computed from the wrapped calls' arguments and results, so they repeat
exactly for the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _lp_cells(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return {"simplex.lp_cells": len(lp.constraints) * lp.objective.size}


def _table_mb(args, kwargs, result):
    arrays = [v for v in vars(result).values() if hasattr(v, "nbytes")]
    return {"game.table_mb": sum(a.nbytes for a in arrays) / 2**20}


def _terms(args, kwargs, result):
    n = len(result.phi)
    return {"game.terms": n * ((1 << (n - 1)) - 1)}


# (module, attribute, span name, count name or None, extra counter or None)
ENTRY_POINTS = [
    ("revalloc.dataset", "load_dataset", "dataset.load", None, None),
    ("revalloc.dataset", "load_matrix", "dataset.load", None, None),
    ("revalloc.dataset", "load_groups", "dataset.load", None, None),
    ("revalloc.dea", "cluster_groups", "dea.cluster", None, None),
    ("revalloc.dea", "ccr_all", "dea.ccr_all", None, None),
    ("revalloc.dea", "ccr_efficiency", "dea.ccr", "dea.ccr_calls", None),
    ("revalloc.dea", "secondary_goal_weights", "dea.tiebreak", "dea.tiebreak_calls", None),
    ("revalloc.dea", "cross_efficiency_matrix", "dea.crosseff", None, None),
    ("revalloc.simplex", "solve", "simplex.solve", "simplex.solves", _lp_cells),
    ("revalloc.game", "build_coalition_table", "game.table", None, _table_mb),
    ("revalloc.game", "shapley_triples", "game.shares", None, _terms),
    ("revalloc.allocation", "allocate", "allocation.allocate", None, None),
    ("revalloc.report", "Report.to_json", "report.render", None, None),
    ("revalloc.report", "Report.to_csv", "report.render", None, None),
]

# metric -> (span name, how it is taken from the spans of one operation):
# "time" sums the spans, "self" sums each span minus its child spans,
# "count" reads the counter the span's wrapper keeps
LAYER_METRICS = {
    "dataset.load_s": ("dataset.load", "time"),
    "dea.cluster_s": ("dea.cluster", "time"),
    "dea.ccr_s": ("dea.ccr", "time"),
    "dea.ccr_calls": ("dea.ccr", "count"),
    "dea.tiebreak_s": ("dea.tiebreak", "time"),
    "dea.tiebreak_calls": ("dea.tiebreak", "count"),
    "dea.crosseff_s": ("dea.crosseff", "time"),
    "simplex.solve_s": ("simplex.solve", "time"),
    "simplex.solves": ("simplex.solve", "count"),
    "simplex.lp_cells": ("simplex.solve", "count"),
    "game.table_s": ("game.table", "time"),
    "game.shares_s": ("game.shares", "self"),
    "game.table_mb": ("game.table", "count"),
    "game.terms": ("game.shares", "count"),
    "allocation.allocate_s": ("allocation.allocate", "time"),
    "report.render_s": ("report.render", "time"),
}
# the library calls that solve_s times, as they appear directly under an operation
SOLVE_SPANS = {"dea.cluster", "dea.ccr_all", "dea.crosseff", "game.shares", "allocation.allocate"}


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index, operation]
        self.counts = []           # per operation: {count name: value}
        self._stack = []
        self._op = -1
        self.missing = []          # entry points that no longer exist
        self.installed_spans = set()

    def _wrap(self, fn, name, count, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            counts = self.counts[self._op]
            if count:
                counts[count] += 1
            if extra:
                for key, value in extra(args, kwargs, result).items():
                    counts[key] += value
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block, then restore."""
        patches = []
        self.missing = []
        self.installed_spans = set()
        try:
            for module_name, attr, name, count, extra in ENTRY_POINTS:
                module = importlib.import_module(module_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, leaf, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(original, name, count, extra)
                self.installed_spans.add(name)
                holders = [owner] if owner_name else [
                    mod for key, mod in list(sys.modules.items())
                    if key.split(".")[0] == "revalloc" and mod is not None]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    @contextlib.contextmanager
    def operation(self, name: str):
        """Group the spans of one operation under a root span."""
        self._op = len(self.counts)
        self.counts.append(defaultdict(int))
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, -1, self._op])
        self._stack = [idx]
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][1:3] = start, time.perf_counter()
            self._stack = []

    def layer_metrics(self, op: int) -> dict:
        """Per-layer metrics of one operation, plus its traced solve time as ``solve``.

        A metric whose entry points are all gone is left out.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == op]
        root = spans[0][0]
        child_time = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            child_time[parent] += end - start
        out = {}
        for metric, (name, kind) in LAYER_METRICS.items():
            if name not in self.installed_spans:
                continue
            if kind == "count":
                out[metric] = self.counts[op].get(metric, 0)
            else:
                out[metric] = sum(end - start - (child_time[i] if kind == "self" else 0.0)
                                  for i, (n, start, end, _, _) in spans if n == name)
        out["solve"] = sum(end - start for _, (n, start, end, parent, _) in spans
                           if parent == root and n in SOLVE_SPANS)
        return out

    def dump(self, path) -> None:
        names = ["name", "start", "end", "parent", "operation"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(names, s)) for s in self.spans],
                       "counts": self.counts}, fh)
