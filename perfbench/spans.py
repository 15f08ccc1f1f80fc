"""In-memory span tracer that wraps terna's cross-module names from outside.

``from .search import represent`` binds a second reference in the importing
module, so each name is replaced in the namespace that calls it (see
``WRAPPED``).  A span is (name, start, end, parent); spans stay in memory
and are written out once, after the run.  Self time is a span's duration
minus the time its direct children cover (calls are sequential, so the
children never overlap).
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

# module -> {attribute: span name}
WRAPPED: dict[str, dict[str, str]] = {
    "terna.search": {
        "value_mask": "search.value_mask",
        "attainable": "search.attainable",
        "reduce": "core.reduce",
    },
    "terna.witnesses": {
        "represent": "search.represent",
        "represent_diag": "search.represent_diag",
        "represent_constrained": "search.represent_constrained",
        "rep_5x2_5y2_z2_odd": "lemmas.rep_5x2_5y2_z2_odd",
        "rep_x2_3y2_6z2": "lemmas.rep_x2_3y2_6z2",
        "rep_x2_y2_2z2_coprime3": "lemmas.rep_x2_y2_2z2_coprime3",
        "lift": "core.lift",
        "reduce": "core.reduce",
        "normalize_sign": "core.normalize_sign",
        "evaluate": "core.evaluate",
        "exceptional_set": "search.exceptional_set",
        "attainable": "search.attainable",
    },
    "terna.survey": {
        "represent": "search.represent",
        "exceptional_set": "search.exceptional_set",
    },
    "terna.families": {
        "exceptional_set": "search.exceptional_set",
    },
    "terna.cli": {
        "exceptional_set": "search.exceptional_set",
        "crosscheck": "families.crosscheck",
        "diagonal_bridge": "witnesses.diagonal_bridge",
    },
}

SCAN_SPANS = ("search.represent", "search.represent_diag", "search.represent_constrained")


def _result_counts(name: str, result) -> tuple[str, int] | None:
    # counts recorded at the same boundary as the span
    if name in SCAN_SPANS:
        return "search.scan.hits", result is not None
    if name == "search.exceptional_set":
        return "search.exceptions", len(result.exceptions)
    return None


class Tracer:
    def __init__(self):
        # columns rather than span objects: a survey run records ~10^6 spans
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()
        counted = _result_counts(name, result)
        if counted is not None:
            key, k = counted
            self.counts[key] = self.counts.get(key, 0) + k
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Replace every name in WRAPPED by its traced wrapper; restore on exit."""
        saved = []
        try:
            for modname, attrs in WRAPPED.items():
                mod = importlib.import_module(modname)
                for attr, span in attrs.items():
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(span, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def totals(self, roots: set[int] | None = None, weight: dict[int, float] | None = None) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds], optionally only
        for spans under the given root spans, and with each span's seconds
        multiplied by weight[its root span]."""
        selfs = self.self_times()
        root_of = []
        for i, p in enumerate(self.parent):
            # parents are appended before their children
            root_of.append(i if p < 0 else root_of[p])
        out: dict[str, list[float]] = {}
        for i, name in enumerate(self.names):
            if roots is not None and root_of[i] not in roots:
                continue
            w = weight[root_of[i]] if weight is not None else 1.0
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (self.end[i] - self.start[i]) * w
            row[2] += selfs[i] * w
        return out

    def write(self, path) -> None:
        """All spans as 'index name start end parent' lines, gzip-compressed."""
        t0 = self.start[0] if self.start else 0.0
        lines = (
            f"{i} {n} {s - t0:.9f} {e - t0:.9f} {p}\n"
            for i, (n, s, e, p) in enumerate(zip(self.names, self.start, self.end, self.parent))
        )
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(lines)
