"""Spans around calls into the program's layers, recorded from outside.

A :class:`Tracer` wraps public functions at the names their callers bind
(``conditions.prime_divisors``, ``Tower.is_square``, ...), keeps every
span in memory as ``(name, start, end, parent)`` and turns them into
per-layer metrics when a pass ends.  Nothing inside ``enriq`` changes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

#: Layer prefixes, in report order; a span belongs to the layer its name
#: starts with.
LAYERS = ("towers", "conditions", "arith", "lattice", "f2", "geometry",
          "twotorsion", "residues")


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        #: while False, wrapped functions run without recording
        self.active = True
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recording one span per call; ``on_return(counters, result,
        *args)`` may count facts about the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(tracer.counters, result, *args)
            return result

        return traced

    # -- installing wrappers --------------------------------------------

    def patch(self, name: str, modules, owner, attr: str, on_return=None) -> None:
        """Wrap ``owner.attr`` and rebind every module-level name in
        ``modules`` that refers to the same function object."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, on_return)
        targets = [(owner, attr)]
        for module in modules:
            for key, value in vars(module).items():
                if value is original and (module, key) != (owner, attr):
                    targets.append((module, key))
        for obj, key in targets:
            setattr(obj, key, traced)
            self._undo.append((obj, key, original))

    def patch_dict(self, name: str, table: dict, on_return=None) -> None:
        """Wrap every value of a dispatch table in place."""
        for key, original in list(table.items()):
            table[key] = self.wrap(name, original, on_return)
            self._undo.append((table, key, original))

    def restore(self) -> None:
        for obj, key, original in reversed(self._undo):
            if isinstance(obj, dict):
                obj[key] = original
            else:
                setattr(obj, key, original)
        self._undo.clear()

    # -- reading --------------------------------------------------------

    def dump(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p,
                 "self": st} for (n, s, e, p), st in zip(self.spans, self_times(self.spans))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters)}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its
    children cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = {}
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def inclusive_totals(spans) -> dict[str, float]:
    """Total duration per span name, counting only spans with no ancestor
    of the same name (so recursion through a wrapper is not counted twice)."""
    totals: dict[str, float] = {}
    for name, start, end, parent in spans:
        outer = True
        while parent >= 0:
            if spans[parent][0] == name:
                outer = False
                break
            parent = spans[parent][3]
        if outer:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def layer_self_times(spans) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += own
    return out


def call_counts(spans) -> Counter:
    return Counter(name for name, *_ in spans)
