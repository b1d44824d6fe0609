"""In-memory spans around the calls from one treerec layer into another.

The tracer replaces module attributes (``treerec.solver.tre_datum`` and the
like) with wrappers that record a span per call, so the library source stays
untouched.  A span is (name, start, end, parent); spans live in flat arrays
until ``save`` writes them out at the end of the run.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``module.attr``."""
        original = getattr(module, attr)
        name_id = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                close(idx)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds, over the spans
        recorded from index ``first`` on.  Self time is a span's duration
        minus the durations of its direct children."""
        # Slicing copies, so no numpy view pins the arrays against growth.
        dur = (np.frombuffer(self.end[first:], dtype=np.float64)
               - np.frombuffer(self.start[first:], dtype=np.float64))
        names = np.frombuffer(self.name[first:], dtype=np.int32)
        parents = np.frombuffer(self.parent[first:], dtype=np.int32) - first
        child = np.zeros_like(dur)
        inside = parents >= 0
        np.add.at(child, parents[inside], dur[inside])
        out = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = {"calls": int(mask.sum()), "s": float(dur[mask].sum()),
                         "self_s": float((dur[mask] - child[mask]).sum())}
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))
