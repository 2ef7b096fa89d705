"""In-memory span recorder for the traced benchmark run.

The recorder replaces module-level names of the halc package (functions and
a few class attributes) with wrappers that record one span per call: name,
start, end, parent span and request id. The originals are put back by
`uninstall`, so the untraced passes run the program unmodified. Spans live in
flat arrays until the run ends; self time is derived afterwards.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

NO_PARENT = -1


class Tracer:
    """Records spans around patched callables; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.request_id = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.request.append(self.request_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self._intern(name))
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """`fn` with a span per call; `observe(idx, args, result)` may count
        properties of the call after it returns."""
        nid = self._intern(name)
        stack, start, end = self._stack, self.start, self.end
        opener = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opener(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(idx, args, result)
            return result

        return traced

    def ancestor(self, idx: int, name: str) -> int:
        """Index of the nearest enclosing span called `name`, or NO_PARENT."""
        nid = self._name_ids.get(name)
        idx = self.parent[idx]
        while idx != NO_PARENT and self.name_id[idx] != nid:
            idx = self.parent[idx]
        return idx

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def summary(self, selfs: Sequence[float]) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds), given `self_times()`."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for nid, s in zip(self.name_id, selfs):
            calls[nid] += 1
            total[nid] += s
        return {name: (calls[i], total[i]) for i, name in enumerate(self.names)}


def covered(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may nest or overlap one another; overlapping time is subtracted
    once.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p != NO_PARENT:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        out[p] -= covered(starts[p], ends[p], ((starts[k], ends[k]) for k in kids))
    return out
