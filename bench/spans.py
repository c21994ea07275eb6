"""Span recording around calls into the program's modules.

A ``Tracer`` replaces public functions and methods with wrappers that record
one span per call: name, start, end and the enclosing span.  Each name is
patched where its caller looks it up (a module global, or a class
attribute), so the program itself is unchanged.  Spans stay in memory until
``write`` dumps them; ``summary`` turns them into per-name call counts, total
time and self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one [name id, parent index, start, end, nested-under-same-name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        spans, stack, active = self.spans, self._stack, self._active
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [nid, parent, _now(), 0.0, active[nid] > 0]
            stack.append(len(spans))
            spans.append(span)
            active[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _now()
                active[nid] -= 1
                stack.pop()
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute)."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: ``calls``, ``s`` (outermost spans only, so recursion is
        not counted twice) and ``self_s``."""
        child = [0.0] * len(self.spans)
        for nid, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for i, (nid, _parent, start, end, nested) in enumerate(self.spans):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            if not nested:
                entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        """One line per span: name, parent index, start and end (seconds)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,parent,start,end\n")
            for i, (nid, parent, start, end, _) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{parent},{start!r},{end!r}\n")
