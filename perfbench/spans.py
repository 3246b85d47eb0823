"""In-memory spans around calls into graphx_ray's layers.

A span is (id, name, start, end, parent, run id). Spans open either around
a call the benchmark makes itself (``Tracer.span``) or around a program
function the benchmark patches for the length of a traced job
(``Tracer.patch``), which is how the layers Graph calls internally
(CSR staging, actor-pool load, checkpoint, resume, collection) get their
own spans. Self time is a span's duration minus the time its children
cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent, "run": self.run_id,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so each call opens span ``name``."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # ------------------------------------------------------------ analysis

    def self_times(self, root: dict) -> dict[str, float]:
        """Summed self time per span name over ``root``'s subtree."""
        kids = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        out: dict[str, float] = defaultdict(float)
        todo = [root]
        while todo:
            s = todo.pop()
            covered = 0.0
            for c in sorted(kids[s["id"]], key=lambda c: c["start"]):
                covered += c["end"] - c["start"]
                todo.append(c)
            out[s["name"]] += (s["end"] - s["start"]) - covered
        return dict(out)

    def count(self, name: str) -> int:
        return sum(s["name"] == name for s in self.spans)
