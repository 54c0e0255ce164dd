"""In-memory spans around calls into twinsieve's modules, aggregated as they close.

A span has a name, a layer and a parent (the span open when it started).  On
close it adds to per-(parent, name) totals: calls, duration, and self time
(duration minus the time its child spans cover).  A span whose parent belongs
to another layer is a layer root; its layer self time (duration minus the time
covered by descendants in other layers) is kept under its name.  Individual
spans are not stored: `classify` alone opens hundreds of thousands of them.

Pool workers are forked from a traced process and inherit its wrappers.  The
outermost span in a worker (a "chunk") writes that worker's aggregates and its
[start, end] interval to a file when it closes; the parent's pool span merges
those files when it closes.  Worker busy time counts as covered by child spans,
and the rest of the pool span is reported as pool overhead.  Times from
different processes are comparable because perf_counter reads CLOCK_MONOTONIC.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path


class Aggregate:
    """Span totals and counters, summed over any number of snapshots."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list[float]] = {}  # (parent, name) -> [calls, total_s, self_s]
        self.layer_self: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.pool_overhead: dict[str, float] = {}

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(a[0] for (p, n), a in self.spans.items() if n == name and parent in (None, p))

    def total(self, name: str) -> float:
        return sum(a[1] for (_, n), a in self.spans.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(a[2] for (_, n), a in self.spans.items() if n == name)

    def snapshot(self) -> dict:
        return {
            "spans": [[p, n, *agg] for (p, n), agg in self.spans.items()],
            "layer_self": self.layer_self,
            "counts": self.counts,
            "maxima": self.maxima,
            "pool_overhead": self.pool_overhead,
        }

    def merge(self, record: dict) -> None:
        """Add one snapshot."""
        for parent, name, calls, total, self_s in record["spans"]:
            agg = self.spans.setdefault((parent, name), [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for key in ("layer_self", "counts", "pool_overhead"):
            mine = getattr(self, key)
            for k, v in record[key].items():
                mine[k] = mine.get(k, 0) + v
        for k, v in record["maxima"].items():
            self.maxima[k] = max(self.maxima.get(k, v), v)


class Tracer(Aggregate):
    """Spans of one process, opened and closed by wrapped functions."""

    def __init__(self, worker_dir: str):
        self.worker_dir = Path(worker_dir)
        self.pid = os.getpid()
        self.in_worker = False
        self._seq = 0
        self.reset()

    def reset(self) -> None:
        Aggregate.__init__(self)
        self.stack: list[list] = []  # [name, layer, start, child_s, foreign_s]

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _enter(self, name: str, layer: str) -> list:
        if os.getpid() != self.pid:  # first call in a forked pool worker
            self.pid, self.in_worker = os.getpid(), True
            self.reset()
        frame = [name, layer, 0.0, 0.0, 0.0]
        self.stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, *, pool: bool) -> float:
        end = time.perf_counter()
        name, layer, start, child, foreign = frame
        duration = end - start
        if pool:
            covered = self._merge_workers(start, end)
            if covered is not None:
                child += covered
                foreign += covered
                self.pool_overhead[name] = self.pool_overhead.get(name, 0.0) + duration - covered
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        agg = self.spans.setdefault((parent[0] if parent else "", name), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if parent is not None:
            parent[3] += duration
        if parent is None or parent[1] != layer:
            self.layer_self[name] = self.layer_self.get(name, 0.0) + duration - foreign
            if parent is not None:
                parent[4] += duration
        else:
            parent[4] += foreign
        return duration

    def wrap(self, fn, name: str, layer: str, *, hook=None, pool=False, chunk=False):
        """fn inside a span; hook(tracer, args, kwargs, result, seconds) sees each result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._exit(frame, pool=pool)
            if hook is not None:
                hook(self, args, kwargs, result, seconds)
            if chunk and self.in_worker and not self.stack:
                self._dump_worker(frame[2], frame[2] + seconds)
            return result

        return traced

    def _dump_worker(self, start: float, end: float) -> None:
        self._seq += 1
        path = self.worker_dir / f"{self.pid}-{self._seq}.json"
        record = dict(self.snapshot(), interval=[start, end])
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        os.replace(tmp, path)
        self.reset()

    def _merge_workers(self, start: float, end: float) -> float | None:
        """Fold in worker records; return the part of [start, end] they cover."""
        intervals = []
        for path in sorted(self.worker_dir.glob("*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            self.merge(record)
            lo, hi = record["interval"]
            intervals.append((max(lo, start), min(hi, end)))
        if not intervals:
            return None
        covered, reach = 0.0, start
        for lo, hi in sorted(intervals):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered
