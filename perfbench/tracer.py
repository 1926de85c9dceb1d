"""In-memory spans around the public calls the benchmark makes.

A span records its name, start, end, parent span and op id.  Spans stay
in memory until the run ends; :meth:`Tracer.dump` then writes them out.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, op id].
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(record)
        self._open.append(index)
        record[1] = perf_counter()
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def per_op(self) -> dict[int, dict[str, list[float]]]:
        """For every op id: span name -> [total duration, total self time]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops: dict[int, dict[str, list[float]]] = {}
        for index, (name, start, end, _, op) in enumerate(self.spans):
            entry = ops.setdefault(op, {}).setdefault(name, [0.0, 0.0])
            entry[0] += end - start
            entry[1] += end - start - child_time[index]
        return ops

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header,
                       "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
