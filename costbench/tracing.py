"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent): parent is the index of the span that
was open when this one started, or -1. Spans are kept in a list and written
out once, when the run ends. The untraced runs use NullTracer, whose call()
is a plain call, so the two kinds of run do the same work.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, perf_counter(), None, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children.

        Children of one span never overlap (the benchmark is single
        threaded), so subtracting their durations removes the covered part.
        """
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            totals[s[0]] = totals.get(s[0], 0.0) + t
        return totals

    def write(self, path: str) -> None:
        """Spans as JSON Lines, then one summary line per span name."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
            for name in sorted(selfs):
                d = self.durations(name)
                fh.write(
                    json.dumps(
                        {
                            "summary": name,
                            "calls": len(d),
                            "median_s": statistics.median(d),
                            "total_s": sum(d),
                            "self_s": selfs[name],
                        }
                    )
                    + "\n"
                )
