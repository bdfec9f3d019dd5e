"""Spans and counts recorded around the benchmark's calls into predcut.

A span has a name, a start, an end, the span that encloses it and the
instance it belongs to. Spans stay in memory and are written out once,
when the run ends. Span totals are inclusive: a span's time contains the
spans nested inside it. The written file also gives each span's self
time, its duration minus the time its child spans cover.
"""

import json
import time
from contextlib import contextmanager


class Trace:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.instance = None
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {"name": name, "instance": self.instance,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def totals(self):
        """Inclusive seconds per span name."""
        out = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_times(self):
        """Seconds per span name with the child spans' time taken out."""
        out = self.totals()
        for s in self.spans:
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                out[parent] -= s["end"] - s["start"]
        return out

    def write(self, path, **summary):
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        doc = dict(summary, totals=self.totals(), self_times=self.self_times(),
                   counts=self.counts, spans=spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
