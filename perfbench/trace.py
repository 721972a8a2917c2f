"""Spans recorded by the benchmark around its calls into each layer.

A span holds a name, start, end, parent span and the id of the job or
connection it belongs to. Spans stay in memory and are written out once,
when the run ends. With tracing off every call is a no-op.
"""

import json
import os
import time

import stats


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.spans = {}

    def now(self):
        return time.perf_counter() - self.t0

    def begin(self, name, parent=None, trace_id=None):
        """Opens a span now; close it with `end`."""
        return self.add(name, self.now(), None, parent, trace_id)

    def end(self, sid):
        if sid is not None:
            self.spans[sid]["end"] = self.now()

    def add(self, name, start, end, parent=None, trace_id=None):
        """Records a finished span; returns its id (None when off)."""
        if not self.enabled:
            return None
        sid = len(self.spans)
        self.spans[sid] = {"name": name, "start": start, "end": end,
                           "parent": parent, "trace_id": trace_id}
        return sid

    def adopt(self, spans, offset, parent, trace_id):
        """Adopts a helper's spans (nanoseconds since the helper started,
        parents as list indices), shifting them to start at `offset`."""
        if not self.enabled:
            return
        ids = []
        for s in spans:
            p = ids[int(s["parent"])] if s["parent"] is not None else parent
            ids.append(self.add(s["name"], offset + s["start"] / 1e9,
                                offset + s["end"] / 1e9, p, trace_id))

    def self_time_by_name(self):
        """Total self time per span name, in seconds."""
        own = stats.self_times(self.spans)
        out = {}
        for sid, s in self.spans.items():
            out[s["name"]] = out.get(s["name"], 0.0) + own[sid]
        return out

    def write(self, path):
        if not self.enabled:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": list(self.spans.values()),
                       "self_time_s": self.self_time_by_name()}, f)
