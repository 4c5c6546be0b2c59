"""In-memory spans around calls into the program's modules.

A span records its name, start, end, parent span and the run id.  Calls made
hundreds or thousands of times inside one step (``webfilter.ppl1``,
``retrieve.generate_query``, ...) are kept as one aggregate span per parent
and name, with a call count and the summed busy time, so that they do not
allocate a record each.  Spans are written out once, when the run ends.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id, enabled=True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._aggregates = {}

    def _open(self, name, start):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "name": name, "start": start, "end": start,
               "calls": 0, "busy": 0.0, "items": 0}
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name):
        """A span around the body; yields the record (or None when disabled)."""
        if not self.enabled:
            yield None
            return
        rec = self._open(name, time.perf_counter())
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
            rec["calls"] = 1
            rec["busy"] = rec["end"] - rec["start"]

    def _aggregate(self, name, start, end):
        key = (self._stack[-1] if self._stack else None, name)
        rec = self._aggregates.get(key)
        if rec is None:
            rec = self._aggregates[key] = self._open(name, start)
        rec["end"] = end
        rec["calls"] += 1
        rec["busy"] += end - start
        return rec

    def _wrap(self, fn, name, aggregate, items):
        def traced(*args, **kwargs):
            if aggregate:
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                rec = self._aggregate(name, start, time.perf_counter())
            else:
                with self.span(name) as rec:
                    result = fn(*args, **kwargs)
            if items is not None:
                rec["items"] += items(args, result)
            return result
        return traced

    @contextmanager
    def patched(self, targets):
        """Route calls through span-recording wrappers while the body runs.

        targets: (module, attribute, aggregate, items) tuples; ``items`` maps
        (args, result) to a work count stored on the span, or is None.  The
        span is named ``<module>.<attribute>``.  Nothing is patched when
        tracing is disabled; the originals are restored on exit."""
        saved = []
        try:
            if self.enabled:
                for module, attr, aggregate, items in targets:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    name = "%s.%s" % (module.__name__.rsplit(".", 1)[-1], attr)
                    setattr(module, attr, self._wrap(fn, name, aggregate, items))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # --- derived views -------------------------------------------------------

    def self_times(self):
        """Span id -> busy time minus the busy time of its direct children."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["busy"]
        return {s["id"]: s["busy"] - child.get(s["id"], 0.0) for s in self.spans}

    def within(self, ancestor_name, *names):
        """Summed busy time, calls and items of the spans with one of the
        names that have a span named ``ancestor_name`` among their ancestors."""
        by_id = {s["id"]: s for s in self.spans}
        busy = calls = items = 0
        for s in self.spans:
            if s["name"] not in names:
                continue
            parent = s["parent"]
            while parent is not None and by_id[parent]["name"] != ancestor_name:
                parent = by_id[parent]["parent"]
            if parent is not None:
                busy += s["busy"]
                calls += s["calls"]
                items += s["items"]
        return busy, calls, items

    def write(self, path):
        selfs = self.self_times()
        rows = [dict(s, self=selfs[s["id"]]) for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run": self.run_id, "spans": rows}, f, indent=1)
