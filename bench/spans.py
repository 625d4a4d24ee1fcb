"""Spans around polarkit's public functions, recorded from outside the package.

A Tracer replaces each traced function, in every loaded polarkit module that
holds a reference to it, with a wrapper that records a span: name, start,
end, parent span and root span (the benchmark operation that caused it),
plus an optional count taken from the call's result.  Spans stay in memory;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.paused = False
        self._tls = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._tls, "stack"):
            self._tls.stack = []
        return self._tls.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        idx = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "root": stack[0] if stack else idx,
            "count": None,
        }
        self.spans.append(record)
        stack.append(idx)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    @contextmanager
    def pause(self):
        """Run a result check without recording the library calls it makes."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, module, attr: str, label=None, count=None) -> None:
        """Trace module.attr; label(args, kwargs) names a span, count(result) sizes it."""
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            with self.span(label(args, kwargs) if label else name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record["count"] = count(result)
                return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".", 1)[0] != "polarkit":
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, fn))

    def close(self) -> None:
        """Put every wrapped function back."""
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the summed duration of its child spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child_time)]

    def by_name(self, root: str | None = None) -> dict[str, dict]:
        """Self times and counts of each span name, optionally under one root operation."""
        out: dict[str, dict] = defaultdict(lambda: {"self_s": [], "counts": []})
        for s, self_s in zip(self.spans, self.self_times()):
            if root is not None and self.spans[s["root"]]["name"] != root:
                continue
            out[s["name"]]["self_s"].append(self_s)
            if s["count"] is not None:
                out[s["name"]]["counts"].append(s["count"])
        return out
