"""In-memory span recorder for the traced benchmark run.

A span is one timed call: its name, start and end (``time.perf_counter``
seconds), the index of the span that was open when it began (its parent,
-1 at the root) and the request id of the operation it belongs to.
Spans stay in memory until ``dump`` writes them as JSON lines when the
run ends.  The untraced run uses ``NULL_TRACER``, whose spans cost one
attribute lookup and record nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, request_id]
        self.request_id = 0
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0,
               self._open[-1] if self._open else -1, self.request_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def patched(self, module, names, prefix):
        """Route calls to module.<name> through a span named prefix.<name>.

        Calls made inside the package resolve module globals at call time,
        so nested public calls (preprocess_raw -> merge_bands) get child
        spans too.  The originals are restored on exit.
        """
        originals = {n: getattr(module, n) for n in names}
        for n, fn in originals.items():
            setattr(module, n, self._wrap(fn, f"{prefix}.{n}"))
        try:
            yield
        finally:
            for n, fn in originals.items():
                setattr(module, n, fn)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def dump(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "request": rid}) + "\n")


class _NullTracer:
    request_id = 0
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


NULL_TRACER = _NullTracer()


def self_times(spans):
    """Per span name, the list of (total, self) seconds, one pair per call.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out.setdefault(name, []).append((end - start, end - start - child[i]))
    return out
