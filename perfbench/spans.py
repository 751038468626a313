"""In-memory span recorder for the benchmark's traced runs.

A span is one call across a layer boundary: name, start, end, the span
that caused it (``parent``), the request it belongs to (``trace``) and
optional attributes (flip counts, bytes written, ...). Spans are kept in
a list while the run executes and written out as JSON lines when it
ends, so tracing costs one small dict per call and no I/O on the hot
path.

The current span travels in a :class:`contextvars.ContextVar`. asyncio
tasks and ``asyncio.to_thread`` copy the context they start from, so a
runner thread spawned for a service request still records the request's
span as its parent.

:func:`self_times` and :func:`summarize` turn a span list into per-layer
busy time: a span's *self time* is its duration minus the part of its
interval that its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time

_CURRENT = contextvars.ContextVar("perfbench_current_span", default=None)


#: Field order of a recorded span tuple (and keys of its JSON form).
FIELDS = ("id", "parent", "trace", "name", "start", "end", "attrs")


class _Span:
    """Context manager recording one span into its tracer.

    A finished span is stored as a flat tuple (see :data:`FIELDS`) with
    its attributes as a tuple of pairs: atomic-only tuples drop out of
    the garbage collector's scans, which keeps a long traced run from
    paying ever more collector time per span.
    """

    __slots__ = ("tracer", "id", "parent", "trace", "name", "start",
                 "attrs", "token")

    def __init__(self, tracer, name, trace, attrs):
        parent = _CURRENT.get()
        self.tracer = tracer
        self.id = next(tracer._ids)
        self.parent = parent[0] if parent is not None else None
        self.trace = (trace if trace is not None
                      else parent[1] if parent is not None else None)
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self.token = _CURRENT.set((self.id, self.trace))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        _CURRENT.reset(self.token)
        attrs = (tuple(self.attrs.items()) if self.attrs is not None
                 else None)
        self.tracer.spans.append((self.id, self.parent, self.trace,
                                  self.name, self.start, end, attrs))
        return False


class Tracer:
    """Collects spans of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)

    def span(self, name, trace=None, **attrs):
        """``with tracer.span("layer.op") as sp: ...``; ``sp.attrs``
        may be set to a dict before the block ends."""
        return _Span(self, name, trace, attrs or None)

    def wrap(self, fn, name, attrs=None):
        """``fn`` wrapped in a span named ``name``.

        ``attrs(result)`` (optional) returns a dict of attributes
        computed from the call's return value. Coroutine functions get
        a coroutine wrapper, so the span covers the awaited work.
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                with self.span(name) as sp:
                    result = await fn(*args, **kwargs)
                    if attrs is not None:
                        sp.attrs = attrs(result)
                    return result
            return async_wrapper

        # The hot path of a traced run: the span logic of _Span inlined,
        # without allocating a context-manager object per call.
        ids, append, clock = self._ids, self.spans.append, time.perf_counter
        current = _CURRENT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            trace = parent[1] if parent is not None else None
            token = current.set((sid, trace))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
            extra = (tuple(attrs(result).items()) if attrs is not None
                     else None)
            append((sid, parent[0] if parent is not None else None,
                    trace, name, start, end, extra))
            return result
        return wrapper

    def records(self):
        """The recorded spans as dicts with the keys of :data:`FIELDS`."""
        return [as_record(span) for span in self.spans]

    def write_jsonl(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def as_record(span):
    """Dict form of one span tuple (attributes as a dict)."""
    record = dict(zip(FIELDS, span))
    record["attrs"] = dict(record["attrs"]) if record["attrs"] else None
    return record


def read_jsonl(path):
    """Spans written by :meth:`Tracer.write_jsonl`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def covered_length(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """``{span id: self seconds}``: duration minus child coverage.

    Children may overlap each other (a request awaiting a runner thread
    while another child runs); the covered part is the union of their
    intervals, clipped to the parent's.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered_length(children.get(s["id"], ()), s["start"],
                             s["end"])
            for s in spans}


def outermost(spans, name):
    """Spans named ``name`` with no ancestor of the same name.

    Summing durations over these counts a re-entrant layer (a factory
    that calls itself for a sub-part) once.
    """
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


def summarize(spans):
    """``{name: {"count", "total_s", "self_s"}}`` over a span list.

    ``total_s`` sums the outermost occurrences only; ``self_s`` sums the
    self time of every occurrence, so the ``self_s`` column partitions
    the traced wall time.
    """
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                           "self_s": 0.0})
        row["count"] += 1
        row["self_s"] += own[s["id"]]
    for name, row in table.items():
        row["total_s"] = sum(s["end"] - s["start"]
                             for s in outermost(spans, name))
    return table


def attr_sum(spans, name, key):
    """Sum of attribute ``key`` over the spans named ``name``."""
    return sum((s.get("attrs") or {}).get(key, 0) for s in spans
               if s["name"] == name)
