"""Outside-in span tracer for the benchmark's traced runs.

Spans are recorded around calls into each layer's public functions by
temporarily replacing those functions (module attributes and class
methods) with timing wrappers; nothing in the program is edited.  Each
thread appends finished spans to its own flat ``array('d')`` buffer, so
the hot path takes no lock; the buffers are read once, when a traced
unit ends.

A span is ``(id, parent id, name, start, end, amount)``.  The parent is
the innermost open span of the same thread, except for the rank bodies
of an SPMD world, which are parented to the ``comm.launch`` span that
spawned their threads.  Explicit keys (the engine's request id, the
physics step index) are kept per span id; every other span carries the
key of its nearest keyed ancestor, so one id links a request's engine,
rank, solver, kernel and comm spans.

Self time is a span's duration minus the union of its children's
intervals.  Summing wrapped-call durations instead would double-count,
because backend calls nest (``apply_dot`` calls ``stencil_apply``).
"""

from __future__ import annotations

import itertools
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Fields per span in the flat buffers.
_FIELDS = 6
_ROOT = -1.0


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list = []
        self.buf: array | None = None


class SpanTracer:
    """Records spans from any thread into per-thread buffers."""

    def __init__(self):
        self._ids = itertools.count()
        self._names: dict[str, int] = {}
        self._names_lock = threading.Lock()
        self._state = _ThreadState()
        self._buffers: list[array] = []
        self._buffers_lock = threading.Lock()
        #: span id -> explicit key (request id / step index)
        self.keys: dict[int, object] = {}

    def _name_id(self, name: str) -> int:
        nid = self._names.get(name)
        if nid is None:
            with self._names_lock:
                nid = self._names.setdefault(name, len(self._names))
        return nid

    def _buffer(self) -> array:
        buf = self._state.buf = array("d")
        with self._buffers_lock:
            self._buffers.append(buf)
        return buf

    def open(self, name: str, key=None, parent: int | None = None) -> int:
        """Start a span; returns its id.  ``parent`` overrides the stack."""
        state = self._state
        sid = next(self._ids)
        if parent is None:
            parent = state.stack[-1][0] if state.stack else _ROOT
        if key is not None:
            self.keys[sid] = key
        state.stack.append((sid, parent, self._name_id(name), perf_counter()))
        return sid

    def close(self, amount: float = 0.0) -> None:
        """End the innermost open span of this thread."""
        t1 = perf_counter()
        state = self._state
        sid, parent, nid, t0 = state.stack.pop()
        buf = state.buf if state.buf is not None else self._buffer()
        buf.extend((sid, parent, nid, t0, t1, amount))

    @contextmanager
    def span(self, name: str, key=None, parent: int | None = None):
        sid = self.open(name, key, parent)
        try:
            yield sid
        finally:
            self.close()

    def table(self) -> "SpanTable":
        """Every span finished so far, from all threads."""
        with self._buffers_lock:
            flat = np.concatenate([np.array(b, dtype=np.float64)
                                   for b in self._buffers] or [np.zeros(0)])
        names = {nid: name for name, nid in self._names.items()}
        return SpanTable(flat.reshape(-1, _FIELDS), names, dict(self.keys))


class EngineTracerAdapter:
    """The ``tracer=`` object :class:`ServiceEngine` expects.

    The engine opens ``span("request", request_id)`` around each
    dispatched execution; this records it as a ``service.request`` span
    keyed by the request id.
    """

    def __init__(self, tracer: SpanTracer):
        self._tracer = tracer

    def span(self, name: str, key=None):
        return self._tracer.span(f"service.{name}", key)


class SpanTable:
    """Finished spans of one traced unit, with self time per span."""

    def __init__(self, rows: np.ndarray, names: dict[int, str],
                 keys: dict[int, object]):
        order = np.argsort(rows[:, 0], kind="stable")
        rows = rows[order]
        self.sid = rows[:, 0].astype(np.int64)
        parent = rows[:, 1].astype(np.int64)
        self.name_id = rows[:, 2].astype(np.int64)
        self.t0 = rows[:, 3]
        self.t1 = rows[:, 4]
        self.amount = rows[:, 5]
        self.names = names
        self.keys = keys
        self.duration = self.t1 - self.t0
        # Row of each span's parent (-1 for roots).  A parent closes after
        # its children, so it is always in the table.
        self.parent = np.where(parent < 0, -1,
                               np.searchsorted(self.sid, parent))
        self.self_time = self.duration - self._child_cover()

    def _child_cover(self) -> np.ndarray:
        n = len(self.sid)
        has_parent = self.parent >= 0
        cover = np.bincount(self.parent[has_parent],
                            weights=self.duration[has_parent], minlength=n)
        # Children on other threads (rank bodies under a launch) overlap
        # each other: cover those parents by the union of intervals.
        for p in self.ids_of("comm.launch"):
            kids = np.flatnonzero(self.parent == p)
            cover[p] = _union_length(
                np.clip(self.t0[kids], self.t0[p], self.t1[p]),
                np.clip(self.t1[kids], self.t0[p], self.t1[p]))
        return cover

    def ids_of(self, name: str) -> np.ndarray:
        """Row indices of spans called ``name``."""
        nid = [i for i, n in self.names.items() if n == name]
        return np.flatnonzero(self.name_id == nid[0]) if nid \
            else np.zeros(0, dtype=np.int64)

    def mask(self, prefix: str) -> np.ndarray:
        """Boolean row mask of spans whose name starts with ``prefix``."""
        nids = [i for i, n in self.names.items() if n.startswith(prefix)]
        return np.isin(self.name_id, nids)

    def self_s(self, prefix: str) -> float:
        return float(self.self_time[self.mask(prefix)].sum())

    def duration_s(self, prefix: str) -> float:
        return float(self.duration[self.mask(prefix)].sum())

    def count(self, prefix: str) -> int:
        return int(self.mask(prefix).sum())

    def trace_keys(self) -> list:
        """Per row, the key of the nearest keyed ancestor (or None)."""
        out: list = [None] * len(self.sid)
        # Rows are in id order and a parent opens before its children.
        for i, (sid, p) in enumerate(zip(self.sid.tolist(),
                                         self.parent.tolist())):
            key = self.keys.get(sid)
            out[i] = key if key is not None else (out[p] if p >= 0 else None)
        return out


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# -- patching ------------------------------------------------------------------


def wrap(fn, name: str, tracer: SpanTracer, amount=None, key=None,
         after=None):
    """A timing wrapper around ``fn`` recording span ``name``.

    ``amount(args)`` gives the span's work amount (a kernel's bytes per
    stream), ``key(args)`` its explicit key, and ``after(args, result)``
    sees each return value.
    """
    open_, close = tracer.open, tracer.close

    if amount is None and key is None and after is None:
        def plain(*args, **kwargs):
            open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close()
        return plain

    def wrapper(*args, **kwargs):
        open_(name, key(args) if key is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(amount(args) if amount is not None else 0.0)
        if after is not None:
            after(args, result)
        return result
    return wrapper


@contextmanager
def patched(targets):
    """Apply ``(owner, attribute, replacement)`` patches, then restore."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, owner.__dict__[attr]
                          if isinstance(owner, type) else getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrap_methods(cls, names, prefix: str, tracer: SpanTracer, amounts=None):
    """Patch targets wrapping each method ``cls.<name>`` own to ``cls``."""
    amounts = amounts or {}
    out = []
    for attr in names:
        if attr not in cls.__dict__:
            continue
        out.append((cls, attr, wrap(cls.__dict__[attr], f"{prefix}.{attr}",
                                     tracer, amount=amounts.get(attr))))
    return out

