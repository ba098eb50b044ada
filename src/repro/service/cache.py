"""LRU cache of expensive solve setup artifacts.

Chebyshev/CPPCG spend their warm-up budget estimating eigenvalue bounds
and the cg family refactorises its block-Jacobi preconditioner on every
solve — both are pure functions of (mesh, coefficients, solver options),
so a service replaying similar decks can reuse them.  The cache stores
:class:`~repro.solvers.driver.SolveSetup` values under caller-built
keys (the engine's start with :func:`operator_digest`) and guards every
hit with a content fingerprint taken at insert time: a mismatch
(bit-rot, an aliasing caller that mutated the cached arrays) counts as
*corruption*, invalidates the entry and reports a miss — a corrupt
setup silently injected into a solve would poison every request behind
it.

Metrics (hits / misses / evictions / corruptions) are plain counters
mirrored into an optional
:class:`~repro.observe.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from collections import OrderedDict

from repro.utils.validation import check_positive


def operator_digest(grid, kxg, kyg) -> str:
    """SHA-256 of an operator's grid shape, face coefficients and dtype.

    The operator part of a setup-cache key: two decks share eigenvalue
    bounds or block-Jacobi factors only when their operators are
    bit-identical.
    """
    h = hashlib.sha256(repr((grid.shape, kxg.dtype.str, kyg.dtype.str))
                       .encode())
    h.update(kxg.tobytes())
    h.update(kyg.tobytes())
    return h.hexdigest()


def fingerprint(obj) -> int:
    """CRC32 over the numeric content of a setup artifact.

    Walks floats/ints, tuples/lists, numpy arrays and plain-attribute
    objects (one level of ``__dict__``), so it covers
    :class:`~repro.solvers.eigen.EigenBounds` and the factorised
    block-Jacobi preconditioners without either class knowing about the
    cache.
    """
    crc = 0
    for chunk in _walk(obj, depth=0):
        crc = zlib.crc32(chunk, crc)
    return crc


def _walk(obj, depth: int):
    if depth > 4 or obj is None:
        return
    if isinstance(obj, bool):
        yield b"\x01" if obj else b"\x00"
    elif isinstance(obj, int):
        yield struct.pack("<q", obj)
    elif isinstance(obj, float):
        yield struct.pack("<d", obj)
    elif isinstance(obj, str):
        yield obj.encode()
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _walk(item, depth + 1)
    elif hasattr(obj, "tobytes"):        # numpy arrays
        yield obj.tobytes()
    elif hasattr(obj, "__dict__"):
        for name in sorted(vars(obj)):
            yield name.encode()
            yield from _walk(vars(obj)[name], depth + 1)
    elif hasattr(obj, "__slots__"):
        for name in sorted(obj.__slots__):
            yield name.encode()
            yield from _walk(getattr(obj, name, None), depth + 1)


class SetupCache:
    """Bounded LRU of ``key -> SolveSetup`` with corruption-safe hits."""

    def __init__(self, max_entries: int = 32, metrics=None):
        check_positive("max_entries", max_entries)
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0
        self._metrics = metrics

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"service.cache.{name}").inc()

    def get(self, key):
        """The cached setup for ``key``, or ``None`` (miss/corrupt)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._count("miss")
            return None
        setup, crc = entry
        if fingerprint(setup) != crc:
            # Corrupt entry: invalidate rather than serve — a poisoned
            # preconditioner/bounds would fail every downstream solve.
            del self._entries[key]
            self.corruptions += 1
            self.misses += 1
            self._count("corruption")
            self._count("miss")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._count("hit")
        return setup

    def put(self, key, setup) -> None:
        """Insert/refresh ``key``, evicting the LRU entry when full."""
        self._entries[key] = (setup, fingerprint(setup))
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("eviction")

    def invalidate(self, key) -> bool:
        """Drop ``key`` if present; returns whether it existed."""
        return self._entries.pop(key, None) is not None

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "corruptions": self.corruptions,
                "entries": len(self._entries)}
