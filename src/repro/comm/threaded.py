"""Thread-backed SPMD world.

Each rank is an OS thread; rank code is written exactly as it would be with
mpi4py.  Messages travel through per-``(src, dst, tag)`` FIFO mailboxes, and
collectives synchronise on a generation-counter barrier with a shared slot
array (double-barrier discipline: deposit → barrier → read → barrier, so a
fast rank can never clobber slots a slow rank has not read yet).

Determinism: reductions fold contributions in rank order, so every rank sees
a bit-identical result regardless of thread scheduling — this is what makes
decomposed solves reproducible run-to-run.

Failure handling: when any rank raises, the world is *aborted* — blocked
collectives and pending receives raise :class:`CommunicationError` instead
of hanging forever.  :func:`repro.comm.spmd.launch_spmd` relies on this to
propagate the original error.

Abort is deliberately *lazy*: it only breaks operations that can never be
satisfied.  Mailbox deposits and barrier arrival counts are durable, so a
surviving rank keeps consuming messages its dead peer already sent and
keeps passing sync generations its peer already reached — it fails at the
first operation the peer genuinely never served.  That point is a function
of the peer's (deterministic) death position, not of how fast the abort
flag propagated, which is what makes a surviving rank's progress — and
therefore its guard/checkpoint state at death — reproducible run-to-run.
(``threading.Barrier.abort`` cannot provide this: a thread released by a
*successful* generation still raises ``BrokenBarrierError`` when the abort
lands before it drains.)
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.comm.base import (
    Communicator,
    Request,
    isolate,
    reduce_in_rank_order,
)
from repro.utils.errors import CommunicationError

#: Receive timeout; exceeded only by deadlocked exchanges, so fail loudly.
_RECV_TIMEOUT_S = 120.0


class ThreadWorld:
    """Shared state for a world of ``size`` thread ranks.

    ``recv_timeout_s`` is the world-level deadlock guard: the default
    receive/collective wait bound when the caller passes no explicit
    per-operation timeout.  It used to be the hardcoded
    :data:`_RECV_TIMEOUT_S`; the deck key ``tl_comm_timeout`` / CLI
    ``--comm-timeout`` now reach it through
    :func:`~repro.comm.spmd.launch_spmd`.
    """

    def __init__(self, size: int, recv_timeout_s: float = _RECV_TIMEOUT_S):
        if size < 1:
            raise CommunicationError(f"world size must be >= 1, got {size}")
        if recv_timeout_s <= 0:
            raise CommunicationError(
                f"recv_timeout_s must be > 0, got {recv_timeout_s}")
        self.size = size
        self.recv_timeout_s = recv_timeout_s
        self._mailbox_lock = threading.Lock()
        self._mailboxes: dict[tuple[int, int, int], deque] = {}
        self._mailbox_cv = threading.Condition(self._mailbox_lock)
        self._sync_cv = threading.Condition()
        #: per-rank count of sync generations reached; durable, so a late
        #: rank can still observe that a now-dead peer did arrive.
        self._arrivals = [0] * size
        self._slots: list = [None] * size
        self._aborted = threading.Event()

    # -- lifecycle -------------------------------------------------------------

    def abort(self) -> None:
        """Break all pending synchronisation; called when a rank fails."""
        self._aborted.set()
        with self._sync_cv:
            self._sync_cv.notify_all()
        with self._mailbox_cv:
            self._mailbox_cv.notify_all()

    @property
    def aborted(self) -> bool:
        return self._aborted.is_set()

    def comm(self, rank: int) -> "ThreadComm":
        if not 0 <= rank < self.size:
            raise CommunicationError(f"rank {rank} out of range [0,{self.size})")
        return ThreadComm(self, rank)

    # -- internals ---------------------------------------------------------------

    def _deposit(self, src: int, dst: int, tag: int, obj) -> None:
        with self._mailbox_cv:
            self._mailboxes.setdefault((src, dst, tag), deque()).append(obj)
            self._mailbox_cv.notify_all()

    def _collect(self, src: int, dst: int, tag: int,
                 timeout: float | None = None):
        key = (src, dst, tag)
        bound = self.recv_timeout_s if timeout is None else timeout
        why = ("probable deadlock" if timeout is None
               else "dead peer or dropped message")
        deadline = time.monotonic() + bound
        with self._mailbox_cv:
            while True:
                box = self._mailboxes.get(key)
                if box:
                    return box.popleft()
                if self._aborted.is_set():
                    raise CommunicationError(
                        f"world aborted while rank {dst} awaited "
                        f"(src={src}, tag={tag})")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CommunicationError(
                        f"receive timeout after {bound}s: "
                        f"rank {dst} awaiting src={src} tag={tag} — {why}")
                # abort() notifies this condition, so waiting out the
                # whole remainder cannot miss a world failure.
                self._mailbox_cv.wait(remaining)

    def _sync(self, rank: int) -> None:
        """Block until every rank has arrived at this sync generation.

        A generation *completes* once all ranks' arrival counts reach it,
        and completion is checked before the abort flag — so a rank whose
        peers all arrived before the world aborted still passes, exactly
        as it would have under any other scheduling.  Only a generation
        the dead rank never reached raises.
        """
        with self._sync_cv:
            self._arrivals[rank] += 1
            gen = self._arrivals[rank]
            self._sync_cv.notify_all()
            deadline = time.monotonic() + self.recv_timeout_s
            while True:
                if all(a >= gen for a in self._arrivals):
                    return
                if self._aborted.is_set():
                    raise CommunicationError(
                        "world aborted during a collective")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CommunicationError(
                        f"collective timeout after {self.recv_timeout_s}s: "
                        f"rank {rank} at sync generation {gen} — "
                        f"probable deadlock")
                self._sync_cv.wait(remaining)


class _MailboxRequest(Request):
    """Pending receive against a world mailbox."""

    def __init__(self, world: ThreadWorld, src: int, dst: int, tag: int):
        self._world = world
        self._key = (src, dst, tag)
        self._value = None
        self._done = False

    def test(self) -> bool:
        if self._done:
            return True
        with self._world._mailbox_cv:
            box = self._world._mailboxes.get(self._key)
            if box:
                self._value = box.popleft()
                self._done = True
        return self._done

    def wait(self):
        if not self._done:
            self._value = self._world._collect(*self._key)
            self._done = True
        return self._value


class ThreadComm(Communicator):
    """One rank's endpoint into a :class:`ThreadWorld`."""

    def __init__(self, world: ThreadWorld, rank: int):
        self.world = world
        self.rank = rank
        self.size = world.size

    # -- point to point ---------------------------------------------------------

    def send(self, obj, dest: int, tag: int = 0) -> None:
        self._check_peer(dest)
        self.world._deposit(self.rank, dest, tag, isolate(obj))

    def recv(self, source: int, tag: int = 0,
             timeout: float | None = None):
        """Blocking receive; ``timeout`` (seconds) bounds the wait.

        Default ``None`` keeps the long global deadlock guard for
        back-compat; an explicit timeout raises
        :class:`CommunicationError` once exceeded, so a dead peer fails
        loudly instead of hanging the rank forever.  Used by
        :class:`~repro.resilience.retry.RetryingComm`.
        """
        self._check_peer(source)
        return self.world._collect(source, self.rank, tag, timeout=timeout)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Truly non-blocking receive: returns a pollable request."""
        self._check_peer(source)
        return _MailboxRequest(self.world, source, self.rank, tag)

    # -- collectives --------------------------------------------------------------

    def _exchange_slots(self, value):
        """Deposit into the slot array and return everyone's contributions."""
        w = self.world
        w._slots[self.rank] = value
        w._sync(self.rank)
        values = list(w._slots)
        w._sync(self.rank)
        return values

    def allreduce(self, value, op: str = "sum"):
        if self.size == 1:
            return reduce_in_rank_order([value], op)
        values = self._exchange_slots(value)
        return reduce_in_rank_order(values, op)

    def bcast(self, obj, root: int = 0):
        self._check_root(root)
        if self.size == 1:
            return obj
        values = self._exchange_slots(obj if self.rank == root else None)
        return values[root] if self.rank == root else isolate(values[root])

    def gather(self, obj, root: int = 0):
        self._check_root(root)
        values = self._exchange_slots(obj)
        if self.rank != root:
            return None
        return [v if r == self.rank else isolate(v)
                for r, v in enumerate(values)]

    def allgather(self, obj) -> list:
        values = self._exchange_slots(obj)
        return [isolate(v) for v in values]

    def barrier(self) -> None:
        if self.size > 1:
            self.world._sync(self.rank)

    # -- helpers ---------------------------------------------------------------------

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise CommunicationError(
                f"root {root} out of range [0,{self.size})")
