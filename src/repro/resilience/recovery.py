"""ULFM-style rank-loss recovery over the thread SPMD world.

When a :class:`~repro.resilience.faults.CrashWindow` outlasts the retry
budget, the resilient stack cannot hide it: the failed rank's operations
keep raising until the whole world aborts with a
:class:`~repro.utils.errors.CommunicationError`.  Real ULFM applications
survive this by *shrinking* the communicator, agreeing on the failure,
respawning a replacement process, rebuilding its state from checkpoints,
and continuing.  :func:`run_recoverable` implements that protocol for the
in-process world, where "respawn" means relaunching the SPMD run with the
failed rank's hardware replaced:

1. **detect** — :func:`~repro.resilience.runner.run_resilient` escalates
   the unrecoverable crash as a ``CommunicationError`` that reaches the
   launcher (every surviving rank is aborted by the thread world, exactly
   like an MPI job kill);
2. **agree** — the relaunched ranks vote on the resume point with a
   min-allreduce over their durable shard iterations (under the recovery
   scope, so contract counts stay clean) — the in-process analogue of
   ULFM's agreement on the failed-process set;
3. **respawn** — the failed rank's crash windows are removed from the
   fault plan (the replacement runs on fresh hardware; everything else in
   the plan — other ranks' windows, all probabilistic rules — still
   applies) and the world is relaunched at full size;
4. **rebuild** — each rank restores its subdomain solver state from its
   last durable guard shard and refreshes halos from its neighbours, then
   the solve resumes from the agreed collective checkpoint instead of
   iteration 0.

The per-rank durable shards are written by the
:class:`~repro.resilience.guard.SolverGuard` (``store=`` a
:class:`~repro.resilience.checkpoint.SolverCheckpointStore`), so the guard's
last collective checkpoint is exactly what recovery resumes from.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from repro.resilience.faults import FaultPlan
from repro.resilience.runner import (DEFAULT_RECV_TIMEOUT_S,
                                     ResilienceReport, run_resilient)
from repro.solvers import SolverOptions
from repro.utils.errors import CommunicationError, ConvergenceError


@dataclass(frozen=True)
class RecoveryEvent:
    """One shrink/respawn recovery performed by :func:`run_recoverable`."""

    attempt: int        #: which solve attempt failed (0 = first)
    failed_rank: int    #: rank whose crash window outlasted the retries
    window_start: int   #: op index where that window opened
    detail: str = ""

    def __str__(self) -> str:
        return (f"[recovery {self.attempt}] rank {self.failed_rank} lost "
                f"at op {self.window_start}: {self.detail}")


def _fatal_window(plan: FaultPlan, max_attempts: int):
    """The earliest crash window the retry budget cannot absorb, if any."""
    fatal = [w for w in plan.crashes if w.length >= max_attempts]
    if not fatal:
        return None
    return min(fatal, key=lambda w: (w.start, w.rank))


def _drop_rank_windows(plan: FaultPlan, rank: int) -> FaultPlan:
    """The plan after replacing ``rank``'s hardware (its windows removed)."""
    return dataclasses.replace(
        plan, crashes=tuple(w for w in plan.crashes if w.rank != rank))


def run_recoverable(options: SolverOptions,
                    plan: FaultPlan,
                    system,
                    *,
                    size: int = 1,
                    checkpoint_dir,
                    max_attempts: int = 5,
                    max_recoveries: int = 2,
                    integrity: bool = False,
                    recv_timeout: float | None = DEFAULT_RECV_TIMEOUT_S) -> ResilienceReport:
    """Run :func:`run_resilient`, surviving unrecoverable rank loss.

    Solves ``system`` with durable guard checkpoints under
    ``checkpoint_dir``; when an attempt dies of an escalated crash window,
    performs one shrink/respawn recovery (up to ``max_recoveries``) and
    resumes from the last collective checkpoint.  The returned report is
    the final attempt's, annotated with ``recoveries``/``recovery_events``.

    Raises the final :class:`CommunicationError` unchanged once the
    recovery budget is spent or when no fatal crash window can explain
    the failure (a genuine bug should not be eaten by recovery).
    """
    checkpoint_dir = Path(checkpoint_dir)
    recovery_events: list[RecoveryEvent] = []
    attempt = 0
    current = plan
    resume = False
    while True:
        try:
            report = run_resilient(options, current, system, size=size,
                                   max_attempts=max_attempts,
                                   recv_timeout=recv_timeout,
                                   integrity=integrity,
                                   checkpoint_dir=checkpoint_dir,
                                   resume=resume)
            break
        except ConvergenceError:
            raise
        except CommunicationError:
            window = _fatal_window(current, max_attempts)
            if window is None or len(recovery_events) >= max_recoveries:
                raise
            recovery_events.append(RecoveryEvent(
                attempt=attempt,
                failed_rank=window.rank,
                window_start=window.start,
                detail=(f"window length {window.length} >= retry budget "
                        f"{max_attempts}; respawned from last durable "
                        f"checkpoint")))
            current = _drop_rank_windows(current, window.rank)
            resume = True
            attempt += 1
    report.recoveries = len(recovery_events)
    report.recovery_events = list(recovery_events)
    return report
