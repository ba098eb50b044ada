"""The benchmark's workloads: one unit of work each, its checks and counts.

A *unit* is one complete use of the program: for ``pipe_*`` a fresh
simulation (deck parse, set-up, world launch) advanced a fixed number of
implicit steps; for ``service_mix`` a fresh engine with an on-disk
journal and result store serving the whole request mix.  Runs repeat
units; every unit of a run does identical work.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.comm import spmd as comm_spmd
from repro.harness.service_sweep import (DEFAULT_SLO, _check_oracle,
                                         _compute_stats, generate_requests)
from repro.physics import deck as physics_deck
from repro.physics.conduction import cell_conductivity, face_coefficients
from repro.physics.deck import (CROOKED_PIPE_DECK, deck_solver_options,
                                deck_to_problem)
from repro.physics.simulation import Simulation
from repro.physics.state import global_initial_state
from repro.service.engine import ServiceConfig, ServiceEngine
from repro.service.journal import RequestJournal
from repro.service.recovery import ResultStore
from repro.service.requests import STATUSES
from repro.solvers.operator import StencilOperator2D
from repro.utils.events import RECOVERY_KIND, REPLACEMENT_KIND, EventLog

#: Service mix seed used unless ``--mix-seed`` says otherwise (4099 is
#: held out for confirming a later claim on a mix no change was tuned on).
DEFAULT_MIX_SEED = 20170905
MIX_REQUESTS = 200

#: Mean temperature may drift by this share of its initial value.
MEAN_RTOL = 1e-12
#: Final step's true relative residual may exceed ``tl_eps`` by this factor.
RESIDUAL_SLACK = 10.0
#: 2-rank vs 1-rank final temperature, as a share of its largest value.
MATCH_RTOL = 1e-8


def event_total(log: EventLog, kind: str, amount: str | None = None) -> float:
    """Events of ``kind`` (or their summed ``amount``), counting the ones
    a recovery or replacement scope re-bucketed under another kind."""
    buckets = [b for b in log.counts
               if b[0] == kind or (b[0] in (RECOVERY_KIND, REPLACEMENT_KIND)
                                   and b[1] == kind)]
    if amount is None:
        return sum(log.counts[b] for b in buckets)
    return sum(log.quantities.get(b, {}).get(amount, 0.0) for b in buckets)


def event_counts(log: EventLog) -> dict:
    """The count metrics an :class:`EventLog` holds."""
    return {
        "kernels.stencil_cells": event_total(log, "matvec", "cells"),
        "mesh.halo_exchanges": event_total(log, "halo_exchange"),
        "mesh.halo_bytes": event_total(log, "halo_exchange", "bytes"),
        "comm.messages": event_total(log, "p2p_send"),
        "comm.msg_bytes": event_total(log, "p2p_send", "bytes"),
        "comm.allreduces": event_total(log, "allreduce"),
    }


# -- pipe_* -------------------------------------------------------------------


@dataclass(frozen=True)
class PipeSpec:
    """The crooked-pipe deck at one size, solver and rank count."""

    n: int
    solver_flag: str
    ranks: int
    steps: int

    def deck_text(self) -> str:
        return CROOKED_PIPE_DECK.format(n=self.n).replace("use_ppcg",
                                                          self.solver_flag)


PIPES = {
    "pipe_serial": PipeSpec(n=256, solver_flag="use_ppcg", ranks=1, steps=3),
    "pipe_2rank": PipeSpec(n=64, solver_flag="use_cg", ranks=2, steps=12),
}


@dataclass
class PipeUnit:
    setup_s: float
    time_to_solution_s: float
    request_walls: list         #: wall of each implicit step (rank 0)
    steps: list                 #: rank 0's StepStats
    b_last: np.ndarray          #: global right-hand side of the last step
    x_last: np.ndarray          #: global solution of the last step
    events: EventLog            #: merged over ranks

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.time_to_solution_s

    @property
    def served(self) -> int:
        return len(self.steps)

    def counts(self) -> dict:
        """Exact work counts from the program's outputs."""
        return {
            "solvers.solves": len(self.steps),
            "solvers.iterations": sum(s.iterations for s in self.steps),
            "solvers.inner_iterations": sum(s.inner_iterations
                                            for s in self.steps),
            "solvers.warmup_iterations": sum(s.warmup_iterations
                                             for s in self.steps),
            **event_counts(self.events),
        }


def run_pipe(spec: PipeSpec, ranks: int | None = None) -> PipeUnit:
    """One simulation of ``spec`` (optionally on another rank count)."""
    ranks = spec.ranks if ranks is None else ranks
    t_begin = perf_counter()
    deck = physics_deck.parse_deck_text(spec.deck_text())
    options = deck_solver_options(deck)
    problem = deck_to_problem(deck)

    def rank_main(comm):
        sim = Simulation(comm, deck.grid, problem, options,
                         dt=deck.initial_timestep,
                         conductivity=deck.tl_coefficient)
        comm.barrier()
        t_start = perf_counter()
        walls, stats = [], []
        for i in range(spec.steps):
            if i == spec.steps - 1:
                b_last = sim.u.interior.copy()
            t = perf_counter()
            stats.append(sim.step())
            walls.append(perf_counter() - t)
        t_end = perf_counter()
        return (sim.tile, t_start, t_end, walls, stats, b_last,
                sim.u.interior.copy(), sim.events)

    out = comm_spmd.launch_spmd(rank_main, ranks)
    b_last = np.zeros(deck.grid.shape)
    x_last = np.zeros(deck.grid.shape)
    for tile, *_, b, x, _ in out:
        b_last[tile.global_slices] = b
        x_last[tile.global_slices] = x
    starts = [r[1] for r in out]
    return PipeUnit(
        setup_s=max(starts) - t_begin,
        time_to_solution_s=max(r[2] for r in out) - min(starts),
        request_walls=out[0][3],
        steps=out[0][4],
        b_last=b_last,
        x_last=x_last,
        events=EventLog.merged(r[7] for r in out),
    )


class PipeChecker:
    """Output checks of a pipe unit against the deck's global system."""

    def __init__(self, spec: PipeSpec):
        deck = physics_deck.parse_deck_text(spec.deck_text())
        grid = deck.grid
        density, _, u0 = global_initial_state(grid, deck_to_problem(deck))
        kx, ky = face_coefficients(
            cell_conductivity(density, deck.tl_coefficient),
            deck.initial_timestep / grid.dx ** 2,
            deck.initial_timestep / grid.dy ** 2)
        self.matrix = StencilOperator2D.assemble_sparse(kx, ky)
        self.mean0 = float(u0.mean())
        self.eps = deck.tl_eps

    def true_relative_residual(self, b: np.ndarray, x: np.ndarray) -> float:
        """``||b - A x|| / ||b - A x0||`` with the warm start ``x0 = b``."""
        b, x = b.ravel(), x.ravel()
        r0 = np.linalg.norm(b - self.matrix @ b)
        return float(np.linalg.norm(b - self.matrix @ x) / r0)

    def failures(self, unit: PipeUnit) -> list[str]:
        """One message per failed step (an op); empty when all pass."""
        bad = []
        for s in unit.steps:
            drift = abs(s.mean_temperature - self.mean0) / abs(self.mean0)
            if not s.converged:
                bad.append(f"step {s.step}: not converged")
            elif drift > MEAN_RTOL:
                bad.append(f"step {s.step}: mean temperature drifted "
                           f"{drift:.2e} > {MEAN_RTOL:.0e}")
        rel = self.true_relative_residual(unit.b_last, unit.x_last)
        if rel > RESIDUAL_SLACK * self.eps:
            bad.append(f"step {unit.steps[-1].step}: true relative residual "
                       f"{rel:.2e} > {RESIDUAL_SLACK:g} x tl_eps")
        return bad


def solution_mismatch(a: PipeUnit, b: PipeUnit) -> float:
    """Largest final-temperature difference, relative to ``b``'s peak."""
    return float(np.max(np.abs(a.x_last - b.x_last))
                 / np.max(np.abs(b.x_last)))


# -- service_mix ---------------------------------------------------------------


def service_config(mix_seed: int) -> ServiceConfig:
    """The service sweep's engine configuration (2-rank worker groups)."""
    return ServiceConfig(workers=2, group_size=2, max_queue=8,
                         quota_rate=300.0, quota_burst=12.0,
                         chaos_seed=mix_seed)


class RequestClock:
    """Minimal engine ``tracer=``: wall seconds per request id."""

    def __init__(self):
        self.walls: dict[str, float] = {}

    @contextmanager
    def span(self, _name: str, key=None):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.walls[key] = self.walls.get(key, 0.0) + perf_counter() - t0


@dataclass
class ServiceSetup:
    engine: ServiceEngine
    journal: RequestJournal
    results: ResultStore
    setup_s: float


def setup_service(mix_seed: int, workdir: Path, tracer) -> ServiceSetup:
    """Engine, journal and result store over a fresh directory.

    The directory is left for the caller to remove after the run, so no
    file deletion runs inside a measured region.
    """
    t = perf_counter()
    journal = RequestJournal(workdir / "journal")
    results = ResultStore(workdir / "results")
    engine = ServiceEngine(service_config(mix_seed), tracer=tracer,
                           journal=journal, results=results)
    return ServiceSetup(engine, journal, results, perf_counter() - t)


@dataclass
class ServiceUnit:
    setup_s: float
    wall_s: float
    outcomes: list
    stats: dict
    request_walls: list = field(default_factory=list)
    journal_appends: int = 0
    result_saves: int = 0

    @property
    def time_to_solution_s(self) -> float:
        return self.wall_s

    @property
    def served(self) -> int:
        return sum(o.status in ("completed", "degraded")
                   for o in self.outcomes)

    @property
    def ops(self) -> list:
        """Requests the client did not cancel: one op each."""
        return [o for o in self.outcomes if o.status != "cancelled"]

    def counts(self) -> dict:
        """Exact work counts from the engine's outputs."""
        c = self.stats["counters"]
        cache = self.stats["cache"]
        out = {
            "service.admitted": c.get("service.admitted", 0),
            "service.shed": self.stats["by_status"]["shed"],
            "service.dispatches": sum(o.attempts for o in self.outcomes),
            "service.redispatches": c.get("service.redispatches", 0),
            "service.cache.lookups": cache["hits"] + cache["misses"],
            "service.cache.hits": cache["hits"],
            "service.journal.appends": self.journal_appends,
            "service.results.saves": self.result_saves,
            "resilience.retries": sum(o.retries for o in self.outcomes),
        }
        out.update({f"status.{s}": n
                    for s, n in self.stats["by_status"].items()})
        return out


def run_service(requests, mix_seed: int, workdir: Path,
                tracer=None) -> ServiceUnit:
    """Serve the whole mix through a freshly set-up engine."""
    clock = RequestClock()
    s = setup_service(mix_seed, workdir, tracer or clock)
    try:
        t = perf_counter()
        outcomes = s.engine.run(requests)
        wall = perf_counter() - t
        stats = _compute_stats(outcomes, s.engine)
        return ServiceUnit(
            setup_s=s.setup_s, wall_s=wall, outcomes=outcomes, stats=stats,
            request_walls=list(clock.walls.values()),
            journal_appends=s.journal.record_count,
            result_saves=s.results.saves)
    finally:
        s.journal.close()


def slo_violations(stats: dict) -> list[str]:
    """The sweep's :data:`DEFAULT_SLO` verdicts that fail."""
    slo = DEFAULT_SLO
    bad = []
    if stats["served_rate"] < slo["min_served_rate"]:
        bad.append(f"served_rate {stats['served_rate']:.3f}")
    if stats["shed_rate"] > slo["max_shed_rate"]:
        bad.append(f"shed_rate {stats['shed_rate']:.3f}")
    if stats["failed_rate"] > slo["max_failed_rate"]:
        bad.append(f"failed_rate {stats['failed_rate']:.3f}")
    if stats["latency_p99_s"] > slo["max_p99_latency_s"]:
        bad.append(f"latency_p99_s {stats['latency_p99_s']:.4f}")
    if stats["redispatches"] > 0 \
            and stats["recovery_rate"] < slo["min_recovery_rate"]:
        bad.append(f"recovery_rate {stats['recovery_rate']:.3f}")
    return bad


def service_failures(unit: ServiceUnit, requests,
                     expected_status: dict) -> dict[str, str]:
    """Failed ops of one unit: request id -> reason.

    A request fails when it is unclassified or its served solution
    violates the differential oracle; every op of the unit fails when
    the unit misses an SLO verdict or its per-status counts differ from
    ``expected_status`` (those of the run's first unit, same seed).
    """
    bad: dict[str, str] = {}
    for o in unit.ops:
        if o.status not in STATUSES or (o.status == "failed"
                                        and not o.error_class):
            bad[o.request_id] = f"unclassified status {o.status!r}"
    _, violations = _check_oracle(unit.outcomes, requests)
    for v in violations:
        bad[v.split(":", 1)[0]] = v
    whole = slo_violations(unit.stats)
    if unit.stats["by_status"] != expected_status:
        whole.append(f"per-status counts {unit.stats['by_status']} differ "
                     f"from {expected_status}")
    for reason in whole:
        for o in unit.ops:
            bad.setdefault(o.request_id, reason)
    return bad


def mix(mix_seed: int) -> list:
    return generate_requests(mix_seed, MIX_REQUESTS)
