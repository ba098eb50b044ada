"""The layer boundaries the traced run wraps, and the per-layer metrics.

Every wrapped callable is a public function or method of a hot-path
package of ``src/repro``; the span name's first component is its layer.
Spans of the benchmark itself (a unit, a rank body) are layer ``other``.
"""

from __future__ import annotations

import os

import numpy as np

import repro.testing
from repro.comm import spmd as comm_spmd
from repro.comm.instrument import InstrumentedComm
from repro.comm.serial import SerialComm
from repro.comm.threaded import ThreadComm
from repro.kernels import KERNEL_STREAMS
from repro.kernels.fused import FusedBackend
from repro.kernels.numpy_backend import NumpyBackend
from repro.mesh.halo import HaloExchanger
from repro.physics import deck as physics_deck
from repro.physics import simulation as physics_simulation
from repro.resilience import runner as resilience_runner
from repro.resilience.faults import FaultyComm
from repro.resilience.integrity import ChecksumComm
from repro.resilience.retry import RetryingComm
from repro.service import engine as service_engine
from repro.service.cache import SetupCache
from repro.service.journal import RequestJournal
from repro.service.recovery import ResultStore
from repro.service.worker import WorkerGroup
from repro.utils.events import EventLog

from spans import SpanTable, SpanTracer, wrap, wrap_methods
from workloads import event_counts

COMM_OPS = ("send", "recv", "allreduce", "bcast", "gather", "allgather",
            "barrier")
STENCIL_KERNELS = ("stencil_apply", "apply_dot", "apply_axpy_dot")
#: Kernels whose self time is reported one by one.
NAMED_KERNELS = STENCIL_KERNELS + ("dot", "axpy")


def _stencil_bytes(args) -> float:
    # (self, kx, ky, p, out, [y, alpha,] r0, r1, c0, c1)
    r0, r1, c0, c1 = args[-4:]
    return (r1 - r0) * (c1 - c0) * args[3].itemsize


def _array_bytes(index: int):
    return lambda args: args[index].size * args[index].itemsize


def _pack_bytes(args) -> float:
    a, rows, cols = args[1], args[2], args[3]
    return (rows.stop - rows.start) * (cols.stop - cols.start) * a.itemsize


#: Span amount per kernel: bytes of one stream over the computed region.
KERNEL_AMOUNTS = {
    "stencil_apply": _stencil_bytes,
    "apply_dot": _stencil_bytes,
    "apply_axpy_dot": _stencil_bytes,
    "dot": _array_bytes(1),
    "axpy": _array_bytes(1),
    "norm": _array_bytes(1),
    "pack_halo": _pack_bytes,
    "unpack_halo": _array_bytes(4),
}


class Probes:
    """Program outputs seen at wrapped calls during one traced unit."""

    def __init__(self):
        #: (rank, local cells, outer, inner, warm-up) per returned solve
        self.solves: list[tuple] = []
        #: every ResilientStack the unit built
        self.stacks: list = []
        self.integrity_requested = 0

    def on_solve(self, args, result) -> None:
        op = args[0]
        self.solves.append((op.comm.rank, op.tile.nx * op.tile.ny,
                            result.iterations, result.inner_iterations,
                            result.warmup_iterations))

    def on_stack(self, _args, stack) -> None:
        self.stacks.append(stack)

    def on_execute(self, args, _result) -> None:
        if args[1].integrity:
            self.integrity_requested += 1


def _launch_wrapper(original, tracer: SpanTracer):
    """``launch_spmd`` whose rank bodies are spans under the launch."""

    def launch_spmd(fn, size, *args, **kwargs):
        launch = tracer.open("comm.launch")

        def rank_body(comm, *rank_args):
            tracer.open("other.rank", parent=launch)
            try:
                return fn(comm, *rank_args)
            finally:
                tracer.close()
        try:
            return original(rank_body, size, *args, **kwargs)
        finally:
            tracer.close()
    return launch_spmd


def targets(tracer: SpanTracer, probes: Probes) -> list:
    """Every ``(owner, attribute, wrapper)`` patch of a traced unit."""
    t = tracer
    out = [
        # physics
        (physics_deck, "parse_deck_text",
         wrap(physics_deck.parse_deck_text, "physics.deck_parse", t)),
        (service_engine, "parse_deck_text",
         wrap(service_engine.parse_deck_text, "physics.deck_parse", t)),
        (physics_simulation.Simulation, "__init__",
         wrap(physics_simulation.Simulation.__init__, "physics.build", t)),
        (repro.testing, "crooked_pipe_system",
         wrap(repro.testing.crooked_pipe_system, "physics.build", t)),
        (physics_simulation.Simulation, "step",
         wrap(physics_simulation.Simulation.step, "physics.step", t,
              key=lambda args: args[0].step_index)),
        # solvers
        (physics_simulation, "solve_linear",
         wrap(physics_simulation.solve_linear, "solvers.solve", t,
              after=probes.on_solve)),
        (resilience_runner, "solve_linear",
         wrap(resilience_runner.solve_linear, "solvers.solve", t,
              after=probes.on_solve)),
        # comm
        (comm_spmd, "launch_spmd", _launch_wrapper(comm_spmd.launch_spmd, t)),
        (resilience_runner, "launch_spmd",
         _launch_wrapper(resilience_runner.launch_spmd, t)),
        # resilience
        (resilience_runner, "build_resilient_comm",
         wrap(resilience_runner.build_resilient_comm, "resilience.stack", t,
              after=probes.on_stack)),
        # service
        (service_engine.ServiceEngine, "run",
         wrap(service_engine.ServiceEngine.run, "service.engine", t)),
        (WorkerGroup, "execute",
         wrap(WorkerGroup.execute, "service.worker", t,
              after=probes.on_execute)),
        (os, "fsync", wrap(os.fsync, "service.fsync", t)),
    ]
    for backend in (NumpyBackend, FusedBackend):
        out += wrap_methods(backend, KERNEL_AMOUNTS, "kernels", t,
                            amounts=KERNEL_AMOUNTS)
    out += wrap_methods(HaloExchanger, ("exchange", "begin_exchange",
                                        "end_exchange"), "mesh.halo", t)
    for cls in (ThreadComm, SerialComm):
        out += wrap_methods(cls, COMM_OPS, "comm", t)
    out += wrap_methods(InstrumentedComm, COMM_OPS, "comm.instrument", t)
    out += wrap_methods(FaultyComm, COMM_OPS, "resilience.faulty", t)
    out += wrap_methods(RetryingComm, COMM_OPS, "resilience.retrying", t)
    out += wrap_methods(ChecksumComm, COMM_OPS, "resilience.checksum", t)
    out += wrap_methods(RequestJournal, ("append",), "service.journal", t)
    out += wrap_methods(ResultStore, ("save",), "service.results", t)
    out += wrap_methods(SetupCache, ("get", "put"), "service.cache", t)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: SpanTable, probes: Probes, log: EventLog) -> dict:
    """Per-layer numbers of one traced unit (counts exact, times in s)."""
    m: dict = {}
    # kernels: calls, cells and bytes count outermost kernel calls only
    # (the numpy apply_dot runs stencil_apply inside itself).
    kernel = table.mask("kernels.")
    nested = np.zeros_like(kernel)
    has_parent = table.parent >= 0
    nested[has_parent] = kernel[table.parent[has_parent]]
    outer = kernel & ~nested
    streams = np.zeros(len(kernel))
    for nid, name in table.names.items():
        if name.startswith("kernels."):
            streams[table.name_id == nid] = KERNEL_STREAMS[name[8:]]
    counts = event_counts(log)
    cell_iters = sum(cells * (it + inner + warm)
                     for _, cells, it, inner, warm in probes.solves)
    rank_iters = sum(it + inner + warm
                     for _, _, it, inner, warm in probes.solves)
    stencil_s = sum(table.self_s(f"kernels.{k}") for k in STENCIL_KERNELS)
    bytes_computed = float((streams * table.amount)[outer].sum())
    m["kernels.self_s"] = table.self_s("kernels.")
    m["kernels.calls"] = int(outer.sum())
    m["kernels.stencil_cells"] = counts["kernels.stencil_cells"]
    m["kernels.bytes_computed"] = bytes_computed
    m["kernels.bytes_per_cell_iter"] = _ratio(bytes_computed, cell_iters)
    m["kernels.mcells_per_s"] = _ratio(counts["kernels.stencil_cells"],
                                       stencil_s) / 1e6
    for k in NAMED_KERNELS:
        m[f"kernels.{k}.self_s"] = table.self_s(f"kernels.{k}")

    # solvers: logical counts from rank 0's SolveResults
    rank0 = [s for s in probes.solves if s[0] == 0]
    m["solvers.solves"] = len(rank0)
    m["solvers.iterations"] = sum(s[2] for s in rank0)
    m["solvers.inner_iterations"] = sum(s[3] for s in rank0)
    m["solvers.warmup_iterations"] = sum(s[4] for s in rank0)
    m["solvers.self_s"] = table.self_s("solvers.")
    m["solvers.self_us_per_iter"] = _ratio(m["solvers.self_s"],
                                           rank_iters) * 1e6

    m["mesh.halo_exchanges"] = counts["mesh.halo_exchanges"]
    m["mesh.halo_bytes"] = counts["mesh.halo_bytes"]
    m["mesh.halo_self_s"] = table.self_s("mesh.halo.")

    # comm: waits are the self time of the base communicator's calls
    rank_s = table.duration_s("other.rank")
    recv_wait = table.self_s("comm.recv")
    allreduce_wait = table.self_s("comm.allreduce")
    m["comm.recv_wait_s"] = recv_wait
    m["comm.allreduce_wait_s"] = allreduce_wait
    m["comm.wait_share"] = _ratio(recv_wait + allreduce_wait, rank_s)
    m["comm.messages"] = counts["comm.messages"]
    m["comm.msg_bytes"] = counts["comm.msg_bytes"]
    m["comm.allreduces"] = counts["comm.allreduces"]
    m["comm.instrument.self_s"] = table.self_s("comm.instrument.")
    launches = table.ids_of("comm.launch")
    launch_s = 0.0
    for p in launches:
        kids = np.flatnonzero(table.parent == p)
        slowest = table.duration[kids].max() if len(kids) else 0.0
        launch_s += table.duration[p] - slowest
    m["comm.launches"] = len(launches)
    m["comm.launch_s"] = float(launch_s)

    m["resilience.stacks"] = len(probes.stacks)
    m["resilience.faulty.self_s"] = table.self_s("resilience.faulty.")
    m["resilience.retrying.self_s"] = table.self_s("resilience.retrying.")
    m["resilience.checksum.self_s"] = table.self_s("resilience.checksum.")
    m["resilience.integrity_requested"] = probes.integrity_requested
    m["resilience.checksum_layers"] = sum(
        1 for s in probes.stacks if s.checksum is not None)

    m["service.engine_self_s"] = table.self_s("service.engine")
    m["service.execute_s"] = table.duration_s("service.request")
    m["service.journal.self_s"] = table.self_s("service.journal.")
    m["service.results.self_s"] = table.self_s("service.results.")
    m["service.fsyncs"] = table.count("service.fsync")
    m["service.fsync_s"] = table.duration_s("service.fsync")

    m["physics.deck_parse_s"] = table.self_s("physics.deck_parse")
    m["physics.builds"] = table.count("physics.build")
    m["physics.build_s"] = table.self_s("physics.build")
    m["other.self_s"] = table.self_s("other.")
    return m
