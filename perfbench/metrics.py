"""The benchmark's metric catalogue; ``BENCHMARK.json`` mirrors it."""

from __future__ import annotations

#: (name, unit, better, bound): printed by every untraced run.
END_TO_END = (
    ("time_to_solution_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("served_per_s", "1/s", "higher", 0.25),
    ("request_wall_p50_ms", "ms", "lower", 0.25),
    ("request_wall_p90_ms", "ms", "lower", 0.25),
)

#: (name, unit, better): printed by every traced run.  Units ``count``
#: and ``B`` (and ratios of them) are exact and must repeat.
PER_LAYER = (
    ("kernels.self_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.stencil_cells", "count", "lower"),
    ("kernels.bytes_computed", "B", "lower"),
    ("kernels.bytes_per_cell_iter", "B/cell/iter", "lower"),
    ("kernels.mcells_per_s", "Mcell/s", "higher"),
    ("kernels.stencil_apply.self_s", "s", "lower"),
    ("kernels.apply_dot.self_s", "s", "lower"),
    ("kernels.apply_axpy_dot.self_s", "s", "lower"),
    ("kernels.dot.self_s", "s", "lower"),
    ("kernels.axpy.self_s", "s", "lower"),
    ("solvers.solves", "count", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.inner_iterations", "count", "lower"),
    ("solvers.warmup_iterations", "count", "lower"),
    ("solvers.self_s", "s", "lower"),
    ("solvers.self_us_per_iter", "us/iter", "lower"),
    ("mesh.halo_exchanges", "count", "lower"),
    ("mesh.halo_bytes", "B", "lower"),
    ("mesh.halo_self_s", "s", "lower"),
    ("comm.recv_wait_s", "s", "lower"),
    ("comm.allreduce_wait_s", "s", "lower"),
    ("comm.wait_share", "ratio", "lower"),
    ("comm.messages", "count", "lower"),
    ("comm.msg_bytes", "B", "lower"),
    ("comm.allreduces", "count", "lower"),
    ("comm.instrument.self_s", "s", "lower"),
    ("comm.launches", "count", "lower"),
    ("comm.launch_s", "s", "lower"),
    ("comm.speedup_vs_1rank", "ratio", "higher"),
    ("resilience.stacks", "count", "lower"),
    ("resilience.faulty.self_s", "s", "lower"),
    ("resilience.retrying.self_s", "s", "lower"),
    ("resilience.checksum.self_s", "s", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.integrity_requested", "count", "lower"),
    ("resilience.checksum_layers", "count", "higher"),
    ("service.engine_self_s", "s", "lower"),
    ("service.execute_s", "s", "lower"),
    ("service.admitted", "count", "higher"),
    ("service.shed", "count", "lower"),
    ("service.dispatches", "count", "lower"),
    ("service.redispatches", "count", "lower"),
    ("service.useful_dispatch_ratio", "ratio", "higher"),
    ("service.cache.lookups", "count", "lower"),
    ("service.cache.hits", "count", "higher"),
    ("service.cache.hit_ratio", "ratio", "higher"),
    ("service.journal.appends", "count", "lower"),
    ("service.journal.self_s", "s", "lower"),
    ("service.results.saves", "count", "lower"),
    ("service.results.self_s", "s", "lower"),
    ("service.fsyncs", "count", "lower"),
    ("service.fsync_s", "s", "lower"),
    ("physics.deck_parse_s", "s", "lower"),
    ("physics.builds", "count", "lower"),
    ("physics.build_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("other.self_s", "s", "lower"),
)

#: Per-layer metrics that are functions of exact counts only.
EXACT = frozenset(
    [name for name, unit, _ in PER_LAYER if unit in ("count", "B")]
    + ["kernels.bytes_per_cell_iter", "service.useful_dispatch_ratio",
       "service.cache.hit_ratio"])

WORKLOADS = (
    ("pipe_serial",
     "the paper's solver (CPPCG, 10 inner steps) on the crooked pipe at "
     "256^2 on 1 rank: kernels dominate, comm/resilience/service idle; "
     "seed-free deck"),
    ("pipe_2rank",
     "the crooked pipe with CG at 64^2 on 2 ThreadComm ranks: 2 allreduces "
     "and 1 halo exchange per iteration, one launch; seed-free deck"),
    ("service_mix",
     "the seeded 200-request service mix (--mix-seed, default 20170905, "
     "held-out 4099) on 2-rank groups with journal and result store"),
)
