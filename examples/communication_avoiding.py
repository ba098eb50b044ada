"""Beyond CPPCG: the paper's §VII roadmap, implemented.

Demonstrates the follow-on communication-avoiding techniques the paper
sketches as future work, on real instrumented solves plus the machine
model:

1. single-reduction (Chronopoulos-Gear) CG — "multiple dot products
   combined into a single communication step";
2. deflated CG (Frank & Vuik, the paper's ref [27]) — removing low-energy
   modes via subdomain deflation;
3. adaptive CPPCG — restarting with re-estimated eigenvalue bounds when
   the polynomial misbehaves (the §VIII robustness question);
4. the hybrid domain-decomposition + agglomeration multigrid;
5. what-if sensitivity analysis of future machines.

Run:  python examples/communication_avoiding.py
"""

import numpy as np

from repro import Grid2D, SolverOptions, crooked_pipe
from repro.comm import InstrumentedComm, SerialComm, launch_spmd
from repro.mesh import Field, decompose
from repro.physics import build_system
from repro.solvers import (
    EigenBounds,
    StencilOperator2D,
    cg_fused_solve,
    cg_solve,
    deflated_cg_solve,
    ppcg_solve,
)
from repro.utils import EventLog


def build(n, dt=0.04):
    return build_system(Grid2D(n, n), crooked_pipe(), dt)


def instrumented_op(grid, kx, ky, halo=1):
    log = EventLog()
    comm = InstrumentedComm(SerialComm(), log)
    tile = decompose(grid, 1)[0]
    op = StencilOperator2D.from_global_faces(tile, halo, kx, ky, comm,
                                             events=log)
    return op, log


def demo_fused_cg():
    print("1) single-reduction CG (Chronopoulos-Gear)")
    grid, kx, ky, u0 = build(96)
    for name, solver in (("classic", cg_solve), ("fused", cg_fused_solve)):
        op, log = instrumented_op(grid, kx, ky)
        b = Field.from_global(op.tile, 1, u0)
        result = solver(op, b, eps=1e-9)
        print(f"   {name:8s}: {result.iterations:4d} iterations, "
              f"{log.count_kind('allreduce'):4d} global reductions")


def demo_deflation():
    print("\n2) deflated CG on increasingly stiff steps (dt sweep)")
    for dt in (0.04, 10.0, 50.0):
        grid, kx, ky, u0 = build(48, dt=dt)
        op, _ = instrumented_op(grid, kx, ky)
        b = Field.from_global(op.tile, 1, u0)
        plain = cg_solve(op, b, eps=1e-9).iterations
        op2, _ = instrumented_op(grid, kx, ky)
        b2 = Field.from_global(op2.tile, 1, u0)
        defl = deflated_cg_solve(op2, b2, eps=1e-9, blocks=(8, 8)).iterations
        print(f"   dt={dt:6.2f}: CG {plain:5d} -> deflated (8x8) {defl:5d} "
              f"iterations ({plain / defl:.2f}x)")


def demo_adaptive():
    print("\n3) adaptive CPPCG recovering from bad eigenvalue bounds")
    grid, kx, ky, u0 = build(48)
    bad = EigenBounds(1.0, 1.5)  # lam_max grossly underestimated
    op, _ = instrumented_op(grid, kx, ky)
    b = Field.from_global(op.tile, 1, u0)
    result = ppcg_solve(op, b, eps=1e-9, bounds=bad, warmup_iters=15,
                        adaptive=True)
    print(f"   converged={result.converged} after {result.restarts} "
          f"restart(s); final bounds "
          f"[{result.eigen_bounds[0]:.2f}, {result.eigen_bounds[1]:.2f}]")


def demo_hybrid_mg():
    print("\n4) hybrid DD + agglomeration multigrid (4 SPMD ranks)")
    from repro.multigrid.distributed import dmgcg_solve
    grid, kx, ky, u0 = build(64)

    def rank_main(comm):
        tile = decompose(grid, comm.size)[comm.rank]
        op = StencilOperator2D.from_global_faces(tile, 1, kx, ky, comm)
        b = Field.from_global(tile, 1, u0)
        return dmgcg_solve(op, b, eps=1e-10)

    result = launch_spmd(rank_main, 4)[0]
    print(f"   {result.iterations} outer iterations over "
          f"{result.n_levels} levels (decomposed + agglomerated coarse)")


def demo_sensitivity():
    print("\n5) what binds at 8192 Titan nodes? (2x degradation per knob)")
    from repro.perfmodel import TITAN, SolverConfig
    from repro.perfmodel.sensitivity import sensitivities
    for label, config, iters in (
        ("CG-1", SolverConfig("cg"), 8556.0),
        ("PPCG-16", SolverConfig("ppcg", inner_steps=10, halo_depth=16),
         934.0),
    ):
        s = sensitivities(TITAN, config, nodes=8192, outer_iters=iters)
        ranked = sorted(s.items(), key=lambda kv: -kv[1])
        pretty = ", ".join(f"{k}={v:.2f}x" for k, v in ranked)
        print(f"   {label:8s}: {pretty}")


if __name__ == "__main__":
    demo_fused_cg()
    demo_deflation()
    demo_adaptive()
    demo_hybrid_mg()
    demo_sensitivity()
