"""Public test/benchmark scaffolding.

Construction helpers used throughout this repository's tests, benchmarks
and examples — exported so downstream experiments can build the same
reference systems in a line or two:

- :func:`crooked_pipe_system` — global operator coefficients and RHS of
  the paper's benchmark first implicit step;
- :func:`random_spd_faces` — random positive face coefficients (an SPD
  ``I + D`` operator) for property-style testing;
- :func:`serial_operator` / :func:`reference_solution` — a one-rank
  operator (re-exported from :mod:`repro.solvers`) and the direct sparse
  ground truth;
- :func:`distributed_solve` — run any :class:`SolverOptions` configuration
  genuinely decomposed over the in-process SPMD world and return the
  assembled global solution.
"""

from __future__ import annotations

import numpy as np

from repro.comm import launch_spmd
from repro.mesh import Field, Grid2D, decompose
from repro.physics import build_system, crooked_pipe, crooked_pipe_jump
from repro.solvers import (
    SolverOptions,
    StencilOperator2D,
    serial_operator,
    solve_linear,
)

__all__ = [
    "crooked_pipe_system",
    "crooked_pipe_jump_system",
    "random_spd_faces",
    "serial_operator",
    "reference_solution",
    "distributed_solve",
]


def crooked_pipe_system(n: int, dt: float = 0.04):
    """Global arrays of the crooked-pipe first implicit step.

    Returns ``(grid, kx_global, ky_global, b_global)``.
    """
    return build_system(Grid2D(n, n), crooked_pipe(), dt)


def crooked_pipe_jump_system(n: int, jump: float, dt: float = 0.04):
    """Like :func:`crooked_pipe_system` for one ill-conditioned battery
    problem (:func:`~repro.physics.crooked_pipe_jump`): the conductivity
    contrast — and the operator's condition number — scales with ``jump``.
    """
    return build_system(Grid2D(n, n), crooked_pipe_jump(jump), dt)


def random_spd_faces(rng: np.random.Generator, ny: int, nx: int,
                     scale: float = 1.0):
    """Random positive face coefficients with zero physical-boundary faces."""
    kx = np.zeros((ny, nx + 1))
    ky = np.zeros((ny + 1, nx))
    kx[:, 1:nx] = scale * rng.uniform(0.1, 2.0, size=(ny, nx - 1))
    ky[1:ny, :] = scale * rng.uniform(0.1, 2.0, size=(ny - 1, nx))
    return kx, ky


def reference_solution(kxg, kyg, bg):
    """Direct sparse solve of the global system (scipy ground truth)."""
    import scipy.sparse.linalg as spla
    A = StencilOperator2D.assemble_sparse(kxg, kyg)
    return spla.spsolve(A.tocsc(), bg.ravel()).reshape(bg.shape)


def distributed_solve(grid: Grid2D, kxg, kyg, bg,
                      options: SolverOptions, size: int):
    """Solve on a ``size``-rank world; returns (global x, rank-0 result)."""

    def rank_main(comm):
        tile = decompose(grid, comm.size)[comm.rank]
        halo = options.required_field_halo
        op = StencilOperator2D.from_global_faces(tile, halo, kxg, kyg, comm)
        b = Field.from_global(tile, halo, bg)
        result = solve_linear(op, b, options=options)
        return tile, result

    out = launch_spmd(rank_main, size)
    x = np.zeros(grid.shape)
    for tile, result in out:
        x[tile.global_slices] = result.x.interior
    return x, out[0][1]
