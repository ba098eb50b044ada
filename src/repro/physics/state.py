"""Rank-local state construction for the TeaLeaf mini-app.

Temperatures live at cell centres; the solved variable is
``u = density * energy`` (TeaLeaf's convention).  Density is static, so the
face coefficient fields are rebuilt from it once per time step (they change
only through ``rx = dt/dx^2`` when the step size changes).
"""

from __future__ import annotations

import numpy as np

from repro.mesh.decomposition import Tile
from repro.mesh.field import Field
from repro.mesh.grid import Grid2D
from repro.mesh.halo import HaloExchanger, reflect_boundaries
from repro.physics.conduction import (
    Conductivity,
    cell_conductivity,
    face_coefficients,
)
from repro.physics.problems import ProblemSpec


def global_initial_state(grid: Grid2D, problem: ProblemSpec
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rasterise a problem to global ``(density, energy, u)`` arrays."""
    density, energy = problem.paint(grid)
    return density, energy, density * energy


def build_system(
    grid: Grid2D,
    problem: ProblemSpec,
    dt: float,
    conductivity: Conductivity | str = Conductivity.RECIP_DENSITY,
):
    """Global ``(grid, kxg, kyg, bg)`` of ``problem``'s first implicit step.

    Every first-step system is built here: it paints the initial state,
    takes the cell conductivity of the density and scales the face
    coefficients by ``dt/dx^2`` and ``dt/dy^2``; the right-hand side is
    the initial temperature.
    """
    density, _, u0 = global_initial_state(grid, problem)
    kappa = cell_conductivity(density, conductivity)
    kxg, kyg = face_coefficients(kappa, dt / grid.dx ** 2, dt / grid.dy ** 2)
    return grid, kxg, kyg, u0


def build_fields(
    tile: Tile,
    halo: int,
    density_global: np.ndarray,
    energy_global: np.ndarray,
) -> dict[str, Field]:
    """Slice this rank's fields out of the global initial state.

    Returns ``{"density", "energy", "u"}`` where ``u`` is the temperature
    (solved variable).
    """
    density = Field.from_global(tile, halo, density_global)
    energy = Field.from_global(tile, halo, energy_global)
    u = Field(tile, halo)
    u.interior[...] = density.interior * energy.interior
    return {"density": density, "energy": energy, "u": u}


def build_coefficient_fields(
    density: Field,
    rx: float,
    ry: float,
    exchanger: HaloExchanger,
    model: Conductivity | str = Conductivity.RECIP_DENSITY,
    mean: str = "harmonic",
) -> tuple[Field, Field]:
    """Build padded face-coefficient fields ``(Kx, Ky)`` on this rank.

    ``Kx.data[k, j]`` couples padded cells ``(k, j-1)`` and ``(k, j)``;
    likewise ``Ky`` in y.  Coefficients are valid over the whole padded
    array (after a full-depth density exchange plus boundary reflection),
    which is what the matrix powers kernel's extended loop bounds require.
    Faces lying on the physical boundary are zeroed (insulated boundary).
    """
    tile, h = density.tile, density.halo
    # Fresh neighbour data first, then mirror across physical boundaries so
    # the face means are well-defined on every padded cell we may touch.
    exchanger.exchange(density, depth=h)
    reflect_boundaries(density)
    pad = density.data
    # Outer halo corners beyond two physical boundaries are never referenced
    # by any extended-bounds kernel; give them a benign positive value so the
    # conductivity transform (1/rho) stays finite.
    pad[pad <= 0] = 1.0
    kappa = cell_conductivity(pad, model)

    kx = Field(tile, h)
    ky = Field(tile, h)
    if mean == "arithmetic":
        fx = 0.5 * (kappa[:, :-1] + kappa[:, 1:])
        fy = 0.5 * (kappa[:-1, :] + kappa[1:, :])
    elif mean == "harmonic":
        fx = 2.0 * kappa[:, :-1] * kappa[:, 1:] / (kappa[:, :-1] + kappa[:, 1:])
        fy = 2.0 * kappa[:-1, :] * kappa[1:, :] / (kappa[:-1, :] + kappa[1:, :])
    else:
        raise ValueError(f"unknown face mean {mean!r}")
    kx.data[:, 1:] = rx * fx
    ky.data[1:, :] = ry * fy

    # Insulated physical boundaries: zero the boundary-face coefficients.
    if tile.left is None:
        kx.data[:, h] = 0.0
    if tile.right is None:
        kx.data[:, h + tile.nx] = 0.0
    if tile.down is None:
        ky.data[h, :] = 0.0
    if tile.up is None:
        ky.data[h + tile.ny, :] = 0.0
    return kx, ky
