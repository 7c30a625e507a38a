"""The thermal grid's numpy assembly equals the per-cell loop.

``tests/oracles/thermal.py`` keeps the original loop.
``ThermalGrid.system`` must give the same matrix (``data``, ``indices``
and ``indptr``) and right-hand side, byte for byte, so the SuperLU solve
returns the same field.  Checked on the package grids of the glass 2.5D,
glass 3D and APX designs (5x44x44) and the silicon 3D stack (10x44x44),
and on random conductivity and power grids with one layer (top and
bottom convection on the same cells), a 2x2 footprint and uneven layer
thicknesses.
"""

import numpy as np
import pytest

from repro.thermal.grid import ThermalGrid
from repro.thermal.model import build_package_grid, build_stack_grid
from repro.tech.interposer import APX, GLASS_25D, GLASS_3D, SILICON_3D
from tests.oracles.thermal import solve_scalar, system_scalar
from tests.thermal.test_model import POWER, placement_for


def _same_bytes(new, old, what):
    assert (new.dtype, new.shape, new.tobytes()) == (
        old.dtype, old.shape, old.tobytes()), what


def _assert_same_system(grid):
    G, b = grid.system()
    ref, ref_b = system_scalar(grid)
    for part in ("data", "indices", "indptr"):
        _same_bytes(getattr(G, part), getattr(ref, part), part)
    _same_bytes(b, ref_b, "rhs")
    _same_bytes(grid.solve().temperature_c, solve_scalar(grid), "field")


@pytest.mark.parametrize("spec, layers", [
    (GLASS_25D, 5), (GLASS_3D, 5), (APX, 5), (SILICON_3D, 10)])
def test_design_grids(spec, layers):
    placement = placement_for(spec)
    rng = np.random.default_rng(3)
    maps = {die.name: rng.random((8, 8)) for die in placement.dies}
    build = build_stack_grid if spec is SILICON_3D else build_package_grid
    grid = build(placement, POWER, maps)
    assert grid.k.shape == (layers, 44, 44)
    _assert_same_system(grid)


@pytest.mark.parametrize("nz, ny, nx", [(1, 5, 7), (3, 2, 2), (4, 6, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_random_grids(nz, ny, nx, seed):
    rng = np.random.default_rng(seed)
    grid = ThermalGrid(nx, ny, list(rng.uniform(5e-6, 400e-6, nz)),
                       rng.uniform(50e-6, 300e-6),
                       rng.uniform(50e-6, 300e-6),
                       ambient_c=rng.uniform(15.0, 40.0))
    grid.k = rng.uniform(0.02, 400.0, (nz, ny, nx))
    grid.q = rng.uniform(0.0, 1e-3, (nz, ny, nx))
    grid.h_top, grid.h_bottom = rng.uniform(1.0, 1e4, 2)
    _assert_same_system(grid)
