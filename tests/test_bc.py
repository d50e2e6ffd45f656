"""Boundary-condition sets: later assignments replace earlier data."""

import numpy as np
import pytest

from fracfv.fvdiscretize import NEUMANN, assemble_mpfa, assemble_tpfa, flow_bc
from fracfv.linsolve import direct_solve
from fracfv.tensors import tensor_field


def _external(mesh):
    g = mesh.subdomains[0]
    return g, np.flatnonzero(g.external_boundary)


class TestReassignment:
    def test_constant_replaces_function(self, unit_square_4):
        g, ext = _external(unit_square_4)
        bc = flow_bc(g).set_dirichlet(ext, lambda x: 5.0).set_dirichlet(ext, 0.0)
        assert all(bc.value_at(int(f)) == 0.0 for f in ext)
        assert all(bc.value_at(int(f), g.face_centres[f] + 0.1) == 0.0 for f in ext)
        assert np.all(bc.value[ext] == 0.0)

    @pytest.mark.parametrize("assemble", [assemble_tpfa, assemble_mpfa])
    def test_solution_follows_latest_constant(self, unit_square_4, assemble):
        g, ext = _external(unit_square_4)
        bc = flow_bc(g).set_dirichlet(ext, lambda x: 5.0).set_dirichlet(ext, 0.0)
        disc = assemble(g, tensor_field(1.0, g.n_cells, 2), bc)
        p = direct_solve(disc.matrix, disc.rhs + 1.0)
        # Zero boundary pressure and a positive source: the field lies in (0, 5).
        assert p.min() > 0.0 and p.max() < 5.0

    def test_neumann_replaces_function(self, unit_square_4):
        g, ext = _external(unit_square_4)
        bc = flow_bc(g).set_dirichlet(ext, lambda x: 5.0).set_neumann(ext[:3], 0.0)
        assert np.all(bc.kind[ext[:3]] == NEUMANN)
        assert [bc.value_at(int(f)) for f in ext[:4]] == [0.0, 0.0, 0.0, 5.0]

    def test_function_replaces_part_of_function(self, unit_square_4):
        g, ext = _external(unit_square_4)
        bc = flow_bc(g).set_dirichlet(ext, lambda x: 5.0).set_dirichlet(ext[:2], lambda x: x[0])
        for f in ext:
            expected = g.face_centres[f, 0] if f in ext[:2] else 5.0
            assert bc.value_at(int(f)) == expected == bc.value[f]
