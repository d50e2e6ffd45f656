"""Refusals of invalid meshes, assemblies, reductions and boundary data.

Each test breaks one invariant of a copy of a small built mesh (or hands one
invalid input to a library call) and checks that the guarding check names it.
"""

import copy

import numpy as np
import pytest

from fracfv.coupling import FlowProblem, assemble_global, discretize_interface, uniform_problem
from fracfv.elimination import back_substitute, schur_reduce_matrix, star_delta_reduce
from fracfv.errors import (
    AssemblyError,
    BoundaryConditionError,
    EliminationError,
    MeshError,
)
from fracfv.fvdiscretize import assemble_mpfa, assemble_tpfa, flow_bc, transport_bc
from fracfv.mdmesh import FractureNetworkSpec, FracturePatch, build_cartesian_with_fractures
from fracfv.mdmesh.grids import validate_grid
from fracfv.mdmesh.mdmesh import InterfaceMap, MixedDimensionalMesh
from fracfv.tensors import tensor_field


@pytest.fixture()
def crossing_4():
    """The unit square at 4 x 4 with two crossing fractures: the matrix, the
    fractures and their point, in that order. Interface 0 joins the matrix to
    the first fracture; the matrix keeps two-sided faces off the fractures."""
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        fractures=[
            FracturePatch(0, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "vertical"),
            FracturePatch(1, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "horizontal"),
        ],
    )
    return build_cartesian_with_fractures(spec, 4)


def _grid(mesh):
    return copy.deepcopy(mesh.subdomains[0])


class TestValidateGrid:
    def test_intact_grid_passes(self, unit_square_4):
        validate_grid(_grid(unit_square_4))

    def test_no_cells(self, unit_square_4):
        g = _grid(unit_square_4)
        g.cell_centres = g.cell_centres[:0]
        with pytest.raises(MeshError, match="no cells"):
            validate_grid(g)

    def test_face_without_cells(self, unit_square_4):
        g = _grid(unit_square_4)
        g.face_cells[3] = -1
        with pytest.raises(MeshError, match="face 3 has 0 adjacent cells"):
            validate_grid(g)

    def test_face_with_three_cells(self, unit_square_4):
        g = _grid(unit_square_4)
        f = int(np.flatnonzero(~g.boundary_faces)[0])
        extra = np.full((g.n_faces, 1), -1)
        extra[f] = 0
        g.face_cells = np.hstack([g.face_cells, extra])
        with pytest.raises(MeshError, match=f"face {f} has 3 adjacent cells"):
            validate_grid(g)

    def test_non_unit_normal(self, unit_square_4):
        g = _grid(unit_square_4)
        g.face_normals[0] *= 2.0
        with pytest.raises(MeshError, match="unit vectors"):
            validate_grid(g)

    def test_non_positive_face_area(self, unit_square_4):
        g = _grid(unit_square_4)
        g.geometric_face_measures[0] = 0.0
        with pytest.raises(MeshError, match="non-positive face area"):
            validate_grid(g)

    def test_non_positive_cell_volume(self, unit_square_4):
        g = _grid(unit_square_4)
        g.geometric_cell_measures[0] = -1.0
        with pytest.raises(MeshError, match="non-positive cell volume"):
            validate_grid(g)

    def test_top_dimension_aperture_other_than_one(self, unit_square_4):
        g = _grid(unit_square_4)
        g.aperture = 0.5
        with pytest.raises(MeshError, match="unit aperture"):
            validate_grid(g)

    def test_open_cell(self, unit_square_4):
        g = _grid(unit_square_4)
        g.geometric_face_measures[0] *= 2.0
        with pytest.raises(MeshError, match="not geometrically closed"):
            validate_grid(g)


class TestValidateMesh:
    def test_intact_mesh_passes(self, crossing_4):
        copy.deepcopy(crossing_4).validate()

    def test_dimensions_not_descending(self, crossing_4):
        mesh = copy.deepcopy(crossing_4)
        with pytest.raises(MeshError, match="descending dimension"):
            MixedDimensionalMesh(mesh.subdomains[::-1]).validate()

    def test_dimension_gap(self, crossing_4):
        mesh = copy.deepcopy(crossing_4)
        point = mesh.subdomains_of_dim(0)[0]
        pairs = mesh.interfaces[0].face_cell_pairs.copy()
        pairs[:, 1] = 0
        mesh.interfaces[0] = InterfaceMap(0, point, pairs)
        with pytest.raises(MeshError, match="dimensions 2 and 0"):
            mesh.validate()

    def test_face_mapped_twice(self, crossing_4):
        mesh = copy.deepcopy(crossing_4)
        intf = mesh.interfaces[0]
        intf.face_cell_pairs = np.vstack([intf.face_cell_pairs, intf.face_cell_pairs[:1]])
        with pytest.raises(MeshError, match="more than one cell"):
            mesh.validate()

    def test_untagged_face(self, crossing_4):
        mesh = copy.deepcopy(crossing_4)
        intf = mesh.interfaces[0]
        mesh.subdomains[intf.higher].internal_boundary[intf.face_cell_pairs[0, 0]] = False
        with pytest.raises(MeshError, match="not tagged as internal boundary"):
            mesh.validate()

    def test_two_sided_face(self, crossing_4):
        mesh = copy.deepcopy(crossing_4)
        intf = mesh.interfaces[0]
        higher = mesh.subdomains[intf.higher]
        f = int(np.flatnonzero(~higher.boundary_faces)[0])
        higher.internal_boundary[f] = True
        intf.face_cell_pairs = np.vstack([intf.face_cell_pairs, [f, 0]])
        with pytest.raises(MeshError, match="two attached cells"):
            mesh.validate()


def _problem(mesh):
    return uniform_problem(mesh, [1.0] * len(mesh.subdomains), None)


class TestAssemblyRefusals:
    def test_two_sided_interface_face(self, crossing_4):
        mesh = copy.deepcopy(crossing_4)
        intf = mesh.interfaces[0]
        f = int(np.flatnonzero(~mesh.subdomains[intf.higher].boundary_faces)[0])
        intf.face_cell_pairs = np.vstack([intf.face_cell_pairs, [f, 0]])
        k = _problem(mesh).permeability
        with pytest.raises(AssemblyError, match=f"interface face {f} is not one-sided"):
            discretize_interface(mesh, 0, k[intf.higher], k[intf.lower])

    def test_one_discretization_per_subdomain(self, crossing_4):
        problem = _problem(crossing_4)
        grids = crossing_4.subdomains
        discs = [assemble_tpfa(g, k, bc) for g, k, bc in zip(grids, problem.permeability, problem.bcs)]
        with pytest.raises(AssemblyError, match="one discretization per subdomain"):
            assemble_global(crossing_4, discs[:-1], [], problem.bcs)

    def test_unknown_method(self, crossing_4):
        problem = _problem(crossing_4)
        problem.methods[0] = "fvem"
        with pytest.raises(AssemblyError, match="unknown discretization method 'fvem'"):
            problem.assemble()

    def test_physics_must_cover_every_subdomain(self, crossing_4):
        problem = _problem(crossing_4)
        with pytest.raises(AssemblyError, match="cover all subdomains"):
            FlowProblem(crossing_4, problem.permeability[:-1], problem.bcs)


class TestEliminationRefusals:
    @pytest.mark.parametrize("index", [-1, 3])
    def test_schur_index_out_of_range(self, index):
        a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        with pytest.raises(EliminationError, match="out of range"):
            schur_reduce_matrix(a, np.ones(3), [index])

    def test_back_substitution_needs_schur(self, crossing_4):
        system = _problem(crossing_4).assemble()
        star = star_delta_reduce(system)
        with pytest.raises(EliminationError, match="needs a Schur reduction"):
            back_substitute(star, np.zeros(star.kept.size))


class TestBoundaryConditionRefusals:
    def test_internal_face_cannot_carry_conditions(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        f = int(np.flatnonzero(~g.external_boundary)[0])
        with pytest.raises(BoundaryConditionError, match=f"faces \\[{f}\\] are not external"):
            flow_bc(g).set_dirichlet([f], 1.0)

    def test_incomplete_conditions(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        ext = np.flatnonzero(g.external_boundary)
        bc = transport_bc(g).set_dirichlet(ext[1:], 0.0)
        for assemble in (assemble_tpfa, assemble_mpfa):
            with pytest.raises(BoundaryConditionError, match=f"without conditions: \\[{ext[0]}\\]"):
                assemble(g, tensor_field(1.0, g.n_cells, 2), bc)
