"""Multipoint discretization: consistency, exactness, symmetry, error paths."""

import numpy as np
import pytest
import scipy.sparse as sps

from conftest import write_triangle_square_mesh
from test_face_table import loop_assemble_mpfa
from fracfv.errors import DiscretizationError, SingularLocalSystemError
from fracfv.fvdiscretize import assemble_mpfa, assemble_tpfa, default_eta, flow_bc
from fracfv.linsolve import direct_solve
from fracfv.mdmesh import (
    FractureNetworkSpec,
    FracturePatch,
    build_cartesian_with_fractures,
    load_mesh,
)
from fracfv.mdmesh.grids import SubdomainGrid
from fracfv.tensors import tensor_field


def _entrywise_gap(a, b):
    diff = abs((a - b))
    scale = max(abs(a).max(), abs(b).max())
    return (diff.max() if diff.nnz else 0.0) / scale


class TestAgreementWithTwoPoint:
    @pytest.mark.parametrize("dim,res", [(2, 4), (3, 3)])
    def test_diagonal_tensor_matches_tpfa(self, dim, res):
        mesh = build_cartesian_with_fractures(
            FractureNetworkSpec(domain=((0.0, 1.0),) * dim), res
        )
        g = mesh.subdomains[0]
        k = tensor_field(np.diag([2.0, 0.5, 1.25][:dim]), g.n_cells, dim)
        ext = np.flatnonzero(g.external_boundary)
        bc = flow_bc(g).set_dirichlet(ext[: ext.size // 2], lambda x: x[0] + 2.0)
        tp = assemble_tpfa(g, k, bc)
        mp = assemble_mpfa(g, k, bc, eta=0.0)
        assert _entrywise_gap(mp.matrix, tp.matrix) <= 1e-12
        assert np.abs(mp.flux_boundary - tp.flux_boundary).max() <= 1e-12 * max(
            1.0, np.abs(tp.flux_boundary).max()
        )

    def test_one_dimensional_grids_agree(self):
        mesh = build_cartesian_with_fractures(FractureNetworkSpec(domain=((0.0, 1.0),)), 5)
        g = mesh.subdomains[0]
        k = np.array([c * np.eye(1) for c in [1.0, 2.0, 4.0, 0.5, 3.0]])
        ext = np.flatnonzero(g.external_boundary)
        bc = flow_bc(g).set_dirichlet(ext, 1.0)
        tp = assemble_tpfa(g, k, bc)
        mp = assemble_mpfa(g, k, bc)
        assert _entrywise_gap(mp.matrix, tp.matrix) <= 1e-13


class TestLinearExactness:
    def test_full_tensor_on_cartesian(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        k = tensor_field(np.array([[2.0, 0.8], [0.8, 1.0]]), g.n_cells, 2)
        gradient = np.array([1.3, -0.7])
        bc = flow_bc(g).set_dirichlet(
            np.flatnonzero(g.external_boundary), lambda x: gradient @ x
        )
        disc = assemble_mpfa(g, k, bc)
        p = direct_solve(disc.matrix, disc.rhs)
        assert np.abs(p - g.cell_centres @ gradient).max() <= 1e-10

    def test_full_tensor_on_imported_simplex_mesh(self, tmp_path):
        path = tmp_path / "tri.txt"
        write_triangle_square_mesh(path, perturb=0.6)
        mesh = load_mesh(path)
        g = mesh.subdomains[0]
        assert default_eta(g) == pytest.approx(1.0 / 3.0)
        k = tensor_field(np.array([[3.0, 1.1], [1.1, 1.5]]), g.n_cells, 2)
        gradient = np.array([0.6, 1.9])
        bc = flow_bc(g).set_dirichlet(
            np.flatnonzero(g.external_boundary), lambda x: gradient @ x
        )
        disc = assemble_mpfa(g, k, bc)
        p = direct_solve(disc.matrix, disc.rhs)
        assert np.abs(p - g.cell_centres @ gradient).max() <= 1e-10

    def test_embedded_plane_full_tensor(self):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0),) * 3,
            fractures=[FracturePatch(2, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-3, 1.0, "f")],
        )
        mesh = build_cartesian_with_fractures(spec, 4)
        g = mesh.subdomains[1]
        k = tensor_field(
            np.array([[2.0, -0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]), g.n_cells, 3
        )
        gradient = np.array([0.4, -1.2, 0.0])
        bc = flow_bc(g).set_dirichlet(
            np.flatnonzero(g.external_boundary), lambda x: gradient @ x
        )
        disc = assemble_mpfa(g, k, bc)
        p = direct_solve(disc.matrix, disc.rhs)
        assert np.abs(p - g.cell_centres @ gradient).max() <= 1e-10


def test_constant_pressure_exactness(unit_square_4):
    g = unit_square_4.subdomains[0]
    k = tensor_field(np.array([[2.0, 0.7], [0.7, 1.5]]), g.n_cells, 2)
    disc = assemble_mpfa(g, k, flow_bc(g))
    fluxes = disc.flux_cell @ np.ones(g.n_cells)
    interior = ~g.boundary_faces
    scale = np.abs(disc.flux_cell.data).max()
    assert np.abs(fluxes[interior]).max() <= 1e-12 * scale
    assert disc.diagnostics["mpfa_regions"] == g.n_nodes
    assert np.isfinite(disc.diagnostics["mpfa_max_local_condition"])


class TestSymmetry:
    def test_rotational_symmetry_of_interior_patch(self):
        # 2x2 patch, unit tensor: the assembled operator commutes with the
        # quarter-turn permutation of the cells.
        mesh = build_cartesian_with_fractures(
            FractureNetworkSpec(domain=((0.0, 1.0), (0.0, 1.0))), 2
        )
        g = mesh.subdomains[0]
        bc = flow_bc(g).set_dirichlet(np.flatnonzero(g.external_boundary), 0.0)
        disc = assemble_mpfa(g, tensor_field(1.0, g.n_cells, 2), bc)
        a = disc.matrix.toarray()
        centres = g.cell_centres
        rotated = np.column_stack([1.0 - centres[:, 1], centres[:, 0]])
        perm = [int(np.argmin(np.linalg.norm(centres - r, axis=1))) for r in rotated]
        assert np.allclose(a, a[np.ix_(perm, perm)], atol=1e-14)

    def test_matrix_symmetric_on_uniform_grid(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        bc = flow_bc(g).set_dirichlet(np.flatnonzero(g.external_boundary), 1.0)
        disc = assemble_mpfa(g, tensor_field(1.0, g.n_cells, 2), bc)
        asym = abs(disc.matrix - disc.matrix.T)
        assert (asym.data.max() if asym.nnz else 0.0) <= 1e-10 * abs(disc.matrix).max()


class TestErrorPaths:
    def test_eta_range_validated(self, unit_square_4):
        g = unit_square_4.subdomains[0]
        k = tensor_field(1.0, g.n_cells, 2)
        with pytest.raises(DiscretizationError):
            assemble_mpfa(g, k, flow_bc(g), eta=1.0)

    def test_degenerate_region_names_node(self, unit_square_4):
        # Append a coincident copy of an interior face attached to one of its
        # cells: that cell sees three region faces at the shared nodes, which
        # no planar in-cell gradient can support.
        g = unit_square_4.subdomains[0]
        f = int(np.flatnonzero(~g.boundary_faces)[0])
        cell = int(g.face_cells[f, 0])
        cf = g.cell_faces.tocoo()
        n_faces = g.n_faces
        rows = np.concatenate([cf.row, [n_faces]])
        cols = np.concatenate([cf.col, [cell]])
        data = np.concatenate([cf.data, [1.0]])
        fn = g.face_nodes.tocsc()
        clone = SubdomainGrid(
            dim=g.dim,
            ambient_dim=g.ambient_dim,
            nodes=g.nodes,
            cell_centres=g.cell_centres,
            cell_volumes=g.cell_volumes,
            geometric_cell_measures=g.geometric_cell_measures,
            face_centres=np.vstack([g.face_centres, g.face_centres[f]]),
            face_normals=np.vstack([g.face_normals, g.face_normals[f]]),
            face_areas=np.concatenate([g.face_areas, [g.face_areas[f]]]),
            geometric_face_measures=np.concatenate(
                [g.geometric_face_measures, [g.geometric_face_measures[f]]]
            ),
            cell_faces=sps.csc_matrix((data, (rows, cols)), shape=(n_faces + 1, g.n_cells)),
            face_nodes=sps.hstack([fn, fn[:, [f]]], format="csc").astype(bool),
            cell_nodes=g.cell_nodes,
            apertures=g.apertures,
            internal_boundary=np.concatenate([g.internal_boundary, [True]]),
            kind=g.kind,
        )
        k = tensor_field(1.0, g.n_cells, 2)
        with pytest.raises(SingularLocalSystemError) as err:
            assemble_mpfa(clone, k, flow_bc(clone))
        with pytest.raises(SingularLocalSystemError) as oracle:
            loop_assemble_mpfa(clone, k, flow_bc(clone))
        assert err.value.node == oracle.value.node == min(fn[:, f].indices)
        assert str(err.value) == str(oracle.value)

    def test_nonplanar_subdomain_rejected(self):
        # Bend an embedded fracture grid out of plane; the scheme requires a
        # common affine hull for the in-cell gradients.
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0),) * 3,
            fractures=[FracturePatch(2, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-3, 1.0, "f")],
        )
        mesh = build_cartesian_with_fractures(spec, 4)
        g = mesh.subdomains[1]
        g.nodes = g.nodes.copy()
        g.nodes[0, 2] += 0.2
        k = tensor_field(1.0, g.n_cells, 3)
        with pytest.raises(DiscretizationError, match="planar"):
            assemble_mpfa(g, k, flow_bc(g))
