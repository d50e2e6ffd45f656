"""Multipoint discretization: consistency, exactness, symmetry, error paths,
and independence of the node chunks the regions are built in."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_kuhn_mesh, write_triangle_square_mesh
from test_face_table import loop_assemble_mpfa
from fracfv.errors import DiscretizationError, SingularLocalSystemError
from fracfv.fvdiscretize import assemble_mpfa, assemble_tpfa, default_eta, flow_bc
from fracfv.fvdiscretize.bc import BoundaryConditionSet
from fracfv.fvdiscretize import mpfa
from fracfv.fvdiscretize.mpfa import _signature_groups
from fracfv.harness.cases import case2_fine_reference
from fracfv.linsolve import direct_solve
from fracfv.mdmesh import (
    FractureNetworkSpec,
    FracturePatch,
    build_cartesian_with_fractures,
    load_mesh,
)
from fracfv.mdmesh.grids import SubdomainGrid
from fracfv.tensors import tensor_field


def _with_face_copies(g, faces):
    """The grid with a coincident copy of each given interior face, attached
    to the face's plus cell only. That cell then sees three region faces at
    the face's nodes, which no planar in-cell gradient can support."""
    faces = np.asarray(faces)
    fn = g.face_nodes.tocsc()
    return SubdomainGrid(
        dim=g.dim,
        ambient_dim=g.ambient_dim,
        nodes=g.nodes,
        cell_centres=g.cell_centres,
        geometric_cell_measures=g.geometric_cell_measures,
        face_centres=np.vstack([g.face_centres, g.face_centres[faces]]),
        face_normals=np.vstack([g.face_normals, g.face_normals[faces]]),
        geometric_face_measures=np.concatenate(
            [g.geometric_face_measures, g.geometric_face_measures[faces]]
        ),
        face_cells=np.vstack(
            [g.face_cells, np.column_stack([g.face_cells[faces, 0], np.full(faces.size, -1)])]
        ),
        face_nodes=sps.hstack([fn, fn[:, faces]], format="csc").astype(bool),
        cell_nodes=g.cell_nodes,
        aperture=g.aperture,
        internal_boundary=np.concatenate([g.internal_boundary, np.ones(faces.size, dtype=bool)]),
        kind=g.kind,
    )


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
        mp = assemble_mpfa(g, k, bc)
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


def test_face_sums_are_taken_in_node_order(tmp_path, monkeypatch):
    # Every entry of a face row is the sum of its sub-faces' slots, added one
    # by one in node order, bit for bit: each chunk adds the slots of its
    # sub-faces, node by node, then face by face, after the chunks before it.
    path = tmp_path / "kuhn.txt"
    write_kuhn_mesh(path, 4, 1)
    g = load_mesh(path).subdomains[0]
    k = tensor_field(np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.5]]), g.n_cells, 3)
    ext = np.flatnonzero(g.external_boundary)
    bc = flow_bc(g).set_dirichlet(ext[::2], lambda x: 0.25 + x @ [0.8, -1.4, 0.6])
    bc.set_neumann(ext[1::2], 0.7)
    chunks = []
    add_chunk = mpfa._add_chunk

    def record(flux_cell, flux_boundary, *chunk):
        pattern = (flux_cell.indptr.copy(), flux_cell.indices.copy())
        chunks.append((*pattern, *(a.copy() for a in chunk)))
        add_chunk(flux_cell, flux_boundary, *chunk)

    monkeypatch.setattr(mpfa, "_add_chunk", record)
    disc = assemble_mpfa(g, k, bc)
    node_faces = g.face_nodes.tocsr()
    node_faces.sort_indices()
    sub_face = np.concatenate([chunk[2] for chunk in chunks])
    assert np.array_equal(sub_face, node_faces.indices)  # node by node, then face
    # Each evaluated sub-face holds one slot per cell at its node, in turn.
    sub_node = np.repeat(np.arange(g.n_nodes), np.diff(node_faces.indptr))
    cells_at_node = np.diff(g.cell_nodes.tocsr().indptr)
    evaluated = np.all(g.face_cells >= 0, axis=1) | np.isin(np.arange(g.n_faces), ext[::2])
    slot_faces = np.repeat(sub_face, np.where(evaluated[sub_face], cells_at_node[sub_node], 0))
    sums, boundary, seen = {}, np.zeros(g.n_faces), []
    for indptr, indices, faces, slot_pos, slot_val, boundary_term in chunks:
        rows = np.searchsorted(indptr, slot_pos, side="right") - 1
        seen.append(rows)
        for f, c, value in zip(rows.tolist(), indices[slot_pos].tolist(), slot_val.tolist()):
            sums[f, c] = sums.get((f, c), 0.0) + value
        for f, term in zip(faces.tolist(), boundary_term.tolist()):
            boundary[f] += term
    assert np.array_equal(np.concatenate(seen), slot_faces)
    flux = disc.flux_cell.tocoo()
    assert disc.flux_cell.has_canonical_format
    assert dict(zip(zip(flux.row.tolist(), flux.col.tolist()), flux.data.tolist())) == {
        key: value for key, value in sums.items() if value != 0.0
    }
    assert np.array_equal(disc.flux_boundary, boundary)


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
    def test_degenerate_region_names_node(self, unit_square_4):
        # Append a coincident copy of an interior face attached to one of its
        # cells: that cell sees three region faces at the shared nodes, which
        # no planar in-cell gradient can support.
        g = unit_square_4.subdomains[0]
        f = int(np.flatnonzero(~g.boundary_faces)[0])
        fn = g.face_nodes.tocsc()
        clone = _with_face_copies(g, [f])
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


# ---------------------------------------------------------------------------
# Node chunks: the regions are built in chunks of consecutive nodes, sized by
# mpfa.BLOCK_ENTRIES // 8 sub-faces. No chunk size may change an output.
# ---------------------------------------------------------------------------

# Block budgets of one region per chunk, of 7 and 64 sub-faces per chunk,
# and of one chunk for any grid here.
CHUNK_BUDGETS = [8, 56, 512, 2**33]


def _chunk_problem(name, tmp_path):
    if name == "kuhn":  # the mesh and data of test_face_sums_are_taken_in_node_order
        path = tmp_path / "kuhn.txt"
        write_kuhn_mesh(path, 4, 1)
        g = load_mesh(path).subdomains[0]
        tensor = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.5]])
        k = tensor_field(tensor, g.n_cells, 3)
        ext = np.flatnonzero(g.external_boundary)
        bc = flow_bc(g).set_dirichlet(ext[::2], lambda x: 0.25 + x @ [0.8, -1.4, 0.6])
        return g, k, bc.set_neumann(ext[1::2], 0.7)
    if name == "strip":  # case 2's reference, with its thin fracture strip
        problem, _ = case2_fine_reference(16, 3.0)
        return problem.mesh.subdomains[0], problem.permeability[0], problem.bcs[0]
    # An embedded fracture plane, split along the line where a second crosses it.
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0),) * 3,
        fractures=[
            FracturePatch(2, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-3, 1.0, "f"),
            FracturePatch(0, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-3, 1.0, "g"),
        ],
    )
    g = build_cartesian_with_fractures(spec, 4).subdomains[1]
    assert g.dim == 2 and g.internal_boundary.any()
    tensor = np.array([[2.0, -0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    ext = np.flatnonzero(g.external_boundary)
    bc = flow_bc(g).set_dirichlet(ext[::2], lambda x: x @ [0.4, -1.2, 0.3])
    return g, tensor_field(tensor, g.n_cells, 3), bc.set_neumann(ext[1::2], -0.4)


def _bits(disc):
    flux = disc.flux_cell
    arrays = (flux.data, flux.indices, flux.indptr, disc.flux_boundary)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], disc.diagnostics


@pytest.mark.parametrize("name", ["kuhn", "strip", "plane"])
def test_chunk_size_changes_no_output(name, tmp_path, monkeypatch):
    g, k, bc = _chunk_problem(name, tmp_path)
    reference = _bits(assemble_mpfa(g, k, bc))
    corners = mpfa._corners
    chunks = []
    monkeypatch.setattr(mpfa, "_corners", lambda *args: chunks.append(1) or corners(*args))
    for entries in CHUNK_BUDGETS:
        monkeypatch.setattr(mpfa, "BLOCK_ENTRIES", entries)
        chunks.clear()
        assert _bits(assemble_mpfa(g, k, bc)) == reference, entries
        # _corners runs once per chunk on grids without degenerate corners.
        regions = reference[1]["mpfa_regions"]
        if entries == 8:
            assert len(chunks) == regions
        elif entries == 2**33:
            assert len(chunks) == 1
        else:
            assert 1 < len(chunks) < regions


@pytest.mark.parametrize("entries", CHUNK_BUDGETS)
def test_lowest_failing_node_is_raised_across_chunks(entries, monkeypatch):
    # Nodes are numbered with x slowest. A singular local system at the
    # nodes of a zero-permeability block at small x, and a cell with three
    # faces at a node at large x, which a whole-grid check finds before any
    # local system is solved. The lower node is raised, as a node-by-node
    # assembly raises it.
    square = FractureNetworkSpec(domain=((0.0, 1.0),) * 2)
    g = build_cartesian_with_fractures(square, 8).subdomains[0]
    top = np.flatnonzero(~g.boundary_faces & (g.face_centres[:, 0] > 0.8))[0]
    clone = _with_face_copies(g, [top])
    k = tensor_field(1.0, g.n_cells, 2)
    k[np.all(np.abs(g.cell_centres - [0.25, 0.5]) < 0.13, axis=1)] = 0.0
    with pytest.raises(SingularLocalSystemError) as oracle:
        loop_assemble_mpfa(clone, k, flow_bc(clone))
    monkeypatch.setattr(mpfa, "BLOCK_ENTRIES", entries)
    with pytest.raises(SingularLocalSystemError) as err:
        assemble_mpfa(clone, k, flow_bc(clone))
    assert err.value.node == oracle.value.node
    assert str(err.value) == str(oracle.value)
    assert str(err.value).startswith("singular local system")
    # More than two 64-sub-face chunks lie between the two faults.
    face_ptr = clone.face_nodes.tocsr().indptr
    first_top_node = g.face_nodes.tocsc()[:, top].indices.min()
    assert face_ptr[first_top_node] - face_ptr[err.value.node + 1] > 2 * 64


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(*[st.integers(0, 3) | st.integers(0, 5000)] * 3), min_size=0, max_size=40
    )
)
def test_signature_key_groups_as_unique_rows(rows):
    table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    signatures, group_of = _signature_groups(table)
    expected, inverse = np.unique(table, axis=0, return_inverse=True)
    assert np.array_equal(signatures, expected)
    assert np.array_equal(group_of, inverse.ravel())


def _traced(assemble):
    """The result of ``assemble()``, the traced memory it still holds and the
    traced peak while it ran, both above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = assemble()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - start, peak - start


def test_assembly_memory_is_bounded_by_its_result():
    # The regions are built chunk by chunk, so at 128 x 128 the traced peak
    # of the assembly stays below four times the traced size of its result
    # (measured at about 2.3 times; 2.6 with a sub-face matrix summed by a
    # sparse product, and a whole-grid build of the tables took about 6.4).
    square = FractureNetworkSpec(domain=((0.0, 1.0),) * 2)
    g = build_cartesian_with_fractures(square, 128).subdomains[0]
    k = tensor_field(np.array([[2.0, 0.8], [0.8, 1.0]]), g.n_cells, 2)
    ext = np.flatnonzero(g.external_boundary)
    bc = flow_bc(g).set_dirichlet(ext[::2], lambda x: 0.5 + x @ [1.3, -0.7])
    bc.set_neumann(ext[1::2], 0.2)
    disc, held, peak = _traced(lambda: assemble_mpfa(g, k, bc))
    assert disc.flux_cell.shape == (g.n_faces, g.n_cells)
    assert peak < 4.0 * held


def test_tetrahedral_assembly_memory_is_bounded_by_its_face_matrix(tmp_path):
    # The face rows are filled in place, so the traced peak on the perturbed
    # 3,072-tet Kuhn mesh is the 3.42 MiB face matrix plus tables of the
    # chunk and block being solved: 2.06 times the face matrix. A sub-face
    # matrix summed into the face rows by a sparse product took 2.48 times.
    path = tmp_path / "kuhn.txt"
    write_kuhn_mesh(path, 8, 2)
    g = load_mesh(path).subdomains[0]
    k = tensor_field(np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.5]]), g.n_cells, 3)
    ext = np.flatnonzero(g.external_boundary)
    bc = flow_bc(g).set_dirichlet(ext, lambda x: x @ [0.8, -1.4, 0.6])
    disc, _, peak = _traced(lambda: assemble_mpfa(g, k, bc))
    flux = disc.flux_cell
    assert peak < 2.25 * (flux.data.nbytes + flux.indices.nbytes + flux.indptr.nbytes)


def test_constant_boundary_data_is_read_as_an_array(unit_square_4, monkeypatch):
    # Only functional data is evaluated face by face, at the continuity points.
    g = unit_square_4.subdomains[0]
    k = tensor_field(np.array([[2.0, 0.7], [0.7, 1.5]]), g.n_cells, 2)
    ext = np.flatnonzero(g.external_boundary)
    calls = []
    value_at = BoundaryConditionSet.value_at
    monkeypatch.setattr(
        BoundaryConditionSet, "value_at", lambda *args: calls.append(args[1]) or value_at(*args)
    )
    assemble_mpfa(g, k, flow_bc(g).set_dirichlet(ext[::2], 1.5).set_neumann(ext[1::2], -0.3))
    assert calls == []
    bc = flow_bc(g).set_dirichlet(ext[::2], lambda x: x[0]).set_neumann(ext[1::2], -0.3)
    assemble_mpfa(g, k, bc)
    # Each Dirichlet face has one sub-face per node.
    assert sorted(set(calls)) == ext[::2].tolist() and len(calls) == 2 * ext[::2].size
