"""The face-neighbour table and the array kernels built on it.

The per-face loop versions of TPFA assembly, interface coupling, flux-graph
construction, upwind assembly and face-node ordering are kept here as
reference oracles. They read the signed incidence ``cell_faces`` row by row
and never the table, so they check the table too. So are the per-node loop
version of MPFA assembly, the tuple-key loop that matched face and cell
centres, and the per-pair Star-Delta loop that updated the kept block entry by
entry. The array versions must reproduce them on all six preset cases, on
a perturbed simplex mesh and on random fracture networks.
"""

import copy
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import write_triangle_square_mesh
from fracfv import coupling, transport
from fracfv.coupling import conservation_residual, uniform_problem
from fracfv.elimination import limit_equivalence_check, schur_reduce, star_delta_reduce
from fracfv.errors import (
    DegenerateGeometryError,
    DiscretizationError,
    EliminationError,
    InflowBoundaryError,
    MeshError,
    SingularLocalSystemError,
    UnsupportedSourceError,
)
from fracfv.fvdiscretize import DIRICHLET, NEUMANN, assemble_mpfa, flow_bc, transport_bc
from fracfv.fvdiscretize.mpfa import _plane_basis, default_eta
from fracfv.harness import cases
from fracfv.harness.cases import CaseSpec, run_case
from fracfv.linsolve import direct_solve
from fracfv.mdmesh import FractureNetworkSpec, FracturePatch, build_cartesian_with_fractures, load_mesh
from fracfv.mdmesh import cartesian
from fracfv.mdmesh.grids import face_cells_of
from fracfv.mdmesh.meshio import _ordered_face_nodes
from fracfv.tensors import PermeabilityTensor, tensor_field

# ---------------------------------------------------------------------------
# Reference oracles: the per-face loops the array code replaced
# ---------------------------------------------------------------------------


def _rows(grid):
    """Per face: its cells and their signs, from the incidence matrix."""
    csr = grid.cell_faces.tocsr()
    for f in range(grid.n_faces):
        sl = slice(csr.indptr[f], csr.indptr[f + 1])
        yield f, csr.indices[sl], csr.data[sl]


def loop_half_transmissibility(face_area, normal_out, distance, k_matrix):
    dd = float(distance @ distance)
    if dd == 0.0:
        raise DegenerateGeometryError("zero distance vector between cell and face centre")
    return float(face_area * (normal_out @ k_matrix @ distance) / dd)


def loop_face_transmissibility(alpha_i, alpha_j):
    s = alpha_i + alpha_j
    if s == 0.0:
        return 0.0
    return alpha_i * alpha_j / s


def loop_assemble_tpfa(grid, permeability, bc):
    n_faces, n_cells = grid.n_faces, grid.n_cells
    rows, cols, vals = [], [], []
    flux_boundary = np.zeros(n_faces)
    negative_half = negative_face = blocking = 0
    for f, cells, sgns in _rows(grid):
        if grid.internal_boundary[f]:
            continue
        alphas = []
        for c, s in zip(cells, sgns):
            alpha = loop_half_transmissibility(
                grid.face_areas[f],
                s * grid.face_normals[f],
                grid.face_centres[f] - grid.cell_centres[c],
                permeability[c],
            )
            negative_half += alpha < 0
            alphas.append(alpha)
        if len(cells) == 2:
            t = loop_face_transmissibility(alphas[0], alphas[1])
            negative_face += t < 0
            blocking += alphas[0] + alphas[1] == 0.0 and not (alphas[0] == 0 and alphas[1] == 0)
            (c_a, s_a), (c_b, s_b) = zip(cells, sgns)
            c_plus, c_minus = (c_a, c_b) if s_a > 0 else (c_b, c_a)
            rows += [f, f]
            cols += [c_plus, c_minus]
            vals += [t, -t]
        else:
            c, s = int(cells[0]), float(sgns[0])
            if bc.kind[f] == DIRICHLET:
                rows.append(f)
                cols.append(c)
                vals.append(s * alphas[0])
                flux_boundary[f] = -s * alphas[0] * bc.value_at(f)
            elif bc.kind[f] == NEUMANN:
                flux_boundary[f] = s * bc.value_at(f) * grid.face_areas[f]
    flux_cell = sps.csr_matrix((vals, (rows, cols)), shape=(n_faces, n_cells))
    diagnostics = {
        "negative_half_transmissibilities": int(negative_half),
        "negative_face_transmissibilities": int(negative_face),
        "blocking_faces": int(blocking),
    }
    return flux_cell, flux_boundary, diagnostics


def loop_assemble_mpfa(grid, permeability, bc, eta=None):
    """The node-by-node MPFA assembly: one local system per node."""
    bc.validate_complete()
    if eta is None:
        eta = default_eta(grid)
    if not 0.0 <= eta < 1.0:
        raise DiscretizationError(f"eta must lie in [0, 1), got {eta}")
    n_faces, n_cells = grid.n_faces, grid.n_cells
    if n_faces == 0:
        diagnostics = {"mpfa_regions": 0, "mpfa_max_local_condition": 0.0}
        return sps.csr_matrix((0, n_cells)), np.zeros(0), diagnostics

    basis = _plane_basis(grid)
    d = grid.dim
    face_cells = grid.face_cells
    fn_csr = grid.face_nodes_csr  # rows: nodes
    nodes_per_face = np.asarray(grid.face_nodes.sum(axis=0)).ravel().astype(int)

    faces_of_cell = grid.cell_faces.tocsc()
    two_sided = np.all(face_cells >= 0, axis=1)
    one_cell, one_sign = grid.one_sided_cells(np.arange(n_faces))
    rows_out, cols_out, vals_out = [], [], []
    flux_boundary = np.zeros(n_faces)
    max_condition = 0.0
    n_regions = 0

    for node in range(grid.n_nodes):
        sub_faces = np.sort(fn_csr.indices[fn_csr.indptr[node] : fn_csr.indptr[node + 1]])
        if sub_faces.size == 0:
            continue
        n_regions += 1
        local_of_face = {int(f): i for i, f in enumerate(sub_faces)}

        adjacent = face_cells[sub_faces]
        cells = np.unique(adjacent[adjacent >= 0])
        local_of_cell = {int(c): i for i, c in enumerate(cells)}
        n_loc = cells.size

        x_node = grid.nodes[node]
        cont_points = (1.0 - eta) * grid.face_centres[sub_faces] + eta * x_node
        sub_area = grid.face_areas[sub_faces] / nodes_per_face[sub_faces]

        # Per cell: faces of this region at the node, gradient inversion and
        # the flux coefficient rows q^T G^{-1}.
        cell_face_list: list[np.ndarray] = []
        cell_rows: list[np.ndarray] = []
        for c in cells:
            c_faces = faces_of_cell.indices[faces_of_cell.indptr[c] : faces_of_cell.indptr[c + 1]]
            mine = np.sort(np.array([f for f in c_faces if f in local_of_face], dtype=int))
            if mine.size != d:
                raise SingularLocalSystemError(
                    node,
                    f"cell {c} has {mine.size} faces at node {node}, expected {d}",
                )
            loc = np.array([local_of_face[int(f)] for f in mine])
            g_mat = (cont_points[loc] - grid.cell_centres[c]) @ basis.T
            try:
                h_mat = np.linalg.inv(g_mat)
            except np.linalg.LinAlgError as exc:
                raise SingularLocalSystemError(node, f"degenerate region at node {node}") from exc
            q = -(sub_area[loc, None] * (basis @ permeability[c] @ grid.face_normals[mine].T).T)
            cell_face_list.append(loc)
            cell_rows.append(q @ h_mat)  # rows: coefficients over cont. points of S(c)

        # Classify sub-faces and number the unknowns.
        kind = np.empty(sub_faces.size, dtype=int)  # 0 interior, 1 neumann, 2 dirichlet
        unknown_of = np.full(sub_faces.size, -1, dtype=int)
        n_unknown = 0
        for i, f in enumerate(sub_faces):
            if two_sided[f]:
                kind[i] = 0
            elif grid.internal_boundary[f] or bc.kind[f] == NEUMANN:
                kind[i] = 1
            elif bc.kind[f] == DIRICHLET:
                kind[i] = 2
            else:
                raise DiscretizationError(f"face {f} lacks a usable boundary condition")
            if kind[i] in (0, 1):
                unknown_of[i] = n_unknown
                n_unknown += 1

        dirichlet_value = np.zeros(sub_faces.size)
        neumann_flux = np.zeros(sub_faces.size)
        for i, f in enumerate(sub_faces):
            if kind[i] == 2:
                dirichlet_value[i] = bc.value_at(int(f), cont_points[i])
            elif kind[i] == 1 and not grid.internal_boundary[f]:
                neumann_flux[i] = bc.value_at(int(f)) * sub_area[i]

        m_mat = np.zeros((n_unknown, n_unknown))
        p_mat = np.zeros((n_unknown, n_loc))
        const = np.zeros(n_unknown)

        def add_flux_expression(eq: int, ci: int, sign: float, i_sub: int):
            """Add sign * (flux from cell ci across sub-face i_sub) to equation eq."""
            loc = cell_face_list[ci]
            row = cell_rows[ci][np.flatnonzero(loc == i_sub)[0]]
            for j, s_other in enumerate(loc):
                coeff = sign * row[j]
                if unknown_of[s_other] >= 0:
                    m_mat[eq, unknown_of[s_other]] += coeff
                else:
                    const[eq] -= coeff * dirichlet_value[s_other]
            p_mat[eq, ci] += sign * row.sum()

        for i, f in enumerate(sub_faces):
            if kind[i] == 0:
                c_plus, c_minus = face_cells[f]
                eq = unknown_of[i]
                add_flux_expression(eq, local_of_cell[int(c_plus)], 1.0, i)
                add_flux_expression(eq, local_of_cell[int(c_minus)], -1.0, i)
            elif kind[i] == 1:
                eq = unknown_of[i]
                add_flux_expression(eq, local_of_cell[int(one_cell[f])], one_sign[f], i)
                const[eq] += neumann_flux[i]

        if n_unknown:
            cond = np.linalg.cond(m_mat)
            max_condition = max(max_condition, cond)
            scale = np.abs(m_mat).max()
            if not np.isfinite(cond) or (scale > 0 and 1.0 / cond < 1e-12):
                raise SingularLocalSystemError(node, f"singular local system at node {node}")
            try:
                solved = np.linalg.solve(m_mat, np.hstack([p_mat, const[:, None]]))
            except np.linalg.LinAlgError as exc:
                raise SingularLocalSystemError(node, f"singular local system at node {node}") from exc
            u_cells, u_const = solved[:, :-1], solved[:, -1]
        else:
            u_cells = np.zeros((0, n_loc))
            u_const = np.zeros(0)

        # Sub-face fluxes along the stored normal, evaluated from one side.
        for i, f in enumerate(sub_faces):
            if kind[i] == 1:
                flux_boundary[f] += one_sign[f] * neumann_flux[i]
                continue
            ci = local_of_cell[int(one_cell[f])]
            loc = cell_face_list[ci]
            row = cell_rows[ci][np.flatnonzero(loc == i)[0]]
            cell_coeffs = np.zeros(n_loc)
            const_term = 0.0
            for j, s_other in enumerate(loc):
                if unknown_of[s_other] >= 0:
                    cell_coeffs += row[j] * u_cells[unknown_of[s_other]]
                    const_term += row[j] * u_const[unknown_of[s_other]]
                else:
                    const_term += row[j] * dirichlet_value[s_other]
            cell_coeffs[ci] -= row.sum()
            for j in range(n_loc):
                if cell_coeffs[j] != 0.0:
                    rows_out.append(f)
                    cols_out.append(int(cells[j]))
                    vals_out.append(cell_coeffs[j])
            flux_boundary[f] += const_term

    flux_cell = sps.csr_matrix((vals_out, (rows_out, cols_out)), shape=(n_faces, n_cells))
    flux_cell.sum_duplicates()
    diagnostics = {
        "mpfa_regions": n_regions,
        "mpfa_max_local_condition": float(max_condition),
        "eta": eta,
    }
    return flux_cell, flux_boundary, diagnostics


def loop_interface_transmissibility(
    face_area, normal_out, distance, k_higher, aperture, k_lower, lower_dim, distance_correction
):
    if distance_correction:
        dist_norm = float(np.linalg.norm(distance))
        distance = distance * (1.0 - aperture / (2.0 * dist_norm))
    alpha_higher = loop_half_transmissibility(face_area, normal_out, distance, k_higher)
    if lower_dim == 0:
        kappa = float(np.trace(k_lower)) / k_lower.shape[0]
    else:
        kappa = float(normal_out @ k_lower @ normal_out)
    alpha_lower = kappa / (aperture / 2.0) * face_area
    return loop_face_transmissibility(alpha_higher, alpha_lower), alpha_higher, alpha_lower


def loop_discretize_interface(mesh, index, k_higher, k_lower, distance_correction=False):
    intf = mesh.interfaces[index]
    hi, lo = mesh.subdomains[intf.higher], mesh.subdomains[intf.lower]
    csr = hi.cell_faces.tocsr()
    out = []
    for f, c_low in intf.face_cell_pairs:
        cells = csr.indices[csr.indptr[f] : csr.indptr[f + 1]]
        sgns = csr.data[csr.indptr[f] : csr.indptr[f + 1]]
        assert cells.size == 1
        c_hi, sign = int(cells[0]), float(sgns[0])
        out.append((c_hi, *loop_interface_transmissibility(
            float(hi.face_areas[f]),
            sign * hi.face_normals[f],
            hi.face_centres[f] - hi.cell_centres[c_hi],
            k_higher[c_hi],
            float(lo.apertures[c_low]),
            k_lower[c_low],
            lo.dim,
            distance_correction,
        )))
    return np.array(out).reshape(-1, 4)


def loop_flux_graph_from_system(system, p):
    mesh = system.mesh
    conn_i, conn_j, conn_q, boundary = [], [], [], []
    for sd, disc in enumerate(system.discs):
        grid = mesh.subdomains[sd]
        fluxes = disc.flux_cell @ p[mesh.subdomain_slice(sd)] + disc.flux_boundary
        offset = mesh.dof_offset(sd)
        for f, cells, sgns in _rows(grid):
            if cells.size == 2:
                conn_i.append(offset + cells[np.flatnonzero(sgns > 0)[0]])
                conn_j.append(offset + cells[np.flatnonzero(sgns < 0)[0]])
                conn_q.append(fluxes[f])
            elif not grid.internal_boundary[f]:
                boundary.append((sd, f, offset + int(cells[0]), float(sgns[0]) * fluxes[f]))
    for c in system.couplings:
        flux = -c.transmissibility * (p[c.lower_dofs] - p[c.higher_dofs])
        conn_i.extend(c.higher_dofs.tolist())
        conn_j.extend(c.lower_dofs.tolist())
        conn_q.extend(flux.tolist())
    return (np.array(conn_i, dtype=int), np.array(conn_j, dtype=int), np.array(conn_q)), boundary


def loop_flux_graph_boundary_from_reduced(reduced, p_kept):
    system = reduced.system
    mesh = system.mesh
    kept_local = -np.ones(mesh.n_dofs, dtype=int)
    kept_local[reduced.kept] = np.arange(reduced.kept.size)
    boundary = []
    for sd, disc in enumerate(system.discs):
        grid = mesh.subdomains[sd]
        locs = kept_local[np.arange(mesh.dof_offset(sd), mesh.dof_offset(sd) + grid.n_cells)]
        if np.any(locs < 0):
            continue
        fluxes = disc.flux_cell @ p_kept[locs] + disc.flux_boundary
        for f, cells, sgns in _rows(grid):
            if cells.size == 1 and not grid.internal_boundary[f]:
                boundary.append((sd, f, int(locs[cells[0]]), float(sgns[0]) * fluxes[f]))
    return boundary


def loop_upwind_operator(graph, transport_bcs):
    n = graph.n_cells
    rows, cols, vals = [], [], []
    inflow = np.zeros(n)
    for i, j, q in zip(*graph.connections):
        if q > 0.0:
            upstream = i
        elif q < 0.0:
            upstream = j
        else:
            continue
        rows += [i, j]
        cols += [upstream, upstream]
        vals += [q, -q]
    for sd, f, cell, q_out in zip(*graph.boundary):
        bc = transport_bcs[sd]
        kind = bc.kind[f]
        if kind == NEUMANN:
            inflow[cell] -= bc.value_at(f) * bc.grid.face_areas[f]
        elif q_out > 0.0:
            rows.append(cell)
            cols.append(cell)
            vals.append(q_out)
        elif q_out < 0.0:
            if kind == DIRICHLET:
                inflow[cell] += -q_out * bc.value_at(f)
            else:
                raise InflowBoundaryError(f"inflow face {f} of subdomain {sd}")
    operator = sps.csr_matrix((vals, (rows, cols)), shape=(n, n))
    operator.sum_duplicates()
    return operator, inflow


def loop_match_centres(candidates, targets, tol):
    if len(candidates) == 0 or len(targets) == 0:
        return []
    quantum = max(tol, 1e-300)

    def keys(arr):
        return [tuple(int(v) for v in np.rint(row / quantum)) for row in arr]

    lookup = {}
    for j, key in enumerate(keys(targets)):
        lookup[key] = j
    pairs = []
    for i, key in enumerate(keys(candidates)):
        j = lookup.get(key)
        if j is not None and np.linalg.norm(candidates[i] - targets[j]) <= tol:
            pairs.append((i, j))
    return pairs


def loop_ordered_face_nodes(grid, face):
    fn = grid.face_nodes.tocsc()
    node_list = list(fn.indices[fn.indptr[face] : fn.indptr[face + 1]])
    if grid.dim < 3 or len(node_list) <= 3:
        return node_list
    shifted = grid.nodes[node_list] - grid.nodes[node_list].mean(axis=0)
    _, _, vt = np.linalg.svd(shifted, full_matrices=False)
    order = np.argsort(np.arctan2(shifted @ vt[1], shifted @ vt[0]))
    return [node_list[i] for i in order]


def loop_star_delta_reduce(system, eliminated=None):
    """Star-Delta by a per-pair loop over each star's branches, with LIL
    updates of the kept block: (matrix, kept, eliminated)."""
    mesh = system.mesh
    if eliminated is None:
        eliminated = mesh.intersection_dofs()
    else:
        eliminated = np.asarray(eliminated, dtype=int)
        allowed = set(mesh.intersection_dofs().tolist())
        outside = [d for d in eliminated.tolist() if d not in allowed]
        if outside:
            raise EliminationError(f"dofs {outside} are not intersection cells")
    eliminated = np.unique(eliminated)
    n = system.matrix.shape[0]
    elim_mask = np.zeros(n, dtype=bool)
    elim_mask[eliminated] = True
    if np.any(system.rhs[eliminated] != 0.0):
        bad = eliminated[system.rhs[eliminated] != 0.0]
        raise UnsupportedSourceError(
            f"eliminated cells {bad.tolist()} carry sources or boundary data; "
            "the Star-Delta reduction has no cell to attach them to"
        )
    kept = np.flatnonzero(~elim_mask)
    kept_local = -np.ones(n, dtype=int)
    kept_local[kept] = np.arange(kept.size)
    elim_local = -np.ones(n, dtype=int)
    elim_local[eliminated] = np.arange(eliminated.size)

    branches = []
    bond_rows, bond_cols = [], []
    for c in system.couplings:
        for h, l, alpha, t in zip(c.higher_dofs, c.lower_dofs, c.alpha_higher, c.transmissibility):
            h_el, l_el = elim_mask[h], elim_mask[l]
            if l_el and not h_el:
                branches.append((int(l), int(h), float(alpha), float(t)))
            elif l_el and h_el:
                bond_rows.append(elim_local[h])
                bond_cols.append(elim_local[l])
            elif h_el and not l_el:
                raise EliminationError(
                    "coupling from an eliminated cell into a kept lower-dimensional cell"
                )
    bonds = sps.csr_matrix(
        (np.ones(len(bond_rows)), (bond_rows, bond_cols)),
        shape=(eliminated.size, eliminated.size),
    )
    n_comp, labels = connected_components(bonds, directed=False)
    a = sps.csr_matrix(system.matrix)
    a_kk = a[kept][:, kept].tolil()
    comp_branches = [[] for _ in range(n_comp)]
    for l_dof, h_dof, alpha, t in branches:
        comp_branches[labels[elim_local[l_dof]]].append((h_dof, alpha, t))
    for comp, blist in enumerate(comp_branches):
        if not blist:
            members = eliminated[labels == comp]
            raise EliminationError(
                f"eliminated cells {members.tolist()} have no branch connections"
            )
        alphas = np.array([alpha for _, alpha, _ in blist])
        total = alphas.sum()
        if total == 0.0:
            raise EliminationError("star with zero total branch conductance")
        locs = np.array([kept_local[h] for h, _, _ in blist])
        for i, (h, alpha, t) in enumerate(blist):
            a_kk[locs[i], locs[i]] -= t
            a_kk[locs[i], locs[i]] += alpha - alpha * alpha / total
            for j in range(i + 1, len(blist)):
                t_ij = alpha * alphas[j] / total
                a_kk[locs[i], locs[j]] -= t_ij
                a_kk[locs[j], locs[i]] -= t_ij
    return sps.csr_matrix(a_kk), kept, eliminated


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------

TOL = 1e-15


def _close(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    assert new.shape == old.shape
    scale = max(np.abs(old).max(initial=0.0), 1e-300)
    assert np.abs(new - old).max(initial=0.0) <= TOL * scale


def _close_sparse(new, old):
    assert new.shape == old.shape
    gap = abs(sps.csr_matrix(new) - sps.csr_matrix(old))
    scale = max(abs(old).max() if old.nnz else 0.0, 1e-300)
    assert (gap.max() if gap.nnz else 0.0) <= TOL * scale


def _check_tpfa(disc, grid, permeability, bc):
    flux_cell, flux_boundary, diagnostics = loop_assemble_tpfa(grid, permeability, bc)
    _close_sparse(disc.flux_cell, flux_cell)
    _close(disc.flux_boundary, flux_boundary)
    assert disc.diagnostics == diagnostics


MPFA_TOL = 1e-12


def _check_mpfa(disc, grid, permeability, bc, eta=None):
    flux_cell, flux_boundary, diagnostics = loop_assemble_mpfa(grid, permeability, bc, eta)
    new, old = sps.csr_matrix(disc.flux_cell), sps.csr_matrix(flux_cell)
    new.sort_indices()
    old.sort_indices()
    assert np.array_equal(new.indptr, old.indptr) and np.array_equal(new.indices, old.indices)
    scale = max(np.abs(old.data).max(initial=0.0), 1e-300)
    assert np.abs(new.data - old.data).max(initial=0.0) <= MPFA_TOL * scale
    scale = max(np.abs(flux_boundary).max(initial=0.0), 1e-300)
    assert np.abs(disc.flux_boundary - flux_boundary).max(initial=0.0) <= MPFA_TOL * scale
    assert disc.diagnostics["mpfa_regions"] == diagnostics["mpfa_regions"]
    assert disc.diagnostics["mpfa_max_local_condition"] == pytest.approx(
        diagnostics["mpfa_max_local_condition"], rel=1e-10
    )


def _check_interface(c, mesh, index, k_higher, k_lower, distance_correction=False):
    oracle = loop_discretize_interface(mesh, index, k_higher, k_lower, distance_correction)
    assert np.array_equal(c.higher_cells, oracle[:, 0].astype(int))
    _close(c.transmissibility, oracle[:, 1])
    _close(c.alpha_higher, oracle[:, 2])
    _close(c.alpha_lower, oracle[:, 3])


def _check_boundary(boundary, oracle):
    sd, faces, cells, q_out = boundary
    assert len(sd) == len(oracle)
    if oracle:
        o_sd, o_faces, o_cells, o_q = (np.array(column) for column in zip(*oracle))
        assert np.array_equal(sd, o_sd) and np.array_equal(faces, o_faces)
        assert np.array_equal(cells, o_cells)
        _close(q_out, o_q)


def _check_system_graph(graph, system, p):
    (ci, cj, cq), boundary = loop_flux_graph_from_system(system, p)
    assert np.array_equal(graph.connections[0], ci) and np.array_equal(graph.connections[1], cj)
    _close(graph.connections[2], cq)
    _check_boundary(graph.boundary, boundary)


def _check_reduced_graph(graph, reduced, p_kept):
    _check_boundary(graph.boundary, loop_flux_graph_boundary_from_reduced(reduced, p_kept))


def _check_match(pairs, candidates, targets, tol):
    assert pairs.shape == (pairs.shape[0], 2)
    assert [tuple(p) for p in pairs.tolist()] == loop_match_centres(candidates, targets, tol)


def _check_upwind(result, graph, transport_bcs):
    operator, inflow = loop_upwind_operator(graph, transport_bcs)
    _close_sparse(result[0], operator)
    _close(result[1], inflow)


STAR_DELTA_TOL = 1e-14


def _check_star_delta(reduced, system, eliminated=None):
    matrix, kept, elim = loop_star_delta_reduce(system, eliminated)
    assert np.array_equal(reduced.kept, kept) and np.array_equal(reduced.eliminated, elim)
    assert reduced.matrix.shape == matrix.shape
    gap = abs(reduced.matrix - matrix)
    scale = max(abs(matrix).max() if matrix.nnz else 0.0, 1e-300)
    assert (gap.max() if gap.nnz else 0.0) <= STAR_DELTA_TOL * scale


class Spies:
    """Wrap the array kernels where the case runners look them up and check
    every call against its oracle."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(
            ["match", "tpfa", "mpfa", "interface", "system", "reduced", "upwind", "star_delta"], 0
        )
        self._wrap(monkeypatch, cartesian, "match_centres", "match", _check_match)
        self._wrap(monkeypatch, coupling, "assemble_tpfa", "tpfa", _check_tpfa)
        self._wrap(monkeypatch, coupling, "assemble_mpfa", "mpfa", _check_mpfa)
        self._wrap(monkeypatch, coupling, "discretize_interface", "interface", _check_interface)
        self._wrap(monkeypatch, cases, "flux_graph_from_system", "system", _check_system_graph)
        self._wrap(monkeypatch, cases, "flux_graph_from_reduced", "reduced", _check_reduced_graph)
        self._wrap(monkeypatch, transport, "upwind_operator", "upwind", _check_upwind)
        self._wrap(monkeypatch, cases, "star_delta_reduce", "star_delta", _check_star_delta)

    def _wrap(self, monkeypatch, module, name, key, check):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            check(result, *args, **kwargs)
            self.calls[key] += 1
            return result

        monkeypatch.setattr(module, name, wrapper)


# ---------------------------------------------------------------------------
# Array kernels against the oracles
# ---------------------------------------------------------------------------

SMALL_CASES = [
    ("1.1", 4, {}),
    ("1.2-lite", 16, {"fine_resolution": 32}),
    ("1.3", 4, {"n_steps": 4}),
    ("2", None, {"ratio": 3.0, "fine_resolution": 32}),
    ("3", 4, {"n_steps": 4}),
    ("4", 8, {"n_steps": 4}),
]


@pytest.mark.parametrize("case,resolution,overrides", SMALL_CASES, ids=[c[0] for c in SMALL_CASES])
def test_cases_match_loop_oracles(monkeypatch, case, resolution, overrides):
    spies = Spies(monkeypatch)
    run_case(CaseSpec(case=case, resolution=resolution, overrides=overrides))
    assert spies.calls["interface"] > 0 and spies.calls["match"] > 0
    if case != "2":  # case 2 discretizes every subdomain by MPFA
        assert spies.calls["tpfa"] > 0
    if case in ("2", "3"):
        assert spies.calls["mpfa"] > 0
    if case in ("1.3", "3", "4"):
        assert spies.calls["system"] > 0 and spies.calls["upwind"] > 0
    if case in ("1.3", "4"):
        assert spies.calls["reduced"] > 0
    if case in ("1.1", "1.2-lite", "1.3"):
        assert spies.calls["star_delta"] > 0


def test_perturbed_simplex_mesh_matches_loop_oracles(tmp_path):
    path = tmp_path / "triangles.txt"
    write_triangle_square_mesh(path, perturb=0.6)
    mesh = load_mesh(path)
    g = mesh.subdomains[0]
    # Strong anisotropy across the skewed cells gives negative half
    # transmissibilities, which the diagnostics count.
    k = tensor_field(PermeabilityTensor.rotated([100.0, 0.01], 60.0), g.n_cells, 2)
    ext = np.flatnonzero(g.external_boundary)
    left = ext[g.face_centres[ext, 0] < 1e-12]
    right = ext[g.face_centres[ext, 0] > 1.0 - 1e-12]
    bottom = ext[g.face_centres[ext, 1] < 1e-12]

    def flow(sd, grid):
        bc = flow_bc(grid).set_dirichlet(left, lambda x: 1.0 + 0.3 * x[1])
        return bc.set_dirichlet(right, 0.0).set_neumann(bottom, 0.25)

    system = uniform_problem(mesh, [k], flow).assemble()
    _check_tpfa(system.discs[0], g, k, system.bcs[0])
    assert system.discs[0].diagnostics["negative_half_transmissibilities"] > 0

    p = direct_solve(system.matrix, system.rhs)
    graph = transport.flux_graph_from_system(system, p)
    _check_system_graph(graph, system, p)
    tracer = transport_bc(g).set_dirichlet(ext, lambda x: x[0]).set_neumann(bottom, -0.5)
    _check_upwind(transport.upwind_operator(graph, [tracer]), graph, [tracer])

    system = uniform_problem(mesh, [k], flow, methods=["mpfa"]).assemble()
    _check_mpfa(system.discs[0], g, k, system.bcs[0])
    p = direct_solve(system.matrix, system.rhs)
    _check_system_graph(transport.flux_graph_from_system(system, p), system, p)


def _raised(fn, *args):
    with pytest.raises(DiscretizationError) as err:
        fn(*args)
    return err.value


def test_mpfa_failures_match_loop_oracle(unit_square_4):
    # Each broken input must fail at the node, with the type and message,
    # that the node-by-node assembly reports. Zero permeability around the
    # centre node leaves its local system singular; a cell centre on the
    # line through two of its face centres makes that corner's gradient
    # matrix singular. Combined, the lower-numbered node must win.
    g = unit_square_4.subdomains[0]
    k = tensor_field(np.array([[2.0, 0.5], [0.5, 1.0]]), g.n_cells, 2)
    blocked = k.copy()
    blocked[[5, 6, 9, 10]] = 0.0

    def moved(cell):
        grid = copy.deepcopy(g)
        grid.cell_centres = grid.cell_centres.copy()
        faces = np.flatnonzero(grid.face_cells[:, 0] == cell)
        grid.cell_centres[cell] = grid.face_centres[faces].mean(axis=0)
        return grid

    broken = [(g, blocked), (g, np.zeros_like(k)), (moved(0), k), (moved(6), k)]
    broken += [(moved(0), blocked), (moved(10), blocked)]
    named = []
    for grid, perm in broken:
        bc = flow_bc(grid).set_dirichlet(np.flatnonzero(grid.external_boundary), 1.0)
        new = _raised(assemble_mpfa, grid, perm, bc)
        old = _raised(loop_assemble_mpfa, grid, perm, bc)
        assert type(new) is type(old) and str(new) == str(old)
        assert isinstance(new, SingularLocalSystemError) and new.node == old.node
        named.append((new.node, str(new).split(" at")[0]))
    singular, degenerate = "singular local system", "degenerate region"
    assert named == [
        (7, singular), (1, singular), (6, degenerate),
        (13, degenerate), (6, degenerate), (7, singular),
    ]


def test_distance_corrected_interfaces_match_loop_oracle():
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
        fractures=[
            FracturePatch(0, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-2, 10.0, "a"),
            FracturePatch(1, 0.5, ((0.25, 0.75), (0.0, 1.0)), 2e-2, 0.1, "b"),
        ],
    )
    mesh = build_cartesian_with_fractures(spec, 4)
    rng = np.random.default_rng(3)
    perms = []
    for g in mesh.subdomains:
        a = rng.random((g.n_cells, 3, 3))
        perms.append(np.einsum("cij,ckj->cik", a, a) + np.eye(3))
    for index, intf in enumerate(mesh.interfaces):
        c = coupling.discretize_interface(
            mesh, index, perms[intf.higher], perms[intf.lower], distance_correction=True
        )
        _check_interface(c, mesh, index, perms[intf.higher], perms[intf.lower], True)


def test_table_derivation():
    # Faces: one interior (cells 0+, 1-), one with only a minus side, one empty.
    incidence = sps.csc_matrix(np.array([[1.0, -1.0], [0.0, -1.0], [0.0, 0.0]]))
    assert face_cells_of(incidence).tolist() == [[0, 1], [-1, 1], [-1, -1]]
    with pytest.raises(MeshError, match="face 1"):
        face_cells_of(sps.csc_matrix(np.array([[1.0, -1.0], [1.0, 1.0]])))


@pytest.mark.parametrize("build", [lambda: cases.case13_problem(4)[1], lambda: cases.case4_problem(8)[1]])
def test_ordered_face_nodes_match_loop(build):
    for grid in build().subdomains:
        ordered = _ordered_face_nodes(grid)
        assert [list(row) for row in ordered] == [
            loop_ordered_face_nodes(grid, f) for f in range(grid.n_faces)
        ]


# ---------------------------------------------------------------------------
# Random axis-aligned networks
# ---------------------------------------------------------------------------


@st.composite
def networks(draw):
    dim = draw(st.sampled_from([2, 3]))
    res = 4
    planes = draw(
        st.lists(
            st.tuples(st.integers(0, dim - 1), st.integers(1, res - 1)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    patches = []
    for n, (axis, index) in enumerate(planes):
        extents = []
        for _ in range(dim - 1):
            lo = draw(st.integers(0, res - 1))
            hi = draw(st.integers(lo + 1, res))
            extents.append((lo / res, hi / res))
        aperture = draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
        permeability = 10.0 ** draw(st.integers(-4, 4))
        patches.append(FracturePatch(axis, index / res, tuple(extents), aperture, permeability, f"p{n}"))
    matrix_k = np.diag([10.0 ** draw(st.integers(-1, 1)) for _ in range(dim)])
    spec = FractureNetworkSpec(domain=((0.0, 1.0),) * dim, fractures=patches)
    return _build_against_loop_matching(spec, res), matrix_k


GRID_ARRAYS = [
    "nodes", "cell_centres", "cell_volumes", "face_centres", "face_normals", "face_areas",
    "apertures", "internal_boundary", "face_cells", "cell_faces", "face_nodes", "cell_nodes",
]


def _build_against_loop_matching(spec, res):
    """Build a network mesh, and check that it equals, bit for bit, the mesh
    built with the tuple-key matching loop."""
    mesh = build_cartesian_with_fractures(spec, res)

    def loop(*args):
        return np.array(loop_match_centres(*args), dtype=int).reshape(-1, 2)

    with mock.patch.object(cartesian, "match_centres", loop):
        oracle = build_cartesian_with_fractures(spec, res)
    assert len(mesh.subdomains) == len(oracle.subdomains)
    for g, o in zip(mesh.subdomains, oracle.subdomains):
        for name in GRID_ARRAYS:
            a, b = getattr(g, name), getattr(o, name)
            if sps.issparse(a):
                a, b = a.tocoo(), b.tocoo()
                assert np.array_equal(a.row, b.row) and np.array_equal(a.col, b.col)
                a, b = a.data, b.data
            assert np.array_equal(a, b), name
    assert len(mesh.interfaces) == len(oracle.interfaces)
    for i, o in zip(mesh.interfaces, oracle.interfaces):
        assert (i.higher, i.lower) == (o.higher, o.lower)
        assert np.array_equal(i.face_cell_pairs, o.face_cell_pairs)
    return mesh


def _x_dirichlet(sd, grid):
    ext = np.flatnonzero(grid.external_boundary)
    bc = flow_bc(grid)
    for value, pressure in ((0.0, 1.0), (1.0, 0.0)):
        faces = ext[np.abs(grid.face_centres[ext, 0] - value) < 1e-12]
        if faces.size:
            bc.set_dirichlet(faces, pressure)
    return bc


@settings(max_examples=30, deadline=None, derandomize=True)
@given(networks())
def test_random_networks(network):
    mesh, matrix_k = network
    for g in mesh.subdomains:
        cf = g.cell_faces.tocoo()
        plus, minus = cf.data > 0, cf.data < 0
        assert np.array_equal(g.face_cells[cf.row[plus], 0], cf.col[plus])
        assert np.array_equal(g.face_cells[cf.row[minus], 1], cf.col[minus])
        assert np.count_nonzero(g.face_cells >= 0) == cf.nnz
    perms = [matrix_k] + [g.metadata["permeability"] for g in mesh.subdomains[1:]]
    system = uniform_problem(mesh, perms, _x_dirichlet).assemble()

    a = system.matrix
    asym = abs(a - a.T)
    assert (asym.max() if asym.nnz else 0.0) <= 1e-15 * abs(a).max()

    p = direct_solve(a, system.rhs)
    assert conservation_residual(system, p) <= 1e-12
    reduced = schur_reduce(system)
    p_kept = direct_solve(reduced.matrix, reduced.rhs)
    assert np.abs(p_kept - p[reduced.kept]).max() <= 1e-10 * np.abs(p).max()

    # Boundary data on an intersection cell makes both Star-Delta versions
    # refuse the system, with the same message.
    try:
        star = star_delta_reduce(system)
    except EliminationError as err:
        with pytest.raises(type(err)) as oracle_err:
            loop_star_delta_reduce(system)
        assert str(oracle_err.value) == str(err)
    else:
        _check_star_delta(star, system)


def _matrix_dirichlet(sd, grid):
    """Dirichlet pressure on the matrix's x faces only: no eliminated cell
    carries boundary data."""
    return _x_dirichlet(sd, grid) if sd == 0 else None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(networks())
def test_random_networks_star_delta_is_schur_limit(network):
    """Schur-reduced systems approach the Star-Delta one as the intersection
    permeability grows. Star-Delta drops the tangential connections inside
    eliminated subdomains, so it is the limit only where eliminated cells
    have none: points, and lines of one cell."""
    mesh, matrix_k = network
    perms = [matrix_k] + [g.metadata["permeability"] for g in mesh.subdomains[1:]]
    problem = uniform_problem(mesh, perms, _matrix_dirichlet)
    eliminated = mesh.intersection_dofs()
    a_ee = problem.assemble().matrix[eliminated][:, eliminated].tocoo()
    dims = mesh.dof_dims()[eliminated]
    tangential = (a_ee.row != a_ee.col) & (dims[a_ee.row] == dims[a_ee.col])
    assume(eliminated.size > 0 and not np.any(tangential))

    # Each hundredfold boost cuts the deviations at least tenfold, until they
    # reach round-off.
    sweep = limit_equivalence_check(problem, None, [1e2, 1e4, 1e6])["sweep"]
    for key in ("relative_matrix_deviation", "relative_pressure_difference"):
        deviations = [entry[key] for entry in sweep]
        for earlier, later in zip(deviations, deviations[1:]):
            assert later < earlier / 10 or later <= 1e-13, (key, deviations)


def _spd_tensors(draw, n_cells, ambient):
    """One random SPD tensor R diag(values) R^T per cell, with eigenvalues
    spread over four decades and random principal axes."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_cells, ambient, ambient))
    rotation, _ = np.linalg.qr(a)
    values = 10.0 ** rng.uniform(-2.0, 2.0, (n_cells, ambient))
    return np.einsum("cij,cj,ckj->cik", rotation, values, rotation)


@st.composite
def mpfa_networks(draw):
    mesh, _ = draw(networks())
    perms = [_spd_tensors(draw, g.n_cells, g.ambient_dim) for g in mesh.subdomains]
    return mesh, perms


def _x_dirichlet_y_neumann(sd, grid):
    # Inflow through y = 0, where cells see the stored normal as inward,
    # and outflow through y = 1, where they see it as outward.
    bc = _x_dirichlet(sd, grid)
    ext = np.flatnonzero(grid.external_boundary & (bc.kind == NEUMANN))
    for value, flux in ((0.0, -0.5), (1.0, 0.25)):
        faces = ext[np.abs(grid.face_centres[ext, 1] - value) < 1e-12]
        if faces.size:
            bc.set_neumann(faces, flux)
    return bc


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mpfa_networks())
def test_random_networks_mpfa_match_loop_oracle(network):
    mesh, perms = network
    methods = ["mpfa"] * len(mesh.subdomains)
    system = uniform_problem(mesh, perms, _x_dirichlet_y_neumann, methods=methods)
    system = system.assemble()
    for g, k, bc, disc in zip(mesh.subdomains, perms, system.bcs, system.discs):
        _check_mpfa(disc, g, k, bc)
    p = direct_solve(system.matrix, system.rhs)
    assert conservation_residual(system, p) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_match_centres_matches_tuple_key_loop(seed, dim):
    # Points on a lattice of spacing tol/2, with repeats, signed zeros and
    # jitter across rounding boundaries and the tolerance.
    rng = np.random.default_rng(seed)
    tol = 1e-3

    def lattice(n):
        return rng.integers(-4, 5, (n, dim)) * (tol / 2)

    targets = lattice(rng.integers(1, 30))
    jitter = rng.choice([0.0, 0.3, 0.51], targets.shape) * rng.choice([-1, 1], targets.shape)
    targets = targets + jitter * tol
    targets[rng.random(targets.shape) < 0.1] = -0.0
    candidates = np.concatenate([targets, lattice(rng.integers(0, 30))])
    candidates = candidates[rng.permutation(len(candidates))]
    candidates = candidates + rng.choice([0.0, 0.2, 0.7], candidates.shape) * tol
    _check_match(cartesian.match_centres(candidates, targets, tol), candidates, targets, tol)
