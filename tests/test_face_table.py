"""The face-neighbour table and the array kernels built on it.

The per-face loop versions of TPFA assembly, interface coupling, flux-graph
construction, upwind assembly and face-node ordering are kept here as
reference oracles. They read the signed incidence ``cell_faces`` (derived
from the table by ``cell_faces_of``) row by row, never the table itself. So
are the per-node loop version of MPFA assembly, the per-pair Star-Delta loop
that updated the kept block entry by entry, the per-component Schur
complement that filled dense kept-width blocks, and the network builder that
wrote each level of the fracture hierarchy out by hand, matched face and cell
centres by a tuple-key loop and built each split grid twice. The array
versions, the one crossing rule and the index rule for interface pairs must
reproduce them on all six preset cases, on a perturbed simplex mesh and on
random fracture networks; the Schur complement is also held to a dense block
elimination. The transport step factored in cell order by
minimum degree is the oracle of the flux-ordered factor on the preset cases.
"""

import copy
import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import assert_reductions_symmetric, write_triangle_square_mesh, x_dirichlet
from fracfv import coupling, transport
from fracfv.coupling import conservation_residual, uniform_problem
from fracfv.elimination import (
    back_substitute,
    limit_equivalence_check,
    schur_reduce,
    star_delta_reduce,
)
from fracfv.errors import (
    DegenerateGeometryError,
    DiscretizationError,
    EliminationError,
    FractureAlignmentError,
    FractureOverlapError,
    InflowBoundaryError,
    MeshError,
    SingularLocalSystemError,
    UnsupportedSourceError,
)
from fracfv.fvdiscretize import DIRICHLET, NEUMANN, assemble_mpfa, flow_bc, transport_bc
from fracfv.fvdiscretize.mpfa import _plane_basis, default_eta
from fracfv.harness import cases
from fracfv.harness.cases import CaseSpec, run_case
from fracfv.linsolve import CG_MIN_ROWS, _certified_stieltjes_3d, as_csr, direct_solve
from fracfv.mdmesh import FractureNetworkSpec, FracturePatch, build_cartesian_with_fractures, load_mesh
from fracfv.mdmesh.grids import build_grid
from fracfv.mdmesh.mdmesh import InterfaceMap, MixedDimensionalMesh
from fracfv.tensors import PermeabilityTensor, as_tensor, tensor_field

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
    fn_csr = grid.face_nodes.tocsr()  # rows: nodes
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
            lo.aperture,
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


def mmd_factorize_step(volumes, operator, dt):
    """The step matrix in cell order, factored under the flow solver's
    minimum-degree policy, as every transport run was before flux order."""
    matrix = as_csr(sps.diags(volumes / dt) + operator)
    return spla.splu(
        matrix.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.01,
        options={"SymmetricMode": True},
    )


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


def loop_schur_reduce_matrix(matrix, rhs, eliminated):
    """Schur complement by a dense LU of each connected component of the
    eliminated block, whose fill is assembled from dense kept-width blocks:
    (matrix, rhs, back-substitution of kept pressures)."""
    a = as_csr(matrix)
    n = a.shape[0]
    eliminated = np.unique(np.asarray(eliminated, dtype=int))
    keep_mask = np.ones(n, dtype=bool)
    keep_mask[eliminated] = False
    kept = np.flatnonzero(keep_mask)
    a_kk = a[kept][:, kept].tocsr()
    a_ke = a[kept][:, eliminated].tocsc()
    a_ek = a[eliminated][:, kept].tocsr()
    a_ee = a[eliminated][:, eliminated].tocsr()
    b = np.asarray(rhs, dtype=float)
    b_k, b_e = b[kept], b[eliminated]
    symmetric = (a - a.T).nnz == 0

    fill = sps.csr_matrix((kept.size, kept.size))
    b_fill = np.zeros(kept.size)
    blocks = []
    if eliminated.size:
        n_comp, labels = connected_components((abs(a_ee) + abs(a_ee.T)).tocsr(), directed=False)
        rows_f, cols_f, vals_f = [], [], []
        for comp in range(n_comp):
            loc = np.flatnonzero(labels == comp)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(a_ee[loc][:, loc].toarray())
            if np.abs(np.diag(lu)).min() == 0.0:
                raise EliminationError(
                    f"singular eliminated block for rows {eliminated[loc].tolist()}"
                )
            ek_block = a_ek[loc].toarray()
            ke_block = a_ke[:, loc].toarray()
            j_cols = np.flatnonzero(np.any(ek_block != 0.0, axis=0))
            j_rows = np.flatnonzero(np.any(ke_block != 0.0, axis=1))
            blocks.append((loc, (lu, piv)))
            if j_cols.size and j_rows.size:
                m = ke_block[j_rows] @ sla.lu_solve((lu, piv), ek_block[:, j_cols])
                if symmetric and np.array_equal(j_rows, j_cols):
                    m = np.triu(m) + np.triu(m, 1).T
                rr, cc = np.meshgrid(j_rows, j_cols, indexing="ij")
                rows_f.append(rr.ravel())
                cols_f.append(cc.ravel())
                vals_f.append(m.ravel())
            b_fill += ke_block @ sla.lu_solve((lu, piv), b_e[loc])
        if rows_f:
            fill = sps.csr_matrix(
                (np.concatenate(vals_f), (np.concatenate(rows_f), np.concatenate(cols_f))),
                shape=(kept.size, kept.size),
            )

    def back(p_kept):
        full = np.empty(n)
        full[kept] = p_kept
        rhs_e = b_e - a_ek @ p_kept
        for loc, lu_piv in blocks:
            full[eliminated[loc]] = sla.lu_solve(lu_piv, rhs_e[loc])
        return full

    return as_csr(a_kk - fill), b_k - b_fill, back


def dense_schur_reduce(matrix, rhs, eliminated):
    """``A_kk - A_ke solve(A_ee, A_ek)`` by dense block elimination:
    (matrix, rhs, back-substitution of kept pressures)."""
    a, b = as_csr(matrix).toarray(), np.asarray(rhs, dtype=float)
    e = np.unique(np.asarray(eliminated, dtype=int))
    k = np.setdiff1d(np.arange(b.size), e)

    def solve(right):
        return np.linalg.solve(a[np.ix_(e, e)], right)

    def back(p_kept):
        full = np.empty(b.size)
        full[k] = p_kept
        full[e] = solve(b[e] - a[np.ix_(e, k)] @ p_kept)
        return full

    a_ke = a[np.ix_(k, e)]
    return a[np.ix_(k, k)] - a_ke @ solve(a[np.ix_(e, k)]), b[k] - a_ke @ solve(b[e]), back


# The builder's helpers as the oracle used them, kept here so that the
# oracle does not follow changes to ``cartesian``.


def oracle_axis_node_arrays(domain, resolution, ambient_dim):
    if isinstance(resolution, (int, np.integer)):
        resolution = [int(resolution)] * ambient_dim
    arrays = []
    for k, (lo, hi) in enumerate(domain):
        r = resolution[k]
        if isinstance(r, (int, np.integer)):
            arrays.append(np.linspace(lo, hi, int(r) + 1))
        else:
            arr = np.asarray(r, dtype=float)
            if arr.ndim != 1 or arr.size < 2 or np.any(np.diff(arr) <= 0):
                raise MeshError(f"axis {k}: explicit node coordinates must be strictly increasing")
            if arr[0] != lo or arr[-1] != hi:
                raise MeshError(f"axis {k}: explicit node coordinates must span the domain")
            arrays.append(arr)
    return arrays


def oracle_snap(value, nodes, tol, what):
    idx = int(np.argmin(np.abs(nodes - value)))
    if abs(nodes[idx] - value) > tol:
        raise FractureAlignmentError(f"{what} at {value} does not coincide with a grid plane")
    return idx


def oracle_mean_eigenvalue(tensor):
    return float(np.trace(tensor.matrix)) / tensor.dim


def oracle_structured_grid(ambient_dim, active_axes, axis_nodes, fixed_coords, aperture):
    """The tensor grid's node lists and face-cell table, handed to ``build_grid``."""
    d = len(active_axes)
    cell_shape = tuple(len(a) - 1 for a in axis_nodes)
    if min(cell_shape, default=1) < 1:
        raise MeshError("each active axis needs at least one cell")
    node_shape = [n + 1 for n in cell_shape]
    node_id = np.arange(int(np.prod(node_shape))).reshape(node_shape)
    nodes = np.empty((node_id.size, ambient_dim))
    for k, value in fixed_coords.items():
        nodes[:, k] = value
    for k, coords in zip(active_axes, np.meshgrid(*axis_nodes, indexing="ij")):
        nodes[:, k] = coords.ravel()

    def corners(shape, span, order=slice(None)) -> np.ndarray:
        # Per entity of the index box shape, its corner nodes along the axes
        # in span, in ascending order or the given one.
        starts = itertools.product(*[(0, 1) if i in span else (0,) for i in range(d)])
        return np.column_stack(
            [node_id[tuple(map(slice, s, np.add(s, shape)))].ravel() for s in starts]
        )[:, order].ravel()

    cell_id = np.arange(int(np.prod(cell_shape))).reshape(cell_shape)
    face_idx, face_cells = [np.zeros(0, dtype=int)], [np.zeros((0, 2), dtype=int)]
    around = [0, 1, 3, 2] if d == 3 else slice(None)  # a 3D face's corners in boundary order
    for j in range(d):
        # The cells before and after each face along axis j; -1 off the ends.
        padded = np.pad(cell_id, [(int(i == j),) * 2 for i in range(d)], constant_values=-1)
        before = padded[(slice(None),) * j + (slice(None, -1),)]
        after = padded[(slice(None),) * j + (slice(1, None),)]
        face_cells.append(np.column_stack([before.ravel(), after.ravel()]))
        face_idx.append(corners(before.shape, [i for i in range(d) if i != j], around))
    face_idx, cell_idx = np.concatenate(face_idx), corners(cell_shape, range(d))
    cells = (np.arange(0, cell_idx.size + 1, 2**d), cell_idx)
    faces = (np.arange(0, face_idx.size + 1, max(1, 2 ** (d - 1))), face_idx)
    table = np.concatenate(face_cells)
    return build_grid(d, nodes, cells, faces, table, float(aperture), "cartesian")


def oracle_split_faces(grid, faces):
    """Duplicate interior faces in place, each copy appended and attached to
    the cell that saw the normal as inward; both copies are tagged as internal
    boundary. Returns the copies, rebuilt by ``build_grid``."""
    faces = np.asarray(faces, dtype=int)
    new_faces = grid.n_faces + np.arange(faces.size)
    if faces.size == 0:
        return new_faces
    pairs = grid.face_cells[faces]
    one_sided = np.flatnonzero((pairs < 0).any(axis=1))
    if one_sided.size:
        raise MeshError(f"cannot split boundary face {faces[one_sided[0]]}")
    table = np.vstack([grid.face_cells, np.column_stack([pairs[:, 1], np.full(faces.size, -1)])])
    table[faces, 1] = -1
    fn, cn = grid.face_nodes.tocsc(), grid.cell_nodes.tocsc()
    fn = sps.hstack([fn, fn[:, faces]], format="csc")
    node_lists = (cn.indptr, cn.indices), (fn.indptr, fn.indices)
    split = build_grid(grid.dim, grid.nodes, *node_lists, table, grid.aperture, grid.kind)
    internal = np.concatenate([grid.internal_boundary, np.ones(faces.size, dtype=bool)])
    internal[faces] = True
    vars(grid).update(vars(split), internal_boundary=internal, metadata=grid.metadata)
    return new_faces


def _snapped(value, nodes, tol, what):
    idx = oracle_snap(value, nodes, tol, what)
    return nodes[idx], idx


def loop_intersection_tensor(rule, parents, ambient_dim):
    """Apply the intersection permeability rule given parent metadata dicts."""
    tensors = [p["permeability"] for p in parents]
    if isinstance(rule, PermeabilityTensor):
        return rule
    if np.isscalar(rule) and not isinstance(rule, str):
        return PermeabilityTensor.isotropic(float(rule), ambient_dim)
    if rule == "min":
        return min(tensors, key=oracle_mean_eigenvalue)
    if rule == "harmonic":
        means = [oracle_mean_eigenvalue(t) for t in tensors]
        return PermeabilityTensor.isotropic(len(means) / sum(1.0 / m for m in means), ambient_dim)
    raise MeshError(f"unknown intersection permeability rule {rule!r}")


def loop_build_cartesian_with_fractures(spec, resolution):
    """The network builder that wrote each level out by hand: 2D points from
    patch pairs, 3D lines from patch pairs, 3D points from line pairs, each
    with its own parent records for the intersection permeability rule."""
    ambient = spec.ambient_dim
    axes = oracle_axis_node_arrays(spec.domain, resolution, ambient)
    spans = [a[-1] - a[0] for a in axes]
    tol = 1e-8 * max(spans)

    # Normalize and validate patches.
    patches = []
    for idx, patch in enumerate(spec.fractures):
        if ambient < 2:
            raise MeshError("fractures require an ambient dimension of at least 2")
        name = patch.name or f"fracture_{idx}"
        coord, node_idx = _snapped(patch.coordinate, axes[patch.normal_axis], tol, f"fracture {name!r} plane")
        if node_idx == 0 or node_idx == len(axes[patch.normal_axis]) - 1:
            raise FractureAlignmentError(f"fracture {name!r} lies on the domain boundary")
        extents = []
        for axis, (lo, hi) in zip(patch.in_plane_axes(ambient), patch.extents):
            lo_s, lo_i = _snapped(lo, axes[axis], tol, f"fracture {name!r} extent")
            hi_s, hi_i = _snapped(hi, axes[axis], tol, f"fracture {name!r} extent")
            if hi_i <= lo_i:
                raise MeshError(f"fracture {name!r} has empty extent on axis {axis}")
            extents.append((lo_s, hi_s))
        patches.append(
            {
                "name": name,
                "normal_axis": patch.normal_axis,
                "coordinate": coord,
                "extents": extents,
                "in_plane_axes": patch.in_plane_axes(ambient),
                "aperture": float(patch.aperture),
                "permeability": as_tensor(patch.permeability, ambient),
            }
        )

    # Reject overlapping or touching same-orientation patches.
    for a, b in itertools.combinations(patches, 2):
        if a["normal_axis"] != b["normal_axis"] or a["coordinate"] != b["coordinate"]:
            continue
        boxes_touch = all(
            ea[0] <= eb[1] and eb[0] <= ea[1] for ea, eb in zip(a["extents"], b["extents"])
        )
        if boxes_touch:
            raise FractureOverlapError(
                f"fractures {a['name']!r} and {b['name']!r} overlap in the same plane"
            )

    subdomains = []
    matrix = oracle_structured_grid(ambient, list(range(ambient)), axes, {}, aperture=1.0)
    matrix.metadata = {"role": "matrix", "name": "matrix"}
    subdomains.append(matrix)

    def restricted(axis, lo, hi):
        arr = axes[axis]
        i0 = int(np.argmin(np.abs(arr - lo)))
        i1 = int(np.argmin(np.abs(arr - hi)))
        return arr[i0 : i1 + 1]

    fracture_sds = []
    for p in patches:
        g = oracle_structured_grid(
            ambient,
            p["in_plane_axes"],
            [restricted(axis, *ext) for axis, ext in zip(p["in_plane_axes"], p["extents"])],
            {p["normal_axis"]: p["coordinate"]},
            aperture=p["aperture"],
        )
        g.metadata = {
            "role": "fracture",
            "name": p["name"],
            "permeability": p["permeability"],
        }
        fracture_sds.append(len(subdomains))
        subdomains.append(g)

    # Pairwise patch intersections: dimension N-2 entities.
    segments = []  # ambient == 3: {"axis", "range", "fixed", parents...}
    point_records = {}  # ambient == 2 (from patches) or 3 (from segments)

    def add_point(coords, parent):
        rec = point_records.setdefault(coords, {"parents": []})
        if parent not in rec["parents"]:
            rec["parents"].append(parent)

    for pa, pb in itertools.combinations(patches, 2):
        if pa["normal_axis"] == pb["normal_axis"]:
            continue
        ca_ok = loop_within(pa["coordinate"], pb, pa["normal_axis"], ambient)
        cb_ok = loop_within(pb["coordinate"], pa, pb["normal_axis"], ambient)
        if not (ca_ok and cb_ok):
            continue
        if ambient == 2:
            coords = [0.0, 0.0]
            coords[pa["normal_axis"]] = pa["coordinate"]
            coords[pb["normal_axis"]] = pb["coordinate"]
            add_point(tuple(coords), {"kind": "patch_pair", "patches": (pa, pb)})
        else:
            free = [k for k in range(3) if k not in (pa["normal_axis"], pb["normal_axis"])][0]
            lo = max(pa["extents"][pa["in_plane_axes"].index(free)][0],
                     pb["extents"][pb["in_plane_axes"].index(free)][0])
            hi = min(pa["extents"][pa["in_plane_axes"].index(free)][1],
                     pb["extents"][pb["in_plane_axes"].index(free)][1])
            if hi <= lo:
                continue  # zero-length contact carries no cells
            segments.append(
                {
                    "axis": free,
                    "range": (lo, hi),
                    "fixed": {pa["normal_axis"]: pa["coordinate"], pb["normal_axis"]: pb["coordinate"]},
                    "patches": (pa, pb),
                }
            )

    segment_sds = []
    rule = spec.intersection_permeability
    for seg in segments:
        parents = [{"permeability": p["permeability"]} for p in seg["patches"]]
        tensor = loop_intersection_tensor(rule, parents, ambient)
        aperture = min(p["aperture"] for p in seg["patches"])
        g = oracle_structured_grid(
            ambient, [seg["axis"]], [restricted(seg["axis"], *seg["range"])], seg["fixed"], aperture
        )
        names = [p["name"] for p in seg["patches"]]
        g.metadata = {
            "role": "intersection",
            "name": "x".join(names),
            "permeability": tensor,
            "aperture_sources": [p["aperture"] for p in seg["patches"]],
        }
        seg["sd"] = len(subdomains)
        seg["metadata"] = g.metadata
        segment_sds.append(len(subdomains))
        subdomains.append(g)

    if ambient == 3:
        for sa, sb in itertools.combinations(segments, 2):
            if sa["axis"] == sb["axis"]:
                continue
            coords = [None, None, None]
            coords[sa["axis"]] = sb["fixed"].get(sa["axis"])
            coords[sb["axis"]] = sa["fixed"].get(sb["axis"])
            third = [k for k in range(3) if k not in (sa["axis"], sb["axis"])][0]
            if sa["fixed"][third] != sb["fixed"][third]:
                continue
            coords[third] = sa["fixed"][third]
            if not (sa["range"][0] <= coords[sa["axis"]] <= sa["range"][1]):
                continue
            if not (sb["range"][0] <= coords[sb["axis"]] <= sb["range"][1]):
                continue
            add_point(tuple(coords), {"kind": "segment", "segment": sa})
            add_point(tuple(coords), {"kind": "segment", "segment": sb})

    point_sds = []
    for coords in sorted(point_records):
        rec = point_records[coords]
        parents, apertures = [], []
        for parent in rec["parents"]:
            if parent["kind"] == "patch_pair":
                for p in parent["patches"]:
                    parents.append({"permeability": p["permeability"]})
                    apertures.append(p["aperture"])
            else:
                md = parent["segment"]["metadata"]
                parents.append({"permeability": md["permeability"]})
                apertures.extend(md["aperture_sources"])
        tensor = loop_intersection_tensor(rule, parents, ambient)
        g = oracle_structured_grid(ambient, [], [], dict(enumerate(coords)), min(apertures))
        g.metadata = {
            "role": "intersection",
            "name": "point_" + "_".join(f"{c:g}" for c in coords),
            "permeability": tensor,
        }
        point_sds.append(len(subdomains))
        subdomains.append(g)

    # Split host faces and build interface maps, top dimension downward.
    interfaces = []
    match_tol = 1e-10 * max(spans)
    by_dim = {d: [i for i, g in enumerate(subdomains) if g.dim == d] for d in range(ambient + 1)}
    for d_high in range(ambient, 0, -1):
        for hi_idx in by_dim.get(d_high, []):
            higher = subdomains[hi_idx]
            matches_per_lower = []
            for lo_idx in by_dim.get(d_high - 1, []):
                lower = subdomains[lo_idx]
                pairs = loop_match_centres(higher.face_centres, lower.cell_centres, match_tol)
                pairs = np.array(pairs, dtype=int).reshape(-1, 2)
                if pairs.size:
                    matches_per_lower.append((lo_idx, pairs))
            if not matches_per_lower:
                continue
            all_faces = np.unique(np.concatenate([pairs[:, 0] for _, pairs in matches_per_lower]))
            to_split = all_faces[~higher.boundary_faces[all_faces]]
            twin = np.full(higher.n_faces, -1)
            twin[to_split] = oracle_split_faces(higher, to_split)
            higher.internal_boundary[all_faces] = True
            for lo_idx, pairs in matches_per_lower:
                # Each pair on a split face is followed by the pair of its copy.
                split = twin[pairs[:, 0]] >= 0
                rows = np.repeat(pairs, np.where(split, 2, 1), axis=0)
                copies = np.cumsum(np.where(split, 2, 1))[split] - 1
                rows[copies, 0] = twin[pairs[split, 0]]
                interfaces.append(InterfaceMap(hi_idx, lo_idx, rows))

    mesh = MixedDimensionalMesh(subdomains, interfaces)
    mesh.validate()
    return mesh


def loop_within(coordinate, patch, axis, ambient):
    """Whether a plane coordinate on ``axis`` falls inside a patch's extent."""
    if axis == patch["normal_axis"]:
        return False
    lo, hi = patch["extents"][patch["in_plane_axes"].index(axis)]
    return lo <= coordinate <= hi


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


SCHUR_TOL = 1e-13


def _check_schur(reduced, system, eliminated=None):
    """Reduced matrix, right-hand side and back-substituted pressure within
    ``SCHUR_TOL`` of both oracles, relative to the oracle's largest entry."""
    p_kept = direct_solve(reduced.matrix, reduced.rhs)
    p = back_substitute(reduced, p_kept)
    for oracle in (loop_schur_reduce_matrix, dense_schur_reduce):
        matrix, rhs, back = oracle(system.matrix, system.rhs, reduced.eliminated)
        for new, old in ((reduced.matrix, matrix), (reduced.rhs, rhs), (p, back(p_kept))):
            new, old = (x.toarray() if sps.issparse(x) else x for x in (new, old))
            scale = np.abs(old).max(initial=0.0)
            assert np.abs(new - old).max(initial=0.0) <= SCHUR_TOL * scale, oracle.__name__


class Spies:
    """Wrap the array kernels where the case runners look them up and check
    every call against its oracle."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(
            ["build", "tpfa", "mpfa", "interface", "system", "reduced", "upwind",
             "star_delta", "schur"],
            0,
        )
        self._wrap(monkeypatch, cases, "build_cartesian_with_fractures", "build", _check_build)
        self._wrap(monkeypatch, coupling, "assemble_tpfa", "tpfa", _check_tpfa)
        self._wrap(monkeypatch, coupling, "assemble_mpfa", "mpfa", _check_mpfa)
        self._wrap(monkeypatch, coupling, "discretize_interface", "interface", _check_interface)
        self._wrap(monkeypatch, cases, "flux_graph_from_system", "system", _check_system_graph)
        self._wrap(monkeypatch, cases, "flux_graph_from_reduced", "reduced", _check_reduced_graph)
        self._wrap(monkeypatch, transport, "upwind_operator", "upwind", _check_upwind)
        self._wrap(monkeypatch, cases, "star_delta_reduce", "star_delta", _check_star_delta)
        self._wrap(monkeypatch, cases, "schur_reduce", "schur", _check_schur)

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
    assert spies.calls["build"] > 0 and spies.calls["interface"] > 0
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
    if case in ("1.1", "1.2-lite", "1.3", "4"):
        assert spies.calls["schur"] > 0


def _tracer_runs(monkeypatch, spec, factorize_step=None):
    """Report and tracer simulations of one case run, with the transport step
    factored by ``factorize_step`` where given. Every step matrix factored in
    flux order is returned with its LU factor."""
    sims, factors = [], []
    original = transport.factorize

    class Recorded(transport.TracerSimulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    def recorded(matrix):
        lu = original(matrix)
        factors.append((as_csr(matrix), lu))
        return lu

    with monkeypatch.context() as patch:
        patch.setattr(cases, "TracerSimulation", Recorded)
        patch.setattr(transport, "factorize", recorded)
        if factorize_step is not None:
            patch.setattr(transport, "factorize_step", factorize_step)
        report = run_case(spec).report
    return report, sims, factors


def _same_results(new, old, path=""):
    """Tracer and mass numbers within 1e-12 of their scale (at least 1: mass
    errors are relative already, Schur tracer errors are round-off); every
    other number bit-identical."""
    if isinstance(old, dict):
        assert new.keys() == old.keys()
        for key in old:
            _same_results(new[key], old[key], f"{path}/{key}")
    elif isinstance(old, float) and ("tracer" in path or "mass" in path):
        assert abs(new - old) <= 1e-12 * max(abs(old), 1.0), path
    else:
        assert new == old, path


@pytest.mark.parametrize("case,resolution,overrides", SMALL_CASES, ids=[c[0] for c in SMALL_CASES])
def test_flux_ordered_transport_matches_mmd_oracle(monkeypatch, case, resolution, overrides):
    spec = CaseSpec(case=case, resolution=resolution, overrides=overrides)
    report, sims, factors = _tracer_runs(monkeypatch, spec)
    oracle_report, oracle_sims, oracle_factors = _tracer_runs(monkeypatch, spec, mmd_factorize_step)
    assert not oracle_factors
    assert len(sims) == len(oracle_sims) == len(factors)
    assert bool(sims) == (case in ("1.3", "3", "4"))  # the others run no transport
    _same_results(report["results"], oracle_report["results"])
    for sim, oracle in zip(sims, oracle_sims):
        field, oracle_field = sim.state.concentrations, oracle.state.concentrations
        scale = np.abs(oracle_field).max()
        assert np.abs(field - oracle_field).max() <= 1e-12 * scale
        times, values = np.array(sim.state.series).reshape(-1, 2).T
        oracle_times, oracle_values = np.array(oracle.state.series).reshape(-1, 2).T
        assert np.array_equal(times, oracle_times)
        assert np.abs(values - oracle_values).max(initial=0.0) <= 1e-12 * scale
        assert np.abs(np.subtract(sim.bounds, oracle.bounds)).max() <= 1e-12 * scale
        assert abs(sim.mass_accounting_error - oracle.mass_accounting_error) <= 1e-12
    # Every step matrix of the presets is acyclic: lower triangular in flux
    # order, every diagonal pivot kept, and L + U holds no entry beyond A's
    # and L's unit diagonal.
    for matrix, lu in factors:
        n = matrix.shape[0]
        assert sps.triu(matrix, 1).nnz == 0
        assert np.array_equal(lu.perm_r, np.arange(n))
        assert lu.L.nnz + lu.U.nnz == matrix.nnz + n


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
        name = f"p{draw(st.integers(0, n))}"  # names may repeat
        patches.append(FracturePatch(axis, index / res, tuple(extents), aperture, permeability, name))
    matrix_k = np.diag([10.0 ** draw(st.integers(-1, 1)) for _ in range(dim)])
    exponents = st.integers(-4, 4)
    rule = draw(
        st.one_of(
            st.sampled_from(["min", "harmonic"]),
            st.sampled_from([p.permeability for p in patches]),
            exponents.map(lambda e: 10.0**e),
            st.lists(exponents, min_size=dim, max_size=dim).map(
                lambda e: PermeabilityTensor.diagonal(*(10.0 ** np.array(e, dtype=float)))
            ),
        )
    )
    spec = FractureNetworkSpec(((0.0, 1.0),) * dim, patches, intersection_permeability=rule)
    return _build_against_oracles(spec, res), matrix_k


GRID_ARRAYS = [
    "nodes", "cell_centres", "cell_volumes", "face_centres", "face_normals", "face_areas",
    "aperture", "internal_boundary", "face_cells", "cell_faces", "face_nodes", "cell_nodes",
]


def _check_build(mesh, spec, resolution):
    """The mesh equals, bit for bit, the one the hand-written hierarchy
    builder makes: grid arrays, subdomain order, names, roles, tensors and
    interface pairs."""
    oracle = loop_build_cartesian_with_fractures(spec, resolution)
    assert len(mesh.subdomains) == len(oracle.subdomains)
    for g, o in zip(mesh.subdomains, oracle.subdomains):
        for name in GRID_ARRAYS:
            a, b = getattr(g, name), getattr(o, name)
            if sps.issparse(a):
                a, b = a.tocoo(), b.tocoo()
                assert np.array_equal(a.row, b.row) and np.array_equal(a.col, b.col)
                a, b = a.data, b.data
            assert np.array_equal(a, b), name
        assert set(g.metadata) == set(o.metadata) & {"role", "name", "permeability"}
        assert (g.metadata["role"], g.metadata["name"]) == (o.metadata["role"], o.metadata["name"])
        if "permeability" in g.metadata:
            k, k_oracle = g.metadata["permeability"], o.metadata["permeability"]
            assert np.array_equal(k.matrix, k_oracle.matrix)
    assert len(mesh.interfaces) == len(oracle.interfaces)
    for i, o in zip(mesh.interfaces, oracle.interfaces):
        assert (i.higher, i.lower) == (o.higher, o.lower)
        assert np.array_equal(i.face_cell_pairs, o.face_cell_pairs)


def _build_against_oracles(spec, res):
    """Build a network mesh, and check that it equals, bit for bit, the mesh
    the hand-written hierarchy builder makes with the tuple-key matching loop.
    Where that builder raises, the new one must raise the same error; the
    draw is then rejected."""
    try:
        mesh = build_cartesian_with_fractures(spec, res)
    except MeshError as err:
        with pytest.raises(type(err)) as oracle_err:
            loop_build_cartesian_with_fractures(spec, res)
        assert str(oracle_err.value) == str(err)
        assume(False)
    _check_build(mesh, spec, res)
    return mesh


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
    system = uniform_problem(mesh, perms, x_dirichlet).assemble()

    a = system.matrix
    asym = abs(a - a.T)
    assert (asym.max() if asym.nnz else 0.0) <= 1e-15 * abs(a).max()

    p = direct_solve(a, system.rhs)
    assert conservation_residual(system, p) <= 1e-12
    reduced = schur_reduce(system)
    p_kept = direct_solve(reduced.matrix, reduced.rhs)
    assert np.abs(p_kept - p[reduced.kept]).max() <= 1e-10 * np.abs(p).max()
    _check_schur(reduced, system)

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


@st.composite
def node_networks(draw):
    """A network on explicit, strictly increasing and non-uniform axis nodes,
    as (spec, axis node arrays). Patch ends fall on the planes of other
    patches, where they form T-junctions, and on the domain boundary, as
    often as anywhere else. Node gaps are at least 1/5000 of the span, far
    above the oracle's centre-matching tolerance of 1e-10 of it."""
    dim = draw(st.sampled_from([2, 3]))
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-1.0, 2.5)]))
    axes = []
    for _ in range(dim):
        gaps = np.array(draw(st.lists(st.integers(1, 1000), min_size=2, max_size=5)), float)
        nodes = lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
        nodes[-1] = hi
        axes.append(nodes)
    plane = st.integers(0, dim - 1).flatmap(
        lambda axis: st.tuples(st.just(axis), st.integers(1, axes[axis].size - 2))
    )
    planes = draw(st.lists(plane, min_size=2, max_size=4, unique=True))
    patches = []
    for n, (axis, index) in enumerate(planes):
        extents = []
        for k in range(dim):
            if k == axis:
                continue
            last = axes[k].size - 1
            stops = sorted({0, last} | {i for a, i in planes if a == k})
            start = draw(st.sampled_from(stops[:-1]) | st.integers(0, last - 1))
            later = [i for i in stops if i > start]
            end = draw(st.sampled_from(later) | st.integers(start + 1, last))
            extents.append((axes[k][start], axes[k][end]))
        aperture = draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
        permeability = 10.0 ** draw(st.integers(-4, 4))
        coordinate = axes[axis][index]
        patches.append(
            FracturePatch(axis, coordinate, tuple(extents), aperture, permeability, f"p{n}")
        )
    rule = draw(st.sampled_from(["min", "harmonic"]))
    return FractureNetworkSpec(((lo, hi),) * dim, patches, intersection_permeability=rule), axes


@settings(max_examples=100, deadline=None, derandomize=True)
@given(node_networks())
def test_random_node_networks_match_loop_builder(network):
    _build_against_oracles(*network)


def _matrix_dirichlet(sd, grid):
    """Dirichlet pressure on the matrix's x faces only: no eliminated cell
    carries boundary data."""
    return x_dirichlet(sd, grid) if sd == 0 else None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(networks().filter(lambda network: network[0].ambient_dim == 3))
def test_random_3d_reductions_stay_symmetric(network):
    mesh, matrix_k = network
    perms = [matrix_k] + [g.metadata["permeability"] for g in mesh.subdomains[1:]]
    assert_reductions_symmetric(uniform_problem(mesh, perms, _matrix_dirichlet).assemble())


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


def test_star_delta_limit_starts_late_where_thin_lines_meet():
    """Three corner patches of aperture 1e-4 cross in one-cell lines that meet
    at a point, so Star-Delta is their limit, as in the property above. But
    the line-point bonds scale with a^2, and the Schur systems near the limit
    only once the boost passes about k_f / a: the first hundredfold boost
    cuts the deviations about threefold, the second about 67-fold."""
    corner = ((0.0, 0.25), (0.0, 0.25))
    patches = [FracturePatch(axis, 0.25, corner, 1e-4, 1.0) for axis in range(3)]
    mesh = build_cartesian_with_fractures(FractureNetworkSpec(((0.0, 1.0),) * 3, patches), 4)
    perms = [np.eye(3)] + [g.metadata["permeability"] for g in mesh.subdomains[1:]]
    problem = uniform_problem(mesh, perms, _matrix_dirichlet)
    sweep = limit_equivalence_check(problem, None, [1e2, 1e4, 1e6])["sweep"]
    for key in ("relative_matrix_deviation", "relative_pressure_difference"):
        first, second, third = (entry[key] for entry in sweep)
        assert second < first and third < second / 10, (key, first, second, third)


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
    bc = x_dirichlet(sd, grid)
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
