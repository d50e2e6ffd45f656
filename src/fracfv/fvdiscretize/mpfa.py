"""Multipoint flux approximation with node-centred interaction regions.

Each face is split into one sub-face per node. Around every node, a local
system enforces pressure continuity at one point per sub-face (placed at
``(1 - eta) * x_face + eta * x_node``) and flux continuity across interior
sub-faces, assuming a linear pressure inside each cell of the region.
Eliminating the continuity-point pressures yields sub-face transmissibilities
that are summed into face rows.

Boundary sub-faces close the local systems with the face's boundary data:
Dirichlet values enter at the continuity points, Neumann fluxes are imposed
on the sub-face (internal-boundary faces as zero flux; the interdimensional
coupling carries their actual flux).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from ..errors import DiscretizationError, SingularLocalSystemError
from ..mdmesh.grids import SubdomainGrid
from .bc import DIRICHLET, NEUMANN, BoundaryConditionSet
from .operators import SubdomainDiscretization

DEFAULT_ETA = {"cartesian": 0.0, "simplex": 1.0 / 3.0}


def default_eta(grid: SubdomainGrid) -> float:
    return DEFAULT_ETA.get(grid.kind, 0.0)


def _plane_basis(grid: SubdomainGrid) -> np.ndarray:
    """Orthonormal basis (d x N) of the subdomain's affine hull."""
    d, ambient = grid.dim, grid.ambient_dim
    if d == ambient:
        return np.eye(ambient)
    centred = grid.nodes - grid.nodes.mean(axis=0)
    _, svals, vt = np.linalg.svd(centred, full_matrices=False)
    span = max(svals[0], 1e-300)
    if svals.shape[0] > d and svals[d] > 1e-9 * span:
        raise DiscretizationError(
            "multipoint discretization requires planar lower-dimensional subdomains"
        )
    return vt[:d]


def assemble_mpfa(
    grid: SubdomainGrid,
    permeability: np.ndarray,
    bc: BoundaryConditionSet,
    eta: float | None = None,
) -> SubdomainDiscretization:
    """Multipoint discretization of one subdomain.

    Parameters:
        grid: The subdomain grid (Cartesian or simplex; planar if embedded).
        permeability: Per-cell tensors, shape (n_cells, N, N).
        bc: Complete boundary conditions.
        eta: Continuity-point parameter in [0, 1); defaults by grid kind
            (0 on Cartesian grids, 1/3 on simplex grids).

    Raises:
        SingularLocalSystemError: A degenerate interaction region, naming
            the node.
    """
    bc.validate_complete()
    if eta is None:
        eta = default_eta(grid)
    if not 0.0 <= eta < 1.0:
        raise DiscretizationError(f"eta must lie in [0, 1), got {eta}")
    n_faces, n_cells = grid.n_faces, grid.n_cells
    div = grid.cell_faces.T.tocsr()
    if n_faces == 0:
        return SubdomainDiscretization(
            flux_cell=sps.csr_matrix((0, n_cells)),
            flux_boundary=np.zeros(0),
            div=div,
            method="mpfa",
            diagnostics={"mpfa_regions": 0, "mpfa_max_local_condition": 0.0},
        )

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
    return SubdomainDiscretization(
        flux_cell=flux_cell,
        flux_boundary=flux_boundary,
        div=div,
        method="mpfa",
        diagnostics=diagnostics,
    )
