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

The regions are computed in batches. Every (cell, node) corner's gradient
matrix is inverted in one stacked call. Regions with the same signature
(numbers of sub-faces, cells and unknowns) are assembled, checked and solved
as stacks, in blocks of bounded size. Each node's entries are accumulated in
the order a node-by-node assembly would use, so batching changes no sum.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from ..errors import DiscretizationError, SingularLocalSystemError
from ..mdmesh.grids import SubdomainGrid
from .bc import DIRICHLET, NEUMANN, BoundaryConditionSet
from .operators import SubdomainDiscretization

DEFAULT_ETA = {"cartesian": 0.0, "simplex": 1.0 / 3.0}

# Sub-face kinds; UNUSABLE marks a one-sided face without usable data.
INTERIOR, NEUMANN_SUB, DIRICHLET_SUB, UNUSABLE = 0, 1, 2, -1

# Regions of one signature are solved in blocks whose largest stacks hold
# about this many numbers, so that memory stays bounded on any grid.
BLOCK_ENTRIES = 1 << 15


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


def _sub_faces(grid: SubdomainGrid) -> tuple[np.ndarray, np.ndarray]:
    """Node and face of every sub-face, ordered by node, then face."""
    fn = grid.face_nodes.tocoo()
    order = np.lexsort((fn.col, fn.row))
    return fn.row[order].astype(int), fn.col[order].astype(int)


def _corners(face_cells: np.ndarray, sub_node: np.ndarray, sub_face: np.ndarray):
    """The (cell, node) corners of the interaction regions.

    Returns the sub-faces of the corners, ordered by node, cell and face;
    where each sub-face sits in that order from each of its sides (-1 for a
    missing side); and per corner its node, its cell and its sub-face count.
    """
    t_sub, t_side = np.nonzero(face_cells[sub_face] >= 0)
    t_cell = face_cells[sub_face[t_sub], t_side]
    order = np.lexsort((t_sub, t_cell, sub_node[t_sub]))
    t_sub, t_cell = t_sub[order], t_cell[order]
    place_of = np.full((sub_face.size, 2), -1)
    place_of[t_sub, t_side[order]] = np.arange(t_sub.size)
    t_node = sub_node[t_sub]
    first = np.ones(t_sub.size, dtype=bool)
    first[1:] = (t_node[1:] != t_node[:-1]) | (t_cell[1:] != t_cell[:-1])
    start = np.flatnonzero(first)
    counts = np.diff(np.append(start, t_sub.size))
    return t_sub, place_of, t_node[start], t_cell[start], counts


def _corner_flux_rows(grid, permeability, basis, x_cont, sub_area, sub_face, corner_sub, corner_cell):
    """Flux rows q G^{-1} of every (cell, node) corner, and the corners whose
    gradient matrix G LAPACK cannot invert.

    Row a of a corner gives the flux from its cell across its a-th sub-face
    per unit pressure at each of its continuity points, less the cell's.
    """
    g_mat = (x_cont[corner_sub] - grid.cell_centres[corner_cell][:, None, :]) @ basis.T
    errors = []
    try:
        h_mat = np.linalg.inv(g_mat)
    except np.linalg.LinAlgError:
        errors = _singular(g_mat)
        g_mat[[k for k, _ in errors]] = np.eye(basis.shape[0])  # their nodes fail anyway
        h_mat = np.linalg.inv(g_mat)
    normals = grid.face_normals[sub_face[corner_sub]]
    kn = (basis @ permeability[corner_cell] @ normals.transpose(0, 2, 1)).transpose(0, 2, 1)
    return -(sub_area[corner_sub][:, :, None] * kn) @ h_mat, errors


def _singular(stack: np.ndarray) -> list[tuple[int, np.linalg.LinAlgError]]:
    """The matrices of a stack that LAPACK cannot factor, with their errors.

    Only called after a stacked call has failed, to find the culprits.
    """
    errors = []
    for k, matrix in enumerate(stack):
        try:
            np.linalg.inv(matrix)
        except np.linalg.LinAlgError as exc:
            errors.append((k, exc))
    return errors


def _interaction_regions(grid, permeability, bc, eta):
    """Solve every interaction region of a grid with faces.

    Returns per sub-face (in node-by-node order) its face, its number of
    output slots, the slots' flux coefficients and cell columns (flat, in
    cell order per sub-face), and its boundary term; and the diagnostics.

    Raises:
        SingularLocalSystemError: At the lowest-numbered degenerate node.
    """
    basis = _plane_basis(grid)
    d = grid.dim
    face_cells = grid.face_cells
    nodes_per_face = np.asarray(grid.face_nodes.sum(axis=0)).ravel().astype(int)
    # Failures as (node, rank within the node, cell, message, cause); the
    # lowest is raised, as a node-by-node assembly would: within a node,
    # corner failures (rank 0) come first in cell order, then a face without
    # usable data (rank 1), then a singular local system (rank 2).
    failures = []

    sub_node, sub_face = _sub_faces(grid)
    n_regions = np.unique(sub_node).size

    # Corners: each cell of a region must have d faces at the node.
    corner_sub, place_of, corner_node, corner_cell, counts = _corners(face_cells, sub_node, sub_face)
    wrong = np.flatnonzero(counts != d)
    if wrong.size:
        k = wrong[0]
        node, cell = int(corner_node[k]), int(corner_cell[k])
        message = f"cell {cell} has {counts[k]} faces at node {node}, expected {d}"
        failures.append((node, 0, cell, message, None))
        keep = ~np.isin(sub_node, corner_node[wrong])
        sub_node, sub_face = sub_node[keep], sub_face[keep]
        corner_sub, place_of, corner_node, corner_cell, _ = _corners(face_cells, sub_node, sub_face)
    n_sub, n_corners = sub_face.size, corner_cell.size
    # Each corner's sub-faces, by face; place_of[s, side] is corner * d plus
    # the position of sub-face s in the corner on that side.
    corner_sub = corner_sub.reshape(n_corners, d)

    # Regions: nodes with sub-faces, numbered in node order.
    region_start = np.flatnonzero(np.diff(sub_node, prepend=-1))
    region_of_sub = np.cumsum(np.diff(sub_node, prepend=-1) != 0) - 1
    region_node = sub_node[region_start]
    corner_region = np.searchsorted(region_node, corner_node)
    corner_start = np.searchsorted(corner_region, np.arange(region_node.size))
    local_cell = np.arange(n_corners) - corner_start[corner_region]
    cells_of_region = np.diff(np.append(corner_start, n_corners))

    # Per corner: the flux rows from one stacked gradient inversion.
    x_cont = (1.0 - eta) * grid.face_centres[sub_face] + eta * grid.nodes[sub_node]
    sub_area = grid.face_areas[sub_face] / nodes_per_face[sub_face]
    flux_rows, singular_corners = _corner_flux_rows(
        grid, permeability, basis, x_cont, sub_area, sub_face, corner_sub, corner_cell
    )
    if singular_corners:
        k, exc = singular_corners[0]
        node = int(corner_node[k])
        failures.append((node, 0, int(corner_cell[k]), f"degenerate region at node {node}", exc))
    row_sums = flux_rows.sum(axis=2)

    # Classify sub-faces and number the unknowns per region. one_side is
    # the table column of the cell a one-sided sub-face belongs to (0 for
    # two-sided ones: their fluxes are evaluated from the plus cell).
    one_side = (face_cells[sub_face, 0] < 0).astype(int)
    on_boundary = grid.internal_boundary[sub_face]
    kind = np.select(
        [
            np.all(face_cells[sub_face] >= 0, axis=1),
            on_boundary | (bc.kind[sub_face] == NEUMANN),
            bc.kind[sub_face] == DIRICHLET,
        ],
        [INTERIOR, NEUMANN_SUB, DIRICHLET_SUB],
        UNUSABLE,
    )
    unusable = np.flatnonzero(kind == UNUSABLE)
    if unusable.size:
        s = unusable[0]
        message = f"face {sub_face[s]} lacks a usable boundary condition"
        failures.append((int(sub_node[s]), 1, 0, message, None))
    is_unknown = (kind == INTERIOR) | (kind == NEUMANN_SUB)
    before = np.cumsum(is_unknown) - is_unknown
    unknown_of = np.where(is_unknown, before - before[region_start[region_of_sub]], -1)
    n_unknown = np.bincount(region_of_sub[is_unknown], minlength=region_node.size)

    dirichlet_value = np.zeros(n_sub)
    neumann_flux = np.zeros(n_sub)
    for s in np.flatnonzero((kind == DIRICHLET_SUB) | ((kind == NEUMANN_SUB) & ~on_boundary)):
        if kind[s] == DIRICHLET_SUB:
            dirichlet_value[s] = bc.value_at(int(sub_face[s]), x_cont[s])
        else:
            neumann_flux[s] = bc.value_at(int(sub_face[s])) * sub_area[s]

    # Outputs per sub-face, in sub-face (node-by-node) order: one slot per
    # cell of the region for each sub-face whose flux is evaluated, and one
    # boundary term, the Neumann flux or the evaluated constant part.
    evaluated = (kind == INTERIOR) | (kind == DIRICHLET_SUB)
    n_slots = np.where(evaluated, cells_of_region[region_of_sub], 0)
    first_slot = np.cumsum(n_slots) - n_slots
    slot_val = np.zeros(n_slots.sum())
    slot_col = np.zeros(n_slots.sum(), dtype=int)
    boundary_term = np.where(kind == NEUMANN_SUB, (1.0 - 2.0 * one_side) * neumann_flux, 0.0)

    def solve(block: np.ndarray, n_s: int, n_loc: int, n_unk: int) -> float:
        """Solve a block of regions with one signature, and write the outputs
        of their sub-faces. Returns the largest local condition number."""
        # The block's sub-faces, region by region, and their regions' ranks.
        subs = (region_start[block][:, None] + np.arange(n_s)).ravel()
        rank = np.repeat(np.arange(block.size), n_s)
        # Solutions [U | u0]: continuity-point pressures of the unknowns as
        # U @ cell pressures + u0; a zero row when there are none.
        solved = np.zeros((block.size, max(n_unk, 1), n_loc + 1))
        cond_max = 0.0
        if n_unk:
            # Flux expressions in equation order: an interior sub-face's
            # equation adds the flux from its plus cell and subtracts that
            # from its minus cell; a Neumann sub-face's takes the flux from
            # its one cell.
            n_expr = np.where(kind[subs] == INTERIOR, 2, np.where(kind[subs] == NEUMANN_SUB, 1, 0))
            e = np.repeat(np.arange(subs.size), n_expr)
            e_sub = subs[e]
            side = np.where(
                kind[e_sub] == INTERIOR,
                np.arange(e.size) - (np.cumsum(n_expr) - n_expr)[e],
                one_side[e_sub],
            )
            sign = 1.0 - 2.0 * side
            corner, pos = np.divmod(place_of[e_sub, side], d)
            eq = rank[e] * n_unk + unknown_of[e_sub]
            coeff = sign[:, None] * flux_rows[corner, pos]
            other = corner_sub[corner]
            free = unknown_of[other] >= 0
            # Local systems M u = [P | c]: P maps the region's cell
            # pressures, c holds the boundary data.
            width = n_loc + 1
            local = np.zeros((block.size, n_unk, n_unk))
            flat = (eq[:, None] * n_unk + unknown_of[other])[free]
            np.add.at(local.reshape(-1), flat, coeff[free])
            # An equation's Dirichlet terms precede its Neumann flux, as in
            # a node-by-node assembly.
            neumann = np.flatnonzero(kind[subs] == NEUMANN_SUB)
            rhs = np.zeros((block.size, n_unk, width))
            np.add.at(
                rhs.reshape(-1),
                np.concatenate([
                    eq * width + local_cell[corner],
                    np.broadcast_to(eq[:, None] * width + n_loc, free.shape)[~free],
                    (rank[neumann] * n_unk + unknown_of[subs[neumann]]) * width + n_loc,
                ]),
                np.concatenate([
                    sign * row_sums[corner, pos],
                    -(coeff * dirichlet_value[other])[~free],
                    neumann_flux[subs[neumann]],
                ]),
            )
            cond = np.linalg.cond(local)
            scale = np.abs(local).max(axis=(1, 2))
            singular = ~np.isfinite(cond) | ((scale > 0) & (1.0 / cond < 1e-12))
            if singular.any():
                node = int(region_node[block[np.argmax(singular)]])
                failures.append((node, 2, 0, f"singular local system at node {node}", None))
                return cond_max
            cond_max = float(cond.max())
            if not failures:
                try:
                    solved[:, :n_unk] = np.linalg.solve(local, rhs)
                except np.linalg.LinAlgError:
                    k, exc = _singular(local)[0]
                    node = int(region_node[block[k]])
                    failures.append((node, 2, 0, f"singular local system at node {node}", exc))
        if failures:
            return cond_max

        # Sub-face fluxes along the stored normal, evaluated from one side.
        s = subs[evaluated[subs]]
        r = rank[evaluated[subs]]
        corner, pos = np.divmod(place_of[s, one_side[s]], d)
        row = flux_rows[corner, pos]
        cell_coeffs = np.zeros((s.size, n_loc))
        const_term = np.zeros(s.size)
        for j in range(d):
            other = corner_sub[corner, j]
            free = unknown_of[other] >= 0
            u = solved[r, np.maximum(unknown_of[other], 0)]
            cell_coeffs += np.where(free[:, None], row[:, j, None] * u[:, :n_loc], 0.0)
            const_term += row[:, j] * np.where(free, u[:, n_loc], dirichlet_value[other])
        cell_coeffs[np.arange(s.size), local_cell[corner]] -= row_sums[corner, pos]
        slots = first_slot[s][:, None] + np.arange(n_loc)
        slot_val[slots] = cell_coeffs
        slot_col[slots] = corner_cell[corner_start[block[r]][:, None] + np.arange(n_loc)]
        boundary_term[s] = const_term
        return cond_max

    # Signatures: regions with equal counts of sub-faces, cells and
    # unknowns share stacks of local systems.
    signatures, group_of = np.unique(
        np.column_stack([np.diff(np.append(region_start, n_sub)), cells_of_region, n_unknown]),
        axis=0,
        return_inverse=True,
    )
    group_of = group_of.ravel()
    max_condition = 0.0
    for group, (n_s, n_loc, n_unk) in enumerate(signatures):
        members = np.flatnonzero(group_of == group)
        per_block = max(1, BLOCK_ENTRIES // (n_s * (n_loc + 1) + n_unk * n_unk))
        for block in np.split(members, np.arange(per_block, members.size, per_block)):
            max_condition = max(max_condition, solve(block, n_s, n_loc, n_unk))

    if failures:
        node, rank, _, message, cause = min(failures, key=lambda f: f[:3])
        if rank == 1:
            raise DiscretizationError(message)
        raise SingularLocalSystemError(node, message) from cause

    return sub_face, n_slots, slot_val, slot_col, boundary_term, {
        "mpfa_regions": n_regions,
        "mpfa_max_local_condition": float(max_condition),
    }


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
            the lowest-numbered such node.
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

    sub_face, n_slots, slot_val, slot_col, boundary_term, diagnostics = _interaction_regions(
        grid, permeability, bc, eta
    )
    # One COO build of the nonzero slots, whose duplicates (a face's entries
    # from each of its nodes) are summed in node order.
    nonzero = slot_val != 0.0
    rows = np.repeat(sub_face, n_slots)[nonzero]
    flux_cell = sps.csr_matrix(
        (slot_val[nonzero], (rows, slot_col[nonzero])), shape=(n_faces, n_cells)
    )
    flux_cell.sum_duplicates()
    flux_boundary = np.zeros(n_faces)
    np.add.at(flux_boundary, sub_face, boundary_term)
    diagnostics["eta"] = eta
    return SubdomainDiscretization(
        flux_cell=flux_cell,
        flux_boundary=flux_boundary,
        div=div,
        method="mpfa",
        diagnostics=diagnostics,
    )
