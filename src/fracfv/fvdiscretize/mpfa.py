"""Multipoint flux approximation with node-centred interaction regions.

Each face is split into one sub-face per node. Around every node, a local
system enforces pressure continuity at one point per sub-face (placed at
``(1 - eta) * x_face + eta * x_node``, where the grid kind fixes eta: 0 on
Cartesian grids, 1/3 on simplex grids) and flux continuity across interior
sub-faces, assuming a linear pressure inside each cell of the region.
Eliminating the continuity-point pressures yields sub-face transmissibilities
that are summed into face rows.

Boundary sub-faces close the local systems with the face's boundary data:
Dirichlet values enter at the continuity points, Neumann fluxes are imposed
on the sub-face (internal-boundary faces as zero flux; the interdimensional
coupling carries their actual flux).

The regions are computed in batches: chunks of consecutive nodes with about
4,096 sub-faces each, so that only the outputs grow with the grid. In a
chunk, every (cell, node) corner's gradient matrix is inverted in one stacked
call, and regions with the same signature (numbers of sub-faces, cells and
unknowns) are assembled, checked and solved as stacks, in blocks of bounded
size. Each node's entries are accumulated in the order a node-by-node
assembly would use, so neither chunks nor blocks change a sum.

Each evaluated face's row of the face x cell flux matrix holds every cell
at one of its nodes; the matrix is laid out once, with zero values. After
each chunk, the chunk's sub-face fluxes and boundary terms are added into
the face rows and face terms one by one in sub-face order, which is node
order, starting from zero: every face sum is the one a node-by-node assembly
would take.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from ..errors import DiscretizationError, SingularLocalSystemError
from ..mdmesh.grids import SubdomainGrid
from .bc import NEUMANN, BoundaryConditionSet
from .operators import SubdomainDiscretization

DEFAULT_ETA = {"cartesian": 0.0, "simplex": 1.0 / 3.0}

# Sub-face kinds.
INTERIOR, NEUMANN_SUB, DIRICHLET_SUB = 0, 1, 2

# Regions of one signature are solved in blocks whose largest stacks hold
# about this many numbers, and regions are built in chunks of an eighth as
# many sub-faces, so that memory stays bounded on any grid.
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


def _signature_groups(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(table, axis=0, return_inverse=True)`` for a table of counts
    with three columns, found by sorting one integer key per row."""
    base = int(table.max(initial=0)) + 1
    key = (table[:, 0] * base + table[:, 1]) * base + table[:, 2]
    _, first, group_of = np.unique(key, return_index=True, return_inverse=True)
    return table[first], group_of


def _face_rows(grid: SubdomainGrid, evaluated: np.ndarray) -> sps.csr_matrix:
    """The face x cell flux matrix with zero values: in the row of each
    ``evaluated`` face, every cell at one of its nodes, in ascending order.
    A cell is at a node where one of its faces is, as in the regions."""
    node_cells = grid.face_nodes @ abs(grid.cell_faces)
    rows = (sps.diags(evaluated.astype(float)) @ grid.face_nodes.T @ node_cells).tocsr()
    rows.sort_indices()
    rows.data[:] = 0.0
    return rows


def _positions(matrix: sps.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Where the entries (rows, cols) sit in ``matrix.data``, for rows of
    ``cols`` that are each an ascending subset of the sorted ``matrix`` row
    in ``rows``: a binary search run on all entries at once. Entry j of such
    a subset lies j to j + (row length - subset length) places into the row;
    each step keeps the part of that range from its middle on if the column
    lies there."""
    cols = cols.astype(matrix.indices.dtype)
    base = matrix.indptr[rows] + np.arange(cols.shape[1], dtype=matrix.indptr.dtype)
    size = matrix.indptr[rows + 1] - matrix.indptr[rows] - (cols.shape[1] - 1)
    while size.max(initial=0) > 1:
        half = size // 2
        base = base + half * (matrix.indices[base + half] <= cols)
        size = size - half
    return base


def _add_chunk(flux_cell, flux_boundary, sub_face, slot_pos, slot_val, boundary_term):
    """Add a chunk's sub-face slots into the face rows and its sub-face
    boundary terms into the face terms, one by one in sub-face order."""
    np.add.at(flux_cell.data, slot_pos, slot_val)
    np.add.at(flux_boundary, sub_face, boundary_term)


def _interaction_regions(grid, permeability, bc, eta):
    """Solve every interaction region of a grid with faces.

    Returns the face fluxes per unit cell pressure, a canonical CSR matrix
    of shape (face, cell) without stored zeros; the face boundary terms; and
    the diagnostics.

    Raises:
        SingularLocalSystemError: At the lowest-numbered degenerate node.
    """
    basis = _plane_basis(grid)
    d = grid.dim
    face_cells = grid.face_cells
    nodes_per_face = np.asarray(grid.face_nodes.sum(axis=0)).ravel().astype(int)
    area_share = grid.face_areas / nodes_per_face
    # Failures as (node, rank within the node, cell, message, cause); the
    # lowest is raised, as a node-by-node assembly would: within a node,
    # corner failures (rank 0) come first in cell order, then a singular
    # local system (rank 1).
    failures = []

    # Sub-faces: the (node, face) incidences, by node, then face.
    node_faces = grid.face_nodes.tocsr()
    node_faces.sort_indices()
    face_ptr = node_faces.indptr

    # Classify faces. face_side is the table column of the cell a one-sided
    # face belongs to (0 for two-sided ones: their fluxes are evaluated from
    # the plus cell). Complete conditions leave every other face Dirichlet.
    face_side = (face_cells[:, 0] < 0).astype(int)
    neumann = grid.internal_boundary | (bc.kind == NEUMANN)
    face_kind = np.where(np.all(face_cells >= 0, axis=1), INTERIOR, DIRICHLET_SUB)
    face_kind[(face_kind == DIRICHLET_SUB) & neumann] = NEUMANN_SUB

    # Outputs: the face rows and one boundary term per face.
    flux_cell = _face_rows(grid, face_kind != NEUMANN_SUB)
    flux_boundary = np.zeros(grid.n_faces)

    def solve_chunk(lo: int, hi: int) -> float:
        """Build and solve the regions of the nodes lo to hi - 1, and add
        their outputs into the face rows and terms; returns their largest
        local condition number. The chunk's tables live only while it runs,
        so that the next chunk reuses their memory."""
        sub_face = node_faces.indices[face_ptr[lo] : face_ptr[hi]]
        sub_node = np.repeat(np.arange(lo, hi), np.diff(face_ptr[lo : hi + 1]))

        # Corners: each cell of a region must have d faces at the node.
        corners = _corners(face_cells, sub_node, sub_face)
        corner_sub, place_of, corner_node, corner_cell, counts = corners
        wrong = np.flatnonzero(counts != d)
        if wrong.size:
            k = wrong[0]
            node, cell = int(corner_node[k]), int(corner_cell[k])
            message = f"cell {cell} has {counts[k]} faces at node {node}, expected {d}"
            failures.append((node, 0, cell, message, None))
            keep = ~np.isin(sub_node, corner_node[wrong])
            sub_node, sub_face = sub_node[keep], sub_face[keep]
            corner_sub, place_of, corner_node, corner_cell, _ = _corners(
                face_cells, sub_node, sub_face
            )
        n_sub, n_corners = sub_face.size, corner_cell.size
        # Each corner's sub-faces, by face; place_of[s, side] is corner * d
        # plus the position of sub-face s in the corner on that side.
        corner_sub = corner_sub.reshape(n_corners, d)

        # Regions: the chunk's nodes with sub-faces, numbered in node order.
        region_start = np.flatnonzero(np.diff(sub_node, prepend=-1))
        region_of_sub = np.cumsum(np.diff(sub_node, prepend=-1) != 0) - 1
        region_node = sub_node[region_start]
        corner_region = np.searchsorted(region_node, corner_node)
        corner_start = np.searchsorted(corner_region, np.arange(region_node.size))
        local_cell = np.arange(n_corners) - corner_start[corner_region]
        cells_of_region = np.diff(np.append(corner_start, n_corners))

        # Per corner: the flux rows from one stacked gradient inversion.
        x_cont = (1.0 - eta) * grid.face_centres[sub_face] + eta * grid.nodes[sub_node]
        sub_area = area_share[sub_face]
        flux_rows, singular_corners = _corner_flux_rows(
            grid, permeability, basis, x_cont, sub_area, sub_face, corner_sub, corner_cell
        )
        if singular_corners:
            k, exc = singular_corners[0]
            node, cell = int(corner_node[k]), int(corner_cell[k])
            failures.append((node, 0, cell, f"degenerate region at node {node}", exc))
        row_sums = flux_rows.sum(axis=2)

        # Number the unknowns per region; read the boundary data.
        kind, one_side = face_kind[sub_face], face_side[sub_face]
        on_boundary = grid.internal_boundary[sub_face]
        is_unknown = (kind == INTERIOR) | (kind == NEUMANN_SUB)
        before = np.cumsum(is_unknown) - is_unknown
        unknown_of = np.where(is_unknown, before - before[region_start[region_of_sub]], -1)
        n_unknown = np.bincount(region_of_sub[is_unknown], minlength=region_node.size)

        # Constant data is read as one array, functional data at its points.
        dirichlet = kind == DIRICHLET_SUB
        prescribed = (kind == NEUMANN_SUB) & ~on_boundary
        dirichlet_value = np.where(dirichlet, bc.value[sub_face], 0.0)
        neumann_flux = np.where(prescribed, bc.value[sub_face] * sub_area, 0.0)
        for s in np.flatnonzero((dirichlet | prescribed) & bc.functional[sub_face]):
            if dirichlet[s]:
                dirichlet_value[s] = bc.value_at(int(sub_face[s]), x_cont[s])
            else:
                neumann_flux[s] = bc.value_at(int(sub_face[s])) * sub_area[s]
        evaluated = (kind == INTERIOR) | dirichlet

        # One slot per cell at its node for each evaluated sub-face, and one
        # boundary term per sub-face: the Neumann flux, or the constant part
        # of the evaluated flux, which solve writes.
        n_slots = np.where(evaluated, cells_of_region[region_of_sub], 0)
        slot_ptr = np.append(0, np.cumsum(n_slots))
        slot_val = np.zeros(slot_ptr[-1])
        slot_pos = np.zeros(slot_ptr[-1], dtype=flux_cell.indptr.dtype)
        boundary_term = (1.0 - 2.0 * one_side) * neumann_flux

        def solve(block: np.ndarray, n_s: int, n_loc: int, n_unk: int) -> float:
            """Solve a block of regions with one signature, and write the
            outputs of their sub-faces. Returns the largest local condition
            number."""
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
                n_expr = np.where(
                    kind[subs] == INTERIOR, 2, np.where(kind[subs] == NEUMANN_SUB, 1, 0)
                )
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
                    failures.append((node, 1, 0, f"singular local system at node {node}", None))
                    return cond_max
                cond_max = float(cond.max())
                if not failures:
                    try:
                        solved[:, :n_unk] = np.linalg.solve(local, rhs)
                    except np.linalg.LinAlgError:
                        k, exc = _singular(local)[0]
                        node = int(region_node[block[k]])
                        failures.append((node, 1, 0, f"singular local system at node {node}", exc))
            if failures:
                return cond_max

            # Sub-face fluxes along the stored normal, evaluated from one side,
            # into the slots of the cells at their nodes.
            s = subs[evaluated[subs]]
            r = rank[evaluated[subs]]
            slots = slot_ptr[s][:, None] + np.arange(n_loc)
            cols = corner_cell[corner_start[block[r]][:, None] + np.arange(n_loc)]
            slot_pos[slots] = _positions(flux_cell, sub_face[s][:, None], cols)
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
            slot_val[slots] = cell_coeffs
            boundary_term[s] = const_term
            return cond_max

        # Signatures: regions with equal counts of sub-faces, cells and
        # unknowns share stacks of local systems.
        signatures, group_of = _signature_groups(
            np.column_stack([np.diff(np.append(region_start, n_sub)), cells_of_region, n_unknown])
        )
        max_condition = 0.0
        for group, (n_s, n_loc, n_unk) in enumerate(signatures):
            members = np.flatnonzero(group_of == group)
            per_block = max(1, BLOCK_ENTRIES // (n_s * (n_loc + 1) + n_unk * n_unk))
            for block in np.split(members, np.arange(per_block, members.size, per_block)):
                max_condition = max(max_condition, solve(block, n_s, n_loc, n_unk))
        # Chunks run in node order: the first to fail holds the lowest failing node.
        if failures:
            node, _, _, message, cause = min(failures, key=lambda f: f[:3])
            raise SingularLocalSystemError(node, message) from cause
        _add_chunk(flux_cell, flux_boundary, sub_face, slot_pos, slot_val, boundary_term)
        return max_condition

    # Chunks of consecutive nodes, of about BLOCK_ENTRIES // 8 sub-faces: a
    # chunk ends after the node whose sub-faces reach a multiple of that.
    # Only the outputs above are grid-sized.
    ends = np.flatnonzero(np.diff(face_ptr // (BLOCK_ENTRIES // 8))) + 1
    ends = np.append(ends[face_ptr[ends] < face_ptr[-1]], grid.n_nodes)
    max_condition = max(solve_chunk(lo, hi) for lo, hi in zip(np.append(0, ends[:-1]), ends))

    # A face sum that cancels to zero is dropped, as scipy's sparse products do.
    flux_cell.eliminate_zeros()
    return flux_cell, flux_boundary, {
        "mpfa_regions": int(np.count_nonzero(np.diff(face_ptr))),
        "mpfa_max_local_condition": float(max_condition),
    }


def assemble_mpfa(
    grid: SubdomainGrid, permeability: np.ndarray, bc: BoundaryConditionSet
) -> SubdomainDiscretization:
    """Multipoint discretization of one subdomain, with the continuity points
    of ``default_eta`` (0 on Cartesian grids, 1/3 on simplex grids).

    Parameters:
        grid: The subdomain grid (Cartesian or simplex; planar if embedded).
        permeability: Per-cell tensors, shape (n_cells, N, N).
        bc: Complete boundary conditions.

    Raises:
        SingularLocalSystemError: A degenerate interaction region, naming
            the lowest-numbered such node.
    """
    bc.validate_complete()
    n_faces, n_cells = grid.n_faces, grid.n_cells
    div = grid.cell_faces.T.tocsr()
    if n_faces == 0:
        return SubdomainDiscretization(
            flux_cell=sps.csr_matrix((0, n_cells)),
            flux_boundary=np.zeros(0),
            div=div,
            diagnostics={"mpfa_regions": 0, "mpfa_max_local_condition": 0.0},
        )

    flux_cell, flux_boundary, diagnostics = _interaction_regions(
        grid, permeability, bc, default_eta(grid)
    )
    return SubdomainDiscretization(
        flux_cell=flux_cell, flux_boundary=flux_boundary, div=div, diagnostics=diagnostics
    )
