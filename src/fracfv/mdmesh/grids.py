"""Cell/face/node grids for a single subdomain of the mixed-dimensional mesh.

A subdomain of dimension ``d`` lives in ``N``-dimensional ambient space.
Lower-dimensional measures carry the aperture weighting ``a**(N - d)``:
cell volumes are geometric d-measures times that factor, face areas are
geometric (d-1)-measures times the same factor. Point-shaped entities have
geometric measure one.

``build_grid`` derives every grid's geometry, generated or loaded, from its
node coordinates, the node lists of its cells and faces and its face-cell
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from ..errors import MeshError, MeshFormatError


@dataclass
class SubdomainGrid:
    """Geometry and topology of one subdomain.

    Each fact is stored once; the signed incidence and the aperture-weighted
    measures are derived from the stored table, aperture and measures.

    Attributes:
        dim: Topological dimension of the subdomain (0..ambient_dim).
        ambient_dim: Dimension of the embedding space.
        nodes: Node coordinates, shape (n_nodes, ambient_dim).
        cell_centres: Shape (n_cells, ambient_dim).
        geometric_cell_measures: Unweighted d-measures, shape (n_cells,).
        face_centres: Shape (n_faces, ambient_dim).
        face_normals: Unit normals, shape (n_faces, ambient_dim). They point
            out of the cell in column 0 of ``face_cells``.
        geometric_face_measures: Unweighted (d-1)-measures, shape (n_faces,).
        face_cells: Face-neighbour table, integer (n_faces, 2): column 0 holds
            the cell the normal points out of (sign +1 in ``cell_faces``),
            column 1 the cell it points into (sign -1), and -1 marks a
            missing side. The Cartesian builder writes it with the faces
            split along immersed subdomains already in place.
        face_nodes: Incidence, sparse (n_nodes, n_faces), boolean; each
            face's nodes in the order built or read (3D: boundary order).
        cell_nodes: Incidence, sparse (n_nodes, n_cells), boolean; sorted.
        aperture: The subdomain's aperture (length); 1 for the
            top-dimensional subdomain.
        internal_boundary: Boolean mask of faces that lie on an immersed
            lower-dimensional subdomain: the faces matched to its cells and
            the split copies of the two-sided ones.
        kind: "cartesian" or "simplex"; steers discretization defaults.
        metadata: Free-form construction info (fracture names, parents, ...).
    """

    dim: int
    ambient_dim: int
    nodes: np.ndarray
    cell_centres: np.ndarray
    geometric_cell_measures: np.ndarray
    face_centres: np.ndarray
    face_normals: np.ndarray
    geometric_face_measures: np.ndarray
    face_cells: np.ndarray
    face_nodes: sps.csc_matrix
    cell_nodes: sps.csc_matrix
    aperture: float
    internal_boundary: np.ndarray
    kind: str = "cartesian"
    metadata: dict = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        return self.cell_centres.shape[0]

    @property
    def n_faces(self) -> int:
        return self.face_centres.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def cell_faces(self) -> sps.csc_matrix:
        """Signed incidence, sparse (n_faces, n_cells) with +-1."""
        return cell_faces_of(self.face_cells, self.n_cells)

    @property
    def cell_volumes(self) -> np.ndarray:
        """Cell measures weighted by aperture^(N-d), shape (n_cells,)."""
        return self.geometric_cell_measures * self.aperture ** (self.ambient_dim - self.dim)

    @property
    def face_areas(self) -> np.ndarray:
        """Face measures weighted by aperture^(N-d), shape (n_faces,)."""
        return self.geometric_face_measures * self.aperture ** (self.ambient_dim - self.dim)

    @property
    def boundary_faces(self) -> np.ndarray:
        """Mask of faces with exactly one adjacent cell."""
        return np.count_nonzero(self.face_cells >= 0, axis=1) == 1

    def one_sided_cells(self, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cell of each given one-sided face, and the face's sign in it
        (+1 where the stored normal points out of the cell). A two-sided face
        gives its plus cell."""
        plus, minus = self.face_cells[faces].T
        return np.where(plus >= 0, plus, minus), np.where(plus >= 0, 1.0, -1.0)

    @property
    def external_boundary(self) -> np.ndarray:
        """Boundary faces that lie on the physical domain boundary."""
        return self.boundary_faces & ~self.internal_boundary

    def diameter(self) -> float:
        """Extent of the subdomain's bounding box diagonal."""
        if self.n_nodes == 0:
            return 0.0
        span = self.nodes.max(axis=0) - self.nodes.min(axis=0)
        return float(np.sqrt((span**2).sum()))


def cell_faces_of(face_cells: np.ndarray, n_cells: int) -> sps.csc_matrix:
    """Signed face-cell incidence of a face-neighbour table."""
    rows, side = np.nonzero(face_cells >= 0)
    signs = 1.0 - 2.0 * side
    return sps.csc_matrix(
        (signs, (rows, face_cells[rows, side])), shape=(face_cells.shape[0], n_cells)
    )


# ---------------------------------------------------------------------------
# Geometry of cells described by nodes and faces
# ---------------------------------------------------------------------------

# Runs of one width, and cells, are stacked at most this many at a time, so
# that the stacked arrays of a large grid stay small.
BLOCK_RUNS = 1024


def by_width(ptr: np.ndarray):
    """For each width among the runs ``ptr[i]:ptr[i + 1]``, in blocks of at
    most ``BLOCK_RUNS`` runs: the positions ``i`` of the runs, and the slots
    of their entries as one (runs, width) array."""
    widths = np.diff(ptr)
    for width in np.unique(widths):
        same = np.flatnonzero(widths == width)
        for positions in np.split(same, np.arange(BLOCK_RUNS, same.size, BLOCK_RUNS)):
            yield positions, ptr[positions, None] + np.arange(width)


def _incidence(ptr: np.ndarray, idx: np.ndarray, n_nodes: int) -> sps.csc_matrix:
    """Boolean incidence, sparse (n_nodes, n_entities), of entities whose
    nodes are ``idx[ptr[i]:ptr[i + 1]]``, kept in that order."""
    return sps.csc_matrix((np.ones(idx.size, dtype=bool), idx, ptr), (n_nodes, ptr.size - 1))


def _polygon_geometry(nodes: np.ndarray, ptr: np.ndarray, idx: np.ndarray):
    """Areas, unit normals and centroids of planar polygons in 3D, polygon
    ``i`` with the nodes ``idx[ptr[i]:ptr[i + 1]]`` in boundary order. Each is
    split into a fan of triangles about its node mean; polygons with the
    same node count are done a block at a time. A polygon of zero area, or
    one that lists a node twice, raises MeshFormatError."""
    n_faces = ptr.size - 1
    areas, normals, centroids = np.zeros(n_faces), np.zeros((n_faces, 3)), np.zeros((n_faces, 3))
    for faces, slots in by_width(ptr):
        pts = nodes[idx[slots]]
        ahead = np.roll(pts, -1, axis=1)
        ref = pts.mean(axis=1, keepdims=True)
        cross = np.cross(pts - ref, ahead - ref)
        tri_areas = 0.5 * np.linalg.norm(cross, axis=2)
        area = tri_areas.sum(axis=1)
        if area.min() <= 0.0:
            raise MeshFormatError("degenerate polygon face")
        ranked = np.sort(idx[slots], axis=1)
        twice = np.flatnonzero(np.any(ranked[:, 1:] == ranked[:, :-1], axis=1))
        if twice.size:
            raise MeshFormatError(f"face {faces[twice[0]]} lists a node twice")
        total = 0.5 * cross.sum(axis=1)
        areas[faces] = area
        normals[faces] = total / np.linalg.norm(total, axis=1, keepdims=True)
        weighted = np.einsum("fk,fkd->fd", tri_areas, ref + pts + ahead) / 3.0
        centroids[faces] = weighted / area[:, None]
    return areas, normals, centroids


def build_grid(
    dim: int,
    nodes: np.ndarray,
    cell_nodes: tuple[np.ndarray, np.ndarray],
    face_nodes: tuple[np.ndarray, np.ndarray],
    face_cells: np.ndarray,
    aperture: float,
    kind: str,
) -> SubdomainGrid:
    """The grid of cells and faces with the node lists ``(ptr, idx)`` of
    ``cell_nodes`` and ``face_nodes``, 3D polygons' nodes in boundary order.
    It keeps each face's list as given and each cell's sorted.

    Cell centres are node means. Faces get centroids, measures and unit
    normals that point out of the cell in column 0 of ``face_cells``; cell
    measures follow by the divergence theorem. A point cell has measure one.

    Raises:
        MeshFormatError: A face or cell whose geometry is degenerate, or a
            polygon that lists a node twice.
    """
    (cell_ptr, cell_idx), (face_ptr, face_idx) = cell_nodes, face_nodes
    n_cells, n_faces, ambient = cell_ptr.size - 1, face_ptr.size - 1, nodes.shape[1]

    cell_centres = np.zeros((n_cells, ambient))
    for cells, slots in by_width(cell_ptr):
        cell_centres[cells] = nodes[cell_idx[slots]].mean(axis=1)

    # Face centroids, measures and unit normals, then normals oriented
    # outward from the plus cell.
    c_plus, c_minus = face_cells.T
    face_normals = None  # unless the face alone fixes it, the adjacent cell does
    if dim == 3:
        face_measures, face_normals, face_centres = _polygon_geometry(nodes, face_ptr, face_idx)
    elif dim == 2:
        if np.any(np.diff(face_ptr) != 2):
            raise MeshFormatError("faces of 2D cells must have two nodes")
        ends = nodes[face_idx.reshape(n_faces, 2)]
        edges = ends[:, 1] - ends[:, 0]
        face_measures = np.linalg.norm(edges, axis=1)
        if n_faces and face_measures.min() <= 0:
            raise MeshFormatError("zero-length face")
        face_centres = ends.mean(axis=1)
        along = edges / face_measures[:, None]
        if ambient == 2:
            face_normals = np.column_stack([along[:, 1], -along[:, 0]])
    else:  # point faces of 1D cells; 0D cells have no faces
        if np.any(np.diff(face_ptr) != 1):
            raise MeshFormatError("point faces must have one node")
        face_centres = nodes[face_idx]
        face_measures = np.ones(n_faces)
    outward = face_centres - cell_centres[np.where(c_plus >= 0, c_plus, c_minus)]
    if face_normals is None:
        if dim == 2:  # in-plane perpendicular of an edge of a 2D cell in 3D
            face_normals = outward - np.sum(outward * along, axis=1, keepdims=True) * along
        else:
            face_normals = outward
        lengths = np.linalg.norm(face_normals, axis=1)
        if n_faces and lengths.min() <= 0:
            raise MeshFormatError(f"cannot orient face {int(np.argmin(lengths))}")
        face_normals = face_normals / lengths[:, None]
    # Flip normals that point into their anchor cell; a face stored with only
    # a minus side keeps its normal pointing into that side.
    flip = (np.sum(face_normals * outward, axis=1) < 0) != (c_plus < 0)
    face_normals[flip] *= -1.0

    # Cell volumes by the divergence theorem over outward-oriented faces, a
    # block of cells at a time.
    volumes = np.ones(n_cells)
    if dim > 0:
        cf = cell_faces_of(face_cells, n_cells)
        for start in range(0, n_cells, BLOCK_RUNS):
            ptr = cf.indptr[start : start + BLOCK_RUNS + 1]
            at, n = slice(ptr[0], ptr[-1]), ptr.size - 1
            faces, cells = cf.indices[at], np.repeat(np.arange(n), np.diff(ptr))
            offsets = face_centres[faces] - cell_centres[start + cells]
            contrib = face_measures[faces] * np.sum(face_normals[faces] * offsets, axis=1)
            volumes[start : start + n] = np.bincount(cells, cf.data[at] * contrib / dim, n)
        if n_faces and volumes.min() <= 0:
            bad = int(np.argmin(volumes))
            raise MeshFormatError(f"cell {bad} has non-positive volume {volumes[bad]:.3e}")

    cell_incidence = _incidence(cell_ptr, cell_idx, nodes.shape[0])
    cell_incidence.sum_duplicates()  # and sorts each cell's nodes
    return SubdomainGrid(
        dim=dim,
        ambient_dim=ambient,
        nodes=nodes,
        cell_centres=cell_centres,
        geometric_cell_measures=volumes,
        face_centres=face_centres,
        face_normals=face_normals,
        geometric_face_measures=face_measures,
        face_cells=face_cells,
        face_nodes=_incidence(face_ptr, face_idx, nodes.shape[0]),
        cell_nodes=cell_incidence,
        aperture=aperture,
        internal_boundary=np.zeros(n_faces, dtype=bool),
        kind=kind,
    )


def validate_grid(grid: SubdomainGrid) -> None:
    """Check the structural invariants of a subdomain grid.

    Raises:
        MeshError: If any invariant is violated.
    """
    n_cells, n_faces = grid.n_cells, grid.n_faces
    if n_cells == 0:
        raise MeshError("subdomain has no cells")
    if not (np.isfinite(grid.aperture) and grid.aperture > 0.0):
        raise MeshError(f"aperture {grid.aperture} is not finite and positive")

    outside = (grid.face_cells < -1) | (grid.face_cells >= n_cells)
    if outside.any():
        face, side = np.argwhere(outside)[0]
        raise MeshError(f"face {face} names cell {grid.face_cells[face, side]} of {n_cells}")
    counts = np.count_nonzero(grid.face_cells >= 0, axis=1)
    if n_faces and (counts.min() < 1 or counts.max() > 2):
        bad = int(np.flatnonzero((counts < 1) | (counts > 2))[0])
        raise MeshError(f"face {bad} has {counts[bad]} adjacent cells (must be 1 or 2)")

    if n_faces:
        norms = np.linalg.norm(grid.face_normals, axis=1)
        if not np.allclose(norms, 1.0, rtol=0.0, atol=1e-12):
            raise MeshError("face normals are not unit vectors")
        if grid.face_areas.min() <= 0.0 or grid.geometric_face_measures.min() <= 0.0:
            raise MeshError("non-positive face area")
    if grid.cell_volumes.min() <= 0.0 or grid.geometric_cell_measures.min() <= 0.0:
        raise MeshError("non-positive cell volume")

    if grid.dim == grid.ambient_dim and grid.aperture != 1.0:
        raise MeshError("the highest-dimensional subdomain must have unit aperture")

    # Geometric closure: signed unweighted face areas sum to zero per cell.
    if grid.dim >= 1 and n_faces:
        vec = grid.face_normals * grid.geometric_face_measures[:, None]
        closure = grid.cell_faces.T @ vec  # (n_cells, N) signed sums
        scale_area = np.abs(vec).max()
        if np.abs(closure).max() > 1e-12 * max(scale_area, 1e-300):
            raise MeshError("cells are not geometrically closed")

