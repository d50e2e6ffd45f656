"""Cell/face/node grids for a single subdomain of the mixed-dimensional mesh.

A subdomain of dimension ``d`` lives in ``N``-dimensional ambient space.
Lower-dimensional measures carry the aperture weighting ``a**(N - d)``:
cell volumes are geometric d-measures times that factor, face areas are
geometric (d-1)-measures times the same factor. Point-shaped entities have
geometric measure one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from ..errors import MeshError


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
            missing side. ``split_faces`` keeps it current.
        face_nodes: Incidence, sparse (n_nodes, n_faces), boolean.
        cell_nodes: Incidence, sparse (n_nodes, n_cells), boolean.
        aperture: The subdomain's aperture (length); 1 for the
            top-dimensional subdomain.
        internal_boundary: Boolean mask of faces created by splitting along
            immersed lower-dimensional subdomains (or matched to them).
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
