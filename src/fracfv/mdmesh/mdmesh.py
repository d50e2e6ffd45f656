"""Mixed-dimensional mesh: subdomain grids plus matched interface maps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConformityError, MeshError
from .grids import SubdomainGrid, validate_grid


@dataclass
class InterfaceMap:
    """Matched pairs between a subdomain and an immersed one of dimension-1 lower.

    Attributes:
        higher: Index of the higher-dimensional subdomain.
        lower: Index of the lower-dimensional subdomain.
        face_cell_pairs: Integer array (n_pairs, 2) of (higher-dim face,
            lower-dim cell) indices. Each face appears exactly once; a cell
            appears once per side of the immersed subdomain.
    """

    higher: int
    lower: int
    face_cell_pairs: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.face_cell_pairs.shape[0]


@dataclass
class MixedDimensionalMesh:
    """A hierarchy of subdomain grids coupled through matched interfaces.

    Subdomains are stored in descending dimension. The global degree-of-freedom
    map enumerates cells subdomain by subdomain in storage order.
    """

    subdomains: list[SubdomainGrid]
    interfaces: list[InterfaceMap] = field(default_factory=list)

    def __post_init__(self):
        self._offsets = np.cumsum([0] + [g.n_cells for g in self.subdomains])

    @property
    def ambient_dim(self) -> int:
        return self.subdomains[0].ambient_dim

    @property
    def n_dofs(self) -> int:
        return int(self._offsets[-1])

    def dof_offset(self, subdomain: int) -> int:
        return int(self._offsets[subdomain])

    def global_index(self, subdomain: int, cell) -> np.ndarray:
        return self._offsets[subdomain] + np.asarray(cell)

    def subdomain_slice(self, subdomain: int) -> slice:
        return slice(int(self._offsets[subdomain]), int(self._offsets[subdomain + 1]))

    def dof_subdomains(self) -> np.ndarray:
        """Subdomain index per global dof."""
        return np.repeat(np.arange(len(self.subdomains)), np.diff(self._offsets))

    def dof_dims(self) -> np.ndarray:
        """Subdomain dimension per global dof."""
        return np.array([g.dim for g in self.subdomains])[self.dof_subdomains()]

    def all_cell_volumes(self) -> np.ndarray:
        return np.concatenate([g.cell_volumes for g in self.subdomains])

    def all_cell_centres(self) -> np.ndarray:
        return np.concatenate([g.cell_centres for g in self.subdomains], axis=0)

    def subdomains_of_dim(self, dim: int) -> list[int]:
        return [i for i, g in enumerate(self.subdomains) if g.dim == dim]

    def highest_dim_subdomain(self) -> SubdomainGrid:
        return self.subdomains[self.subdomains_of_dim(self.ambient_dim)[0]]

    def intersection_dofs(self, zero_d_only: bool = False) -> np.ndarray:
        """Global dofs of intersection subdomains (dim <= ambient_dim - 2)."""
        cutoff = 0 if zero_d_only else self.ambient_dim - 2
        picks = []
        for i, g in enumerate(self.subdomains):
            if g.dim <= cutoff:
                picks.append(np.arange(self.dof_offset(i), self.dof_offset(i) + g.n_cells))
        if not picks:
            return np.empty(0, dtype=int)
        return np.concatenate(picks)

    def domain_diameter(self) -> float:
        return self.highest_dim_subdomain().diameter()

    def validate(self) -> None:
        """Validate all grid and interface invariants.

        Raises:
            MeshError / ConformityError on violations.
        """
        for g in self.subdomains:
            validate_grid(g)
        dims = [g.dim for g in self.subdomains]
        if any(dims[i] < dims[i + 1] for i in range(len(dims) - 1)):
            raise MeshError("subdomains must be stored in descending dimension")

        tol = 1e-10 * max(self.domain_diameter(), 1e-300)
        for k, intf in enumerate(self.interfaces):
            hi, lo = self.subdomains[intf.higher], self.subdomains[intf.lower]
            if hi.dim != lo.dim + 1:
                raise MeshError(
                    f"interface {k} connects dimensions {hi.dim} and {lo.dim}; they must differ by 1"
                )
            pairs = intf.face_cell_pairs
            faces = pairs[:, 0]
            if np.unique(faces).size != faces.size:
                raise MeshError(f"interface {k} maps a face to more than one cell")
            if not hi.internal_boundary[faces].all():
                raise MeshError(f"interface {k} uses faces not tagged as internal boundary")
            if not hi.boundary_faces[faces].all():
                raise MeshError(f"interface {k} uses faces with two attached cells")
            dist = np.linalg.norm(hi.face_centres[faces] - lo.cell_centres[pairs[:, 1]], axis=1)
            if dist.size and dist.max() >= tol:
                worst = int(np.argmax(dist))
                raise ConformityError(
                    f"interface {k} pair {worst} (face {pairs[worst, 0]}, cell "
                    f"{pairs[worst, 1]}) mismatches by {dist[worst]:.3e}"
                )
