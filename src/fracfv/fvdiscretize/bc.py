"""Per-face boundary conditions for flow and transport problems."""

from __future__ import annotations

import numpy as np

from ..errors import BoundaryConditionError
from ..mdmesh.grids import SubdomainGrid

DIRICHLET = 0
NEUMANN = 1
UNSET = 2


class BoundaryConditionSet:
    """One condition per external boundary face of a subdomain.

    For flow, Dirichlet values are pressures and Neumann values outward flux
    densities (per unit aperture-weighted area). For transport, Dirichlet
    values are concentrations and Neumann values outward tracer flux
    densities. Faces on internal boundaries (fracture interfaces) are
    implicitly no-flux within the subdomain discretization and cannot be
    assigned. Flow conditions default to homogeneous Neumann; transport
    conditions default to unset so inflow faces must be assigned explicitly.
    """

    def __init__(self, grid: SubdomainGrid, default: int = NEUMANN):
        self.grid = grid
        self.kind = np.full(grid.n_faces, UNSET, dtype=int)
        self.value = np.zeros(grid.n_faces)
        self.kind[grid.external_boundary] = default
        self._functions: list = []
        self._owner = np.full(grid.n_faces, -1)  # per face, its function; -1: constant

    def _check_assignable(self, faces: np.ndarray) -> np.ndarray:
        faces = np.atleast_1d(np.asarray(faces, dtype=int))
        external = self.grid.external_boundary
        bad = faces[~external[faces]]
        if bad.size:
            raise BoundaryConditionError(
                f"faces {bad.tolist()} are not external boundary faces and cannot carry conditions"
            )
        return faces

    def _assign(self, faces, value, kind: int):
        faces = self._check_assignable(faces)
        self.kind[faces] = kind
        # The latest assignment owns these faces.
        if callable(value):
            self._owner[faces] = len(self._functions)
            self._functions.append(value)
            self.value[faces] = np.atleast_1d(
                np.asarray([value(x) for x in self.grid.face_centres[faces]], dtype=float)
            )
        else:
            self._owner[faces] = -1
            self.value[faces] = value

    def set_dirichlet(self, faces, value) -> "BoundaryConditionSet":
        """Assign Dirichlet data; ``value`` may be a constant or f(point)."""
        self._assign(faces, value, DIRICHLET)
        return self

    def set_neumann(self, faces, value) -> "BoundaryConditionSet":
        """Assign Neumann data (outward flux density); constant or f(point)."""
        self._assign(faces, value, NEUMANN)
        return self

    @property
    def functional(self) -> np.ndarray:
        """Mask of the faces whose data is a function of the point; the
        others hold their constant in ``value``."""
        return self._owner >= 0

    def value_at(self, face: int, point: np.ndarray | None = None) -> float:
        """Boundary value of a face, honoring functional data at ``point``.

        Functional data keeps discretizations that impose conditions away
        from face centroids (sub-face continuity points) exact for fields
        the function describes.
        """
        owner = self._owner[face]
        if owner < 0:
            return float(self.value[face])
        where = self.grid.face_centres[face] if point is None else point
        return float(self._functions[owner](where))

    def validate_complete(self) -> None:
        """Every external boundary face must carry exactly one condition."""
        external = self.grid.external_boundary
        unset = np.flatnonzero(external & (self.kind == UNSET))
        if unset.size:
            raise BoundaryConditionError(f"boundary faces without conditions: {unset.tolist()}")


def flow_bc(grid: SubdomainGrid) -> BoundaryConditionSet:
    """Flow conditions defaulting to homogeneous Neumann everywhere."""
    return BoundaryConditionSet(grid, default=NEUMANN)


def transport_bc(grid: SubdomainGrid) -> BoundaryConditionSet:
    """Transport conditions defaulting to unset (inflow faces need data)."""
    return BoundaryConditionSet(grid, default=UNSET)
