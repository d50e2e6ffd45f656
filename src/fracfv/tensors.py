"""Symmetric positive-definite permeability tensors and per-cell tensor fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PermeabilityError


@dataclass(frozen=True)
class PermeabilityTensor:
    """A symmetric positive-definite second-order tensor.

    The tensor acts per cell; use :meth:`field` to broadcast a constant
    tensor onto all cells of a grid.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if not np.all(np.isfinite(m)):
            raise PermeabilityError(f"tensor entries must be finite, got {m.tolist()}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PermeabilityError(f"tensor must be square, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-13 * max(1.0, np.abs(m).max())):
            raise PermeabilityError("tensor must be symmetric")
        eigenvalues = np.linalg.eigvalsh(m)
        if eigenvalues.min() <= 0.0:
            raise PermeabilityError(f"tensor must be positive definite, eigenvalues {eigenvalues}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def isotropic(cls, k: float, dim: int) -> "PermeabilityTensor":
        return cls(k * np.eye(dim))

    @classmethod
    def diagonal(cls, *principal_values: float) -> "PermeabilityTensor":
        return cls(np.diag(np.asarray(principal_values, dtype=float)))

    @classmethod
    def rotated(
        cls,
        principal_values,
        angle_degrees: float,
        plane: tuple[int, int] = (0, 1),
    ) -> "PermeabilityTensor":
        """Diagonal tensor rotated by an angle within a coordinate plane.

        Parameters:
            principal_values: Eigenvalues along the (pre-rotation) axes.
            angle_degrees: Rotation angle, counterclockwise in the plane.
            plane: Pair of axis indices spanning the rotation plane.
        """
        values = np.asarray(principal_values, dtype=float)
        dim = values.size
        i, j = plane
        theta = np.deg2rad(angle_degrees)
        rot = np.eye(dim)
        rot[i, i] = np.cos(theta)
        rot[j, j] = np.cos(theta)
        rot[i, j] = -np.sin(theta)
        rot[j, i] = np.sin(theta)
        return cls(rot @ np.diag(values) @ rot.T)

    def field(self, n_cells: int) -> np.ndarray:
        """Broadcast to a per-cell tensor field of shape (n_cells, dim, dim)."""
        return np.broadcast_to(self.matrix, (n_cells,) + self.matrix.shape).copy()


def as_tensor(permeability, dim: int) -> PermeabilityTensor:
    """A scalar (isotropic), a (dim, dim) array or a tensor as a tensor of
    dimension ``dim``."""
    if np.isscalar(permeability):
        permeability = PermeabilityTensor.isotropic(float(permeability), dim)
    elif not isinstance(permeability, PermeabilityTensor):
        permeability = PermeabilityTensor(permeability)
    if permeability.dim != dim:
        raise PermeabilityError(
            f"tensor dimension {permeability.dim} does not match grid dimension {dim}"
        )
    return permeability


def tensor_field(permeability, n_cells: int, dim: int) -> np.ndarray:
    """An (n_cells, dim, dim) field: such a field as it is, anything else
    ``as_tensor`` takes on every cell."""
    if np.shape(permeability) == (n_cells, dim, dim):
        return np.asarray(permeability, dtype=float)
    return as_tensor(permeability, dim).field(n_cells)


def normal_permeability(k_matrix: np.ndarray, normal: np.ndarray | None):
    """Normal component n·K·n of a tensor; eigenvalue mean if no normal exists.

    Point-shaped cells carry no direction, so the isotropic equivalent
    (mean of eigenvalues, i.e. trace/dim) is used. Stacks of tensors and
    normals along a leading axis give one value each.
    """
    if normal is None:
        return np.trace(k_matrix, axis1=-2, axis2=-1) / k_matrix.shape[-1]
    n_k = np.einsum("...i,...ij->...j", normal, k_matrix)
    return np.einsum("...j,...j->...", n_k, normal)
