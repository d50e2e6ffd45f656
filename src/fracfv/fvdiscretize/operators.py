"""Flux and divergence operators produced by the subdomain discretizations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps


@dataclass
class SubdomainDiscretization:
    """Linear operators of one subdomain's internal flow discretization.

    ``flux_cell`` maps cell pressures to signed face fluxes (positive along
    the stored face normal); ``flux_boundary`` is the additive flux
    contribution of the boundary data captured at assembly. ``div`` is the
    signed cell-face incidence. The subdomain's contribution to the global
    system is ``div @ flux_cell`` with right-hand side ``-div @ flux_boundary``.

    Faces on internal boundaries carry zero here; interdimensional coupling
    supplies their fluxes separately.
    """

    flux_cell: sps.csr_matrix
    flux_boundary: np.ndarray
    div: sps.csr_matrix
    diagnostics: dict = field(default_factory=dict)

    @property
    def matrix(self) -> sps.csr_matrix:
        return (self.div @ self.flux_cell).tocsr()

    @property
    def rhs(self) -> np.ndarray:
        return -(self.div @ self.flux_boundary)


def reconstruct_fluxes(disc: SubdomainDiscretization, pressures: np.ndarray) -> np.ndarray:
    """Signed face fluxes (along stored normals) for a given pressure field.

    Boundary data entered the discretization at assembly: Dirichlet faces
    evaluate the one-sided flux against the boundary pressure, Neumann faces
    return the prescribed total flux. Internal-boundary faces report zero;
    their fluxes live on the interface couplings.
    """
    return disc.flux_cell @ np.asarray(pressures, dtype=float) + disc.flux_boundary
