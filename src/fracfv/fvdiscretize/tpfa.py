"""Two-point flux approximation.

Half transmissibilities follow the aperture-weighted form
``alpha = A * (n . K . d) / (d . d)`` with the distance vector d from the
cell centre to the face centre and the unit normal n outward from the cell.
Face transmissibilities are harmonic combinations of the two halves.
Negative half transmissibilities (skewed geometry and anisotropy) are kept
and counted in the diagnostics rather than repaired.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

from ..errors import DegenerateGeometryError
from ..mdmesh.grids import SubdomainGrid
from .bc import DIRICHLET, NEUMANN, BoundaryConditionSet
from .operators import SubdomainDiscretization


def half_transmissibility(face_area, normal_out, distance, k_matrix):
    """One-sided conductance of a cell toward one of its faces.

    Each argument is one face's value or a stack of them along a leading
    axis; the result has the matching shape.

    Parameters:
        face_area: Aperture-weighted face area.
        normal_out: Unit face normal pointing out of the cell.
        distance: Vector from the cell centre to the face centre.
        k_matrix: Permeability tensor of the cell.
    """
    dd = np.einsum("...i,...i->...", distance, distance)
    if np.any(dd == 0.0):
        raise DegenerateGeometryError("zero distance vector between cell and face centre")
    n_k = np.einsum("...i,...ij->...j", normal_out, k_matrix)
    return face_area * np.einsum("...j,...j->...", n_k, distance) / dd


def face_transmissibility(alpha_i, alpha_j):
    """Harmonic combination of two half transmissibilities (scalars or arrays).

    A vanishing sum denotes a fully blocking face and yields zero.
    """
    s = np.add(alpha_i, alpha_j)
    product = np.multiply(alpha_i, alpha_j)
    return np.divide(product, s, out=np.zeros_like(product), where=s != 0.0)[()]


def assemble_tpfa(
    grid: SubdomainGrid, permeability: np.ndarray, bc: BoundaryConditionSet
) -> SubdomainDiscretization:
    """Two-point discretization of one subdomain.

    Parameters:
        grid: The subdomain grid.
        permeability: Per-cell tensors, shape (n_cells, N, N).
        bc: Complete boundary conditions for the external boundary.

    Returns:
        The flux/divergence operators; interior faces carry
        ``-t * (p_j - p_i)``, Dirichlet faces the one-sided half
        transmissibility against the boundary pressure, Neumann faces the
        prescribed flux, internal-boundary faces zero.
    """
    bc.validate_complete()
    n_faces, n_cells = grid.n_faces, grid.n_cells
    div = grid.cell_faces.T.tocsr()
    plus, minus = grid.face_cells.T

    # Half transmissibilities of both sides of every face outside the
    # internal boundary (the coupling supplies the fluxes of those faces).
    alpha = np.zeros((n_faces, 2))
    for side, (cells, sign) in enumerate(((plus, 1.0), (minus, -1.0))):
        faces = np.flatnonzero((cells >= 0) & ~grid.internal_boundary)
        c = cells[faces]
        alpha[faces, side] = half_transmissibility(
            grid.face_areas[faces],
            sign * grid.face_normals[faces],
            grid.face_centres[faces] - grid.cell_centres[c],
            permeability[c],
        )

    # Interior faces: flux along the stored normal, t * (p_plus - p_minus).
    interior = np.flatnonzero((plus >= 0) & (minus >= 0) & ~grid.internal_boundary)
    a_plus, a_minus = alpha[interior].T
    t = face_transmissibility(a_plus, a_minus)
    blocking = (a_plus + a_minus == 0.0) & ~((a_plus == 0.0) & (a_minus == 0.0))

    # External faces: Dirichlet data against the one-sided transmissibility,
    # Neumann data as the prescribed flux.
    flux_boundary = np.zeros(n_faces)
    ext = np.flatnonzero(grid.external_boundary)
    cells, signs = grid.one_sided_cells(ext)
    a_ext = np.where(signs > 0, alpha[ext, 0], alpha[ext, 1])
    dirichlet = bc.kind[ext] == DIRICHLET
    neumann = bc.kind[ext] == NEUMANN
    f_d, f_n = ext[dirichlet], ext[neumann]
    flux_boundary[f_d] = -signs[dirichlet] * a_ext[dirichlet] * bc.value[f_d]
    flux_boundary[f_n] = signs[neumann] * bc.value[f_n] * grid.face_areas[f_n]

    rows = np.concatenate([interior, interior, f_d])
    cols = np.concatenate([plus[interior], minus[interior], cells[dirichlet]])
    vals = np.concatenate([t, -t, signs[dirichlet] * a_ext[dirichlet]])
    flux_cell = sps.csr_matrix((vals, (rows, cols)), shape=(n_faces, n_cells))
    diagnostics = {
        "negative_half_transmissibilities": int(np.count_nonzero(alpha < 0.0)),
        "negative_face_transmissibilities": int(np.count_nonzero(t < 0.0)),
        "blocking_faces": int(np.count_nonzero(blocking)),
    }
    return SubdomainDiscretization(
        flux_cell=flux_cell, flux_boundary=flux_boundary, div=div, diagnostics=diagnostics
    )
