"""Interdimensional coupling fluxes and global block-system assembly.

Each interface pair (higher-dimensional face, lower-dimensional cell) gets a
two-point transmissibility: the harmonic combination of the higher cell's
half transmissibility toward the face and the lower cell's conductance over
half its aperture. The four block contributions of a pair cancel on constant
pressure. The highest-dimensional subdomain receives no coupling from above.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sps

from .errors import AssemblyError, DegenerateGeometryError, MissingCouplingError
from .fvdiscretize.bc import BoundaryConditionSet, flow_bc
from .fvdiscretize.mpfa import assemble_mpfa
from .fvdiscretize.operators import SubdomainDiscretization, reconstruct_fluxes
from .fvdiscretize.tpfa import assemble_tpfa, face_transmissibility, half_transmissibility
from .linsolve import as_csr
from .mdmesh.mdmesh import MixedDimensionalMesh
from .tensors import normal_permeability, tensor_field


def interface_transmissibility(
    face_area,
    normal_out,
    distance,
    k_higher,
    aperture,
    k_lower,
    lower_dim: int,
    distance_correction: bool = False,
):
    """Transmissibility of (higher face, lower cell) pairs.

    Each argument but ``lower_dim`` and ``distance_correction`` is one pair's
    value or a stack of them along a leading axis. The lower-dimensional side
    is extended by half an aperture normal to the interface:
    ``alpha_lower = (n . K_lower . n) / (a / 2) * A``. The higher side uses
    the standard half transmissibility, optionally with the
    aperture-corrected distance ``d * (1 - a / (2 |d|))`` that removes the
    double-counted half aperture.

    Returns:
        (t, alpha_higher, alpha_lower).

    Raises:
        DegenerateGeometryError: If the correction would flip the distance
            vector (requires the aperture to be small against the mesh size).
    """
    if distance_correction:
        dist_norm = np.linalg.norm(distance, axis=-1)
        wide_a, wide_d = np.broadcast_arrays(aperture, dist_norm)
        flipped = np.flatnonzero(wide_a >= 2.0 * wide_d)
        if flipped.size:
            i = flipped[0]
            raise DegenerateGeometryError(
                f"aperture {wide_a.flat[i]} is not small against the cell-face distance "
                f"{wide_d.flat[i]}; the distance correction assumes apertures well below "
                "the smallest cell size"
            )
        distance = distance * np.expand_dims(1.0 - aperture / (2.0 * dist_norm), -1)
    alpha_higher = half_transmissibility(face_area, normal_out, distance, k_higher)
    kappa = normal_permeability(k_lower, None if lower_dim == 0 else normal_out)
    alpha_lower = kappa / (aperture / 2.0) * face_area
    return face_transmissibility(alpha_higher, alpha_lower), alpha_higher, alpha_lower


@dataclass
class CouplingDiscretization:
    """Per-interface transmissibilities and their block placement.

    Positive interface flux is directed from the higher-dimensional cell into
    the lower-dimensional cell.
    """

    interface: int
    higher: int
    lower: int
    faces: np.ndarray
    higher_cells: np.ndarray
    lower_cells: np.ndarray
    transmissibility: np.ndarray
    alpha_higher: np.ndarray
    alpha_lower: np.ndarray
    higher_dofs: np.ndarray
    lower_dofs: np.ndarray


def discretize_interface(
    mesh: MixedDimensionalMesh,
    interface_index: int,
    permeability_higher: np.ndarray,
    permeability_lower: np.ndarray,
    distance_correction: bool = False,
) -> CouplingDiscretization:
    """Compute the coupling transmissibilities of one interface."""
    intf = mesh.interfaces[interface_index]
    hi = mesh.subdomains[intf.higher]
    lo = mesh.subdomains[intf.lower]
    faces = intf.face_cell_pairs[:, 0]
    lower_cells = intf.face_cell_pairs[:, 1]
    two_sided = np.flatnonzero(~hi.boundary_faces[faces])
    if two_sided.size:
        raise AssemblyError(f"interface face {faces[two_sided[0]]} is not one-sided")
    higher_cells, signs = hi.one_sided_cells(faces)
    t, a_hi, a_lo = interface_transmissibility(
        hi.face_areas[faces],
        signs[:, None] * hi.face_normals[faces],
        hi.face_centres[faces] - hi.cell_centres[higher_cells],
        permeability_higher[higher_cells],
        lo.apertures[lower_cells],
        permeability_lower[lower_cells],
        lo.dim,
        distance_correction,
    )
    return CouplingDiscretization(
        interface=interface_index,
        higher=intf.higher,
        lower=intf.lower,
        faces=faces.copy(),
        higher_cells=higher_cells,
        lower_cells=lower_cells.copy(),
        transmissibility=t,
        alpha_higher=a_hi,
        alpha_lower=a_lo,
        higher_dofs=mesh.global_index(intf.higher, higher_cells),
        lower_dofs=mesh.global_index(intf.lower, lower_cells),
    )


@dataclass
class GlobalSystem:
    """The assembled mixed-dimensional system with its building blocks."""

    mesh: MixedDimensionalMesh
    matrix: sps.csr_matrix
    rhs: np.ndarray
    discs: list[SubdomainDiscretization]
    couplings: list[CouplingDiscretization]
    bcs: list[BoundaryConditionSet]
    source_density: np.ndarray | None = None


def assemble_global(
    mesh: MixedDimensionalMesh,
    discs: list[SubdomainDiscretization],
    couplings: list[CouplingDiscretization],
    bcs: list[BoundaryConditionSet],
    source_density: np.ndarray | None = None,
) -> GlobalSystem:
    """Assemble subdomain blocks and coupling blocks into one sparse system.

    Parameters:
        discs: One discretization per subdomain, in mesh order.
        couplings: One coupling per interface (any order); every interface
            must be covered.
        source_density: Optional per-dof volumetric source density,
            integrated against cell volumes into the right-hand side.

    Raises:
        MissingCouplingError: If an interface lacks its coupling.
    """
    if len(discs) != len(mesh.subdomains):
        raise AssemblyError("need exactly one discretization per subdomain")
    covered = {c.interface for c in couplings}
    missing = [k for k in range(len(mesh.interfaces)) if k not in covered]
    if missing:
        raise MissingCouplingError(f"interfaces without coupling discretizations: {missing}")

    n = mesh.n_dofs
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for sd, disc in enumerate(discs):
        block = as_csr(disc.matrix).tocoo()
        offset = mesh.dof_offset(sd)
        rows.append(block.row + offset)
        cols.append(block.col + offset)
        vals.append(block.data)
        rhs[mesh.subdomain_slice(sd)] += disc.rhs

    for c in couplings:
        t = c.transmissibility
        hi, lo = c.higher_dofs, c.lower_dofs
        rows.append(hi), cols.append(hi), vals.append(t)
        rows.append(hi), cols.append(lo), vals.append(-t)
        rows.append(lo), cols.append(hi), vals.append(-t)
        rows.append(lo), cols.append(lo), vals.append(t)

    matrix = sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    matrix.sum_duplicates()
    matrix.sort_indices()

    if source_density is not None:
        rhs = rhs + np.asarray(source_density, dtype=float) * mesh.all_cell_volumes()

    return GlobalSystem(mesh, matrix, rhs, list(discs), list(couplings), list(bcs), source_density)


def interface_fluxes(system: GlobalSystem, p: np.ndarray) -> list[np.ndarray]:
    """Per-pair coupling fluxes, positive from the higher into the lower cell."""
    out = []
    for c in system.couplings:
        out.append(-c.transmissibility * (p[c.lower_dofs] - p[c.higher_dofs]))
    return out


def conservation_residual(system: GlobalSystem, p: np.ndarray) -> float:
    """Max per-cell mass-balance residual relative to the right-hand side.

    Recomputes cell balances from reconstructed face fluxes and coupling
    fluxes rather than from the matrix, so it also exercises the flux
    reconstruction path.
    """
    mesh = system.mesh
    if system.source_density is not None:
        residual = -np.asarray(system.source_density, dtype=float) * mesh.all_cell_volumes()
    else:
        residual = np.zeros(mesh.n_dofs)
    for sd, disc in enumerate(system.discs):
        p_loc = p[mesh.subdomain_slice(sd)]
        fluxes = reconstruct_fluxes(disc, p_loc)
        residual[mesh.subdomain_slice(sd)] += disc.div @ fluxes
    for c, flux in zip(system.couplings, interface_fluxes(system, p)):
        np.add.at(residual, c.higher_dofs, flux)
        np.add.at(residual, c.lower_dofs, -flux)
    scale = np.linalg.norm(system.rhs)
    return float(np.abs(residual).max() / max(scale, 1e-300))


# ---------------------------------------------------------------------------
# Whole-problem convenience wrapper
# ---------------------------------------------------------------------------


@dataclass
class FlowProblem:
    """Mesh plus per-subdomain physics, assembled on demand.

    ``methods`` selects "tpfa" or "mpfa" per subdomain; ``etas`` overrides the
    continuity-point parameter (None picks the grid-kind default).
    """

    mesh: MixedDimensionalMesh
    permeability: list[np.ndarray]
    bcs: list[BoundaryConditionSet]
    methods: list[str] = field(default_factory=list)
    etas: list = field(default_factory=list)
    source_density: np.ndarray | None = None
    distance_correction: bool = False

    def __post_init__(self):
        n = len(self.mesh.subdomains)
        if not self.methods:
            self.methods = ["tpfa"] * n
        if not self.etas:
            self.etas = [None] * n
        if len(self.permeability) != n or len(self.bcs) != n:
            raise AssemblyError("permeability and boundary conditions must cover all subdomains")

    def assemble(self) -> GlobalSystem:
        discs = []
        for g, k, bc, method, eta in zip(
            self.mesh.subdomains, self.permeability, self.bcs, self.methods, self.etas
        ):
            if method == "mpfa":
                discs.append(assemble_mpfa(g, k, bc, eta))
            elif method == "tpfa":
                discs.append(assemble_tpfa(g, k, bc))
            else:
                raise AssemblyError(f"unknown discretization method {method!r}")
        couplings = [
            discretize_interface(
                self.mesh,
                i,
                self.permeability[intf.higher],
                self.permeability[intf.lower],
                self.distance_correction,
            )
            for i, intf in enumerate(self.mesh.interfaces)
        ]
        return assemble_global(self.mesh, discs, couplings, self.bcs, self.source_density)

    def with_subdomain_permeability(self, subdomain_ids, tensor) -> "FlowProblem":
        """Copy of the problem with replaced tensors on selected subdomains."""
        new_perm = list(self.permeability)
        for sd in subdomain_ids:
            g = self.mesh.subdomains[sd]
            new_perm[sd] = tensor_field(tensor, g.n_cells, g.ambient_dim)
        return replace(self, permeability=new_perm)


def uniform_problem(
    mesh: MixedDimensionalMesh,
    permeability_by_subdomain,
    bc_builder,
    methods=None,
    source_density=None,
    distance_correction: bool = False,
) -> FlowProblem:
    """Assemble-ready problem from per-subdomain tensors and a bc builder.

    ``permeability_by_subdomain`` is a list of tensors/scalars/fields;
    ``bc_builder(subdomain_index, grid)`` returns the boundary conditions
    (defaults to homogeneous Neumann when it returns None).
    """
    perms, bcs = [], []
    for sd, g in enumerate(mesh.subdomains):
        perms.append(tensor_field(permeability_by_subdomain[sd], g.n_cells, g.ambient_dim))
        bc = bc_builder(sd, g) if bc_builder is not None else None
        bcs.append(bc if bc is not None else flow_bc(g))
    return FlowProblem(
        mesh=mesh,
        permeability=perms,
        bcs=bcs,
        methods=list(methods) if methods is not None else [],
        source_density=source_density,
        distance_correction=distance_correction,
    )
