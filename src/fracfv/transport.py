"""First-order upwind advection of a passive tracer with implicit Euler steps.

The advection operator is built from a stationary flux field expressed as
directed cell-to-cell connections plus boundary in/outflows. Faces with zero
flux advect nothing. Implicit stepping solves
``(V / dt + U) T_new = V / dt * T_old + inflows + sources``
and is unconditionally stable, so the step size is purely an accuracy knob.
The step matrix is factored in flux order, upstream cells first, where it is
lower triangular unless the flux field circulates (Natvig & Lie, J. Comput.
Phys. 227, 2008). ``TracerSimulation`` factors it once and steps; an optional
probe cell is sampled into the state's series at t = 0 and after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
from scipy.sparse.csgraph import connected_components

from .coupling import GlobalSystem, interface_fluxes
from .elimination import ReducedSystem, reduced_fluxes
from .errors import InflowBoundaryError, ProbeError, TransportError
from .fvdiscretize.bc import DIRICHLET, NEUMANN, BoundaryConditionSet
from .fvdiscretize.operators import reconstruct_fluxes
from .linsolve import factorize


@dataclass
class TransportState:
    """Tracer concentrations at one time level."""

    concentrations: np.ndarray
    time: float = 0.0
    dt: float = 0.0
    series: list = field(default_factory=list)


@dataclass
class FluxGraph:
    """A stationary flux field as directed connections and boundary flows.

    ``connections`` holds arrays (i, j, q) with q positive from cell i to
    cell j. ``boundary`` holds arrays (subdomain, face, cell, q_out), one
    entry per external boundary face, with q_out positive out of the domain.
    Cell indices refer to the vector space of the transported field (global
    dofs, or kept-local dofs for reduced runs).
    """

    connections: tuple
    boundary: tuple
    volumes: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.volumes.size


def _boundary_flows(sd: int, grid, fluxes: np.ndarray, cell_index: np.ndarray) -> tuple:
    """Boundary entries of one subdomain; ``cell_index`` maps its cells to
    the transported field's indices."""
    faces = np.flatnonzero(grid.external_boundary)
    cells, signs = grid.one_sided_cells(faces)
    return np.full(faces.size, sd), faces, cell_index[cells], signs * fluxes[faces]


def flux_graph_from_system(system: GlobalSystem, p: np.ndarray) -> FluxGraph:
    """Connection data of a full mixed-dimensional solve."""
    mesh = system.mesh
    conn_i, conn_j, conn_q = [], [], []
    boundary = []
    for sd, disc in enumerate(system.discs):
        grid = mesh.subdomains[sd]
        fluxes = reconstruct_fluxes(disc, p[mesh.subdomain_slice(sd)])
        offset = mesh.dof_offset(sd)
        plus, minus = grid.face_cells.T
        interior = (plus >= 0) & (minus >= 0)
        conn_i.append(offset + plus[interior])
        conn_j.append(offset + minus[interior])
        conn_q.append(fluxes[interior])
        boundary.append(_boundary_flows(sd, grid, fluxes, offset + np.arange(grid.n_cells)))
    for c, flux in zip(system.couplings, interface_fluxes(system, p)):
        conn_i.append(c.higher_dofs)
        conn_j.append(c.lower_dofs)
        conn_q.append(flux)
    return FluxGraph(
        connections=tuple(np.concatenate(c) for c in (conn_i, conn_j, conn_q)),
        boundary=tuple(np.concatenate(column) for column in zip(*boundary)),
        volumes=mesh.all_cell_volumes(),
    )


def flux_graph_from_reduced(reduced: ReducedSystem, p_kept: np.ndarray) -> FluxGraph:
    """Connection data of a reduced solve, in kept-local indices.

    Internal and interface fluxes come directly from the reduced connection
    stencil; boundary fluxes are reconstructed on the subdomains without an
    eliminated cell. The others may have no Dirichlet or non-zero Neumann
    data (TransportError), as their boundary flows are not representable.
    """
    system = reduced.system
    if system is None:
        raise TransportError("reduced system lacks its originating global system")
    mesh = system.mesh
    i_loc, j_loc, q = reduced_fluxes(reduced, p_kept)
    kept_local = -np.ones(mesh.n_dofs, dtype=int)
    kept_local[reduced.kept] = np.arange(reduced.kept.size)
    boundary = []
    volumes = mesh.all_cell_volumes()[reduced.kept]
    for sd, disc in enumerate(system.discs):
        locs = kept_local[mesh.subdomain_slice(sd)]
        if np.any(locs < 0):
            bc = system.bcs[sd]
            if np.any((bc.kind == DIRICHLET) | (bc.value != 0.0)):
                raise TransportError(f"subdomain {sd} has eliminated cells and boundary flow")
            continue
        fluxes = reconstruct_fluxes(disc, p_kept[locs])
        boundary.append(_boundary_flows(sd, mesh.subdomains[sd], fluxes, locs))
    return FluxGraph(
        connections=(i_loc, j_loc, q),
        boundary=tuple(np.concatenate(column) for column in zip(*boundary)),
        volumes=volumes,
    )


def _boundary_data(graph: FluxGraph, transport_bcs: list[BoundaryConditionSet]) -> tuple:
    """Transport condition kind, value and face area of each boundary entry."""
    sd, faces = graph.boundary[:2]
    kind = np.empty(sd.size, dtype=int)
    value = np.empty(sd.size)
    area = np.empty(sd.size)
    for s in np.unique(sd):
        mine = sd == s
        bc = transport_bcs[s]
        kind[mine] = bc.kind[faces[mine]]
        value[mine] = bc.value[faces[mine]]
        area[mine] = bc.grid.face_areas[faces[mine]]
    return kind, value, area


def upwind_operator(
    graph: FluxGraph, transport_bcs: list[BoundaryConditionSet]
) -> tuple[sps.csr_matrix, np.ndarray]:
    """Upwind advection operator and boundary inflow vector.

    The upstream cell's concentration multiplies each connection flux;
    inflow Dirichlet boundaries contribute prescribed concentrations, Neumann
    transport boundaries prescribe the tracer flux itself. Zero-flux faces
    contribute nothing.

    Raises:
        InflowBoundaryError: An inflow face without transport data.
    """
    n = graph.n_cells
    ci, cj, cq = graph.connections
    flowing = cq != 0.0
    ci, cj, cq = ci[flowing], cj[flowing], cq[flowing]
    upstream = np.where(cq > 0.0, ci, cj)

    sd, faces, cells, q_out = graph.boundary
    kind, value, area = _boundary_data(graph, transport_bcs)
    neumann = kind == NEUMANN
    outflow = ~neumann & (q_out > 0.0)
    inflow_face = ~neumann & (q_out < 0.0)
    missing = np.flatnonzero(inflow_face & (kind != DIRICHLET))
    if missing.size:
        k = missing[0]
        raise InflowBoundaryError(
            f"inflow face {faces[k]} of subdomain {sd[k]} has no transport boundary condition"
        )
    # Each connection adds q to row i and -q to row j, both in the upstream column.
    rows = np.concatenate([np.column_stack([ci, cj]).ravel(), cells[outflow]])
    cols = np.concatenate([np.repeat(upstream, 2), cells[outflow]])
    vals = np.concatenate([np.column_stack([cq, -cq]).ravel(), q_out[outflow]])
    operator = sps.csr_matrix((vals, (rows, cols)), shape=(n, n))
    operator.sum_duplicates()

    contribution = np.zeros(sd.size)
    contribution[neumann] = -(value[neumann] * area[neumann])
    contribution[inflow_face] = -q_out[inflow_face] * value[inflow_face]
    inflow = np.zeros(n)
    np.add.at(inflow, cells, contribution)
    return operator, inflow


@dataclass
class StepFactor:
    """LU factor of a step matrix permuted to flux order ``order``."""

    order: np.ndarray
    lu: object

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.empty_like(rhs)
        x[self.order] = self.lu.solve(rhs[self.order])
        return x


def factorize_step(volumes: np.ndarray, operator: sps.csr_matrix, dt: float) -> StepFactor:
    """Factor the step matrix ``V / dt + U`` in flux order.

    Strong components of the matrix's graph, which points from each cell to
    its upstream cells, are labelled sinks first, so the stable order of the
    labels puts every cell after its upstream cells. The permuted matrix is
    lower triangular where the flux field has no cycle, and otherwise block
    lower triangular with each cycle in one diagonal block.
    """
    matrix = sps.csr_matrix(sps.diags(volumes / dt) + operator)
    labels = connected_components(matrix, directed=True, connection="strong")[1]
    order = np.argsort(labels, kind="stable")
    return StepFactor(order, factorize(matrix[order][:, order]))


def resolve_probe(mesh, point: np.ndarray, dims=None) -> int:
    """Global dof of the cell nearest to a probe point.

    Raises:
        ProbeError: If several cells tie for the nearest distance, listing
            the candidates.
    """
    point = np.asarray(point, dtype=float)
    centres = mesh.all_cell_centres()
    dof_dims = mesh.dof_dims()
    mask = np.ones(mesh.n_dofs, dtype=bool)
    if dims is not None:
        mask = np.isin(dof_dims, np.atleast_1d(dims))
    dofs = np.flatnonzero(mask)
    dist = np.linalg.norm(centres[dofs] - point, axis=1)
    best = dist.min()
    tol = 1e-12 * max(mesh.domain_diameter(), 1.0)
    ties = dofs[dist <= best + tol]
    if ties.size != 1:
        listing = ", ".join(
            f"dof {d} at {np.array2string(centres[d], precision=6)}" for d in ties
        )
        raise ProbeError(f"probe {point} is ambiguous between: {listing}")
    return int(ties[0])


class TracerSimulation:
    """Implicit-Euler advection on a fixed flux field.

    The step matrix is factored once. ``source_rates`` are per-cell
    integrated tracer rates. A ``probe`` cell is sampled into
    ``state.series`` as (time, concentration) at t = 0 and after every step.

    Raises:
        TransportError: ``dt`` is not finite and positive, ``initial`` or
            ``source_rates`` is not one value per cell, or ``probe`` is not
            a cell.
    """

    def __init__(
        self,
        graph: FluxGraph,
        transport_bcs: list[BoundaryConditionSet],
        initial: np.ndarray,
        dt: float,
        source_rates: np.ndarray | None = None,
        probe: int | None = None,
    ):
        self.dt = float(dt)
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise TransportError(f"step size must be finite and positive, got {dt}")
        for name, array in (("initial", initial), ("source_rates", source_rates)):
            if array is not None and np.shape(array) != (graph.n_cells,):
                raise TransportError(
                    f"{name} has shape {np.shape(array)}, expected ({graph.n_cells},)"
                )
        if probe is not None and not 0 <= probe < graph.n_cells:
            raise TransportError(f"probe cell {probe} is out of range [0, {graph.n_cells})")
        self.graph = graph
        self.operator, self.inflow = upwind_operator(graph, transport_bcs)
        self.source_rates = source_rates
        self.probe = probe
        self.state = TransportState(np.asarray(initial, dtype=float).copy(), 0.0, self.dt)
        self._factor = factorize_step(graph.volumes, self.operator, self.dt)
        # Outflow terms that entered the operator (advective upwind outflow).
        kind = _boundary_data(graph, transport_bcs)[0]
        cells, q_out = graph.boundary[2:]
        outflow = (kind != NEUMANN) & (q_out > 0.0)
        self._outflow_cells, self._outflow_q = cells[outflow], q_out[outflow]
        self._mass_error_abs = 0.0
        self._mass_scale = 0.0
        self.bounds = (float(self.state.concentrations.min()), float(self.state.concentrations.max()))
        self._sample()

    def step(self) -> TransportState:
        previous = self.state.concentrations
        rhs = self.graph.volumes / self.dt * previous + self.inflow
        if self.source_rates is not None:
            rhs = rhs + self.source_rates
        current = self._factor.solve(rhs)
        self.state = TransportState(current, self.state.time + self.dt, self.dt, self.state.series)
        self._account(previous, current)
        self.bounds = (
            min(self.bounds[0], float(current.min())),
            max(self.bounds[1], float(current.max())),
        )
        self._sample()
        return self.state

    def _sample(self):
        """Append the probe cell's (time, concentration) to the series."""
        if self.probe is not None:
            value = float(self.state.concentrations[self.probe])
            self.state.series.append((self.state.time, value))

    @property
    def mass_accounting_error(self) -> float:
        """Largest storage-vs-throughflow mismatch, relative to the largest
        throughflow magnitude encountered."""
        return self._mass_error_abs / max(self._mass_scale, 1e-300)

    def _account(self, previous: np.ndarray, current: np.ndarray):
        """Independent mass bookkeeping from the boundary outflows."""
        storage = float(self.graph.volumes @ (current - previous)) / self.dt
        through = float(self.inflow.sum() - self._outflow_q @ current[self._outflow_cells])
        if self.source_rates is not None:
            through += float(np.sum(self.source_rates))
        self._mass_error_abs = max(self._mass_error_abs, abs(storage - through))
        self._mass_scale = max(self._mass_scale, abs(storage), abs(through))

    def run(self, n_steps: int) -> TransportState:
        for _ in range(n_steps):
            self.step()
        return self.state

