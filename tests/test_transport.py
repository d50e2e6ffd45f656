"""Upwind transport: operator structure, stepping, monitoring, accounting."""

import numpy as np
import pytest

from fracfv.errors import InflowBoundaryError, ProbeError, TransportError
from fracfv.fvdiscretize import transport_bc
from fracfv.harness.cases import case13_problem, zero_tracer_bcs
from fracfv.linsolve import direct_solve
from fracfv.mdmesh import FractureNetworkSpec, build_cartesian_with_fractures
from fracfv.transport import (
    FluxGraph,
    TracerSimulation,
    TransportState,
    flux_graph_from_system,
    implicit_euler_step,
    monitor,
    resolve_probe,
    upwind_operator,
    write_series_csv,
)


def _graph(connections, boundary, volumes):
    i, j, q = zip(*connections) if connections else ((), (), ())
    sd, face, cell, q_out = zip(*boundary) if boundary else ((), (), (), ())
    return FluxGraph(
        n_cells=len(volumes),
        connections=(np.array(i, dtype=int), np.array(j, dtype=int), np.array(q, dtype=float)),
        boundary=(
            np.array(sd, dtype=int),
            np.array(face, dtype=int),
            np.array(cell, dtype=int),
            np.array(q_out, dtype=float),
        ),
        volumes=np.asarray(volumes, dtype=float),
    )


def _dummy_bc(n_faces_mesh=None):
    mesh = build_cartesian_with_fractures(FractureNetworkSpec(domain=((0.0, 1.0),)), 2)
    return mesh.subdomains[0]


class TestUpwindOperator:
    def test_positive_flux_takes_upstream_cell(self):
        graph = _graph([(0, 1, 2.0)], [], [1.0, 1.0])
        op, inflow = upwind_operator(graph, [])
        a = op.toarray()
        assert a[0, 0] == 2.0 and a[1, 0] == -2.0
        assert a[0, 1] == 0.0 and a[1, 1] == 0.0
        assert np.all(inflow == 0.0)

    def test_negative_flux_takes_other_side(self):
        graph = _graph([(0, 1, -2.0)], [], [1.0, 1.0])
        op, _ = upwind_operator(graph, [])
        a = op.toarray()
        assert a[1, 1] == 2.0 and a[0, 1] == -2.0
        assert a[0, 0] == 0.0

    def test_zero_flux_contributes_nothing(self):
        graph = _graph([(0, 1, 0.0)], [], [1.0, 1.0])
        op, inflow = upwind_operator(graph, [])
        assert op.nnz == 0
        assert np.all(inflow == 0.0)

    def test_zero_flux_field_gives_zero_operator(self):
        graph = _graph([(0, 1, 0.0), (1, 2, 0.0)], [], [1.0, 1.0, 1.0])
        op, inflow = upwind_operator(graph, [])
        assert op.nnz == 0

    def test_inflow_without_data_raises(self):
        g = _dummy_bc()
        bc = transport_bc(g)  # all faces unset
        graph = _graph([], [(0, int(np.flatnonzero(g.external_boundary)[0]), 0, -1.0)], [1.0])
        with pytest.raises(InflowBoundaryError):
            upwind_operator(graph, [bc])

    def test_inflow_dirichlet_contributes(self):
        g = _dummy_bc()
        face = int(np.flatnonzero(g.external_boundary)[0])
        bc = transport_bc(g).set_dirichlet([face], 0.75)
        graph = _graph([], [(0, face, 0, -2.0)], [1.0])
        op, inflow = upwind_operator(graph, [bc])
        assert inflow[0] == pytest.approx(1.5)
        assert op.nnz == 0


class TestImplicitEuler:
    def test_single_cell_half_life(self):
        g = _dummy_bc()
        faces = np.flatnonzero(g.external_boundary)
        bc = transport_bc(g).set_dirichlet(faces, 0.0)
        graph = _graph(
            [], [(0, int(faces[0]), 0, -1.0), (0, int(faces[1]), 0, 1.0)], [1.0]
        )
        op, inflow = upwind_operator(graph, [bc])
        state = TransportState(np.array([1.0]))
        state = implicit_euler_step(state, graph.volumes, op, inflow, None, 1.0)
        assert state.concentrations == pytest.approx([0.5])
        assert state.time == 1.0

    def test_no_flow_leaves_field_unchanged(self):
        graph = _graph([], [], [1.0, 2.0, 0.5])
        op, inflow = upwind_operator(graph, [])
        initial = np.array([0.2, 0.9, 0.4])
        state = implicit_euler_step(TransportState(initial.copy()), graph.volumes, op, inflow, None, 0.3)
        assert np.allclose(state.concentrations, initial, rtol=1e-14, atol=0.0)

    def test_nonpositive_step_rejected(self):
        graph = _graph([], [], [1.0])
        op, inflow = upwind_operator(graph, [])
        with pytest.raises(TransportError):
            implicit_euler_step(TransportState(np.zeros(1)), graph.volumes, op, inflow, None, 0.0)

    def test_operator_linear_in_fluxes(self):
        scale = 1.0 + 1e-6
        g1 = _graph([(0, 1, 2.0), (1, 2, -1.0)], [], [1.0, 1.0, 1.0])
        g2 = _graph([(0, 1, 2.0 * scale), (1, 2, -1.0 * scale)], [], [1.0, 1.0, 1.0])
        op1, _ = upwind_operator(g1, [])
        op2, _ = upwind_operator(g2, [])
        gap = abs(op2 - scale * op1)
        assert (gap.data.max() if gap.nnz else 0.0) <= 1e-14


@pytest.fixture(scope="module")
def case13_run():
    problem, mesh = case13_problem(4)
    system = problem.assemble()
    p = direct_solve(system.matrix, system.rhs)
    graph = flux_graph_from_system(system, p)
    bcs = zero_tracer_bcs(mesh)
    return mesh, graph, bcs


class TestCaseTransport:
    def test_maximum_principle(self, case13_run):
        mesh, graph, bcs = case13_run
        sim = TracerSimulation(graph, bcs, np.ones(mesh.n_dofs), dt=0.05)
        sim.run(50)
        assert sim.bounds[0] >= -1e-12
        assert sim.bounds[1] <= 1.0 + 1e-12

    def test_mass_accounting(self, case13_run):
        mesh, graph, bcs = case13_run
        sim = TracerSimulation(graph, bcs, np.ones(mesh.n_dofs), dt=0.05)
        sim.run(50)
        assert sim.mass_accounting_error <= 1e-10

    def test_time_step_self_consistency(self, case13_run):
        # Halving the step changes the monitored series by less than 1%.
        mesh, graph, bcs = case13_run
        probe = resolve_probe(mesh, np.array([1.0 - 0.125, 0.5 - 0.125, 0.5 - 0.125]), dims=3)
        sims = {}
        for n_steps in (50, 100):
            sim = TracerSimulation(graph, bcs, np.ones(mesh.n_dofs), dt=0.5 / n_steps)
            sim.run(n_steps, probe)
            sims[n_steps] = sim.state.series
        coarse = np.array([v for _, v in sims[50]])
        fine = np.array([v for _, v in sims[100]][1::2])  # matching sample times
        t_coarse = np.array([t for t, _ in sims[50]])
        t_fine = np.array([t for t, _ in sims[100]][1::2])
        assert np.abs(t_coarse - t_fine).max() <= 1e-10
        assert np.abs(coarse - fine).max() <= 0.01


class TestMonitor:
    def test_corner_probe_unique(self, unit_square_4):
        dof = resolve_probe(unit_square_4, np.array([0.0, 0.0]))
        centres = unit_square_4.all_cell_centres()
        assert np.allclose(centres[dof], [0.125, 0.125])

    def test_midplane_probe_ambiguous(self, unit_square_4):
        with pytest.raises(ProbeError, match="dof"):
            resolve_probe(unit_square_4, np.array([0.5, 0.125]))

    def test_constant_state_flat_series(self):
        state = TransportState(np.full(3, 0.7))
        monitor(state, 1)
        state = TransportState(state.concentrations, 1.0, 1.0, state.series)
        monitor(state, 1)
        values = [v for _, v in state.series]
        assert values == [0.7, 0.7]

    def test_series_csv_round_trip(self, tmp_path):
        series = [(0.0, 1.0), (0.25, 0.5), (0.5, 0.125)]
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,concentration"
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert parsed == series
