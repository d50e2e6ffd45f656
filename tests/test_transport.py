"""Upwind transport: operator structure, stepping, probing, accounting."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfv.elimination import schur_reduce
from fracfv.errors import InflowBoundaryError, ProbeError, TransportError
from fracfv.fvdiscretize import transport_bc
from fracfv.harness.cases import _dirichlet_planes, case13_problem, zero_tracer_bcs
from fracfv.harness.export import write_series_csv
from fracfv.linsolve import direct_solve
from fracfv.mdmesh import FractureNetworkSpec, build_cartesian_with_fractures
from fracfv.transport import (
    FluxGraph,
    TracerSimulation,
    factorize_step,
    flux_graph_from_reduced,
    flux_graph_from_system,
    resolve_probe,
    upwind_operator,
)


def _graph(connections, boundary, volumes):
    i, j, q = zip(*connections) if connections else ((), (), ())
    sd, face, cell, q_out = zip(*boundary) if boundary else ((), (), (), ())
    return FluxGraph(
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
        state = TracerSimulation(graph, [bc], np.array([1.0]), 1.0).step()
        assert state.concentrations == pytest.approx([0.5])
        assert state.time == 1.0

    def test_no_flow_leaves_field_unchanged(self):
        graph = _graph([], [], [1.0, 2.0, 0.5])
        initial = np.array([0.2, 0.9, 0.4])
        state = TracerSimulation(graph, [], initial, 0.3).step()
        assert np.allclose(state.concentrations, initial, rtol=1e-14, atol=0.0)

    def test_nonpositive_step_rejected(self, monkeypatch):
        def factor(*args):
            raise AssertionError("the step matrix was factored before dt was checked")

        monkeypatch.setattr("fracfv.transport.factorize_step", factor)
        graph = _graph([], [], [1.0])
        for dt in (0.0, -0.4, np.inf, np.nan):
            with pytest.raises(TransportError, match="step size"):
                TracerSimulation(graph, [], np.zeros(1), dt)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"initial": np.zeros(3)}, r"initial has shape \(3,\), expected \(100,\)"),
            ({"initial": np.zeros((100, 1))}, r"initial has shape \(100, 1\)"),
            ({"source_rates": np.ones(5)}, r"source_rates has shape \(5,\), expected \(100,\)"),
            ({"probe": 1000}, r"probe cell 1000 is out of range \[0, 100\)"),
            ({"probe": -1}, r"probe cell -1 is out of range"),
        ],
    )
    def test_inputs_of_the_wrong_size_rejected(self, monkeypatch, kwargs, message):
        def factor(*args):
            raise AssertionError("the step matrix was factored before the inputs were checked")

        monkeypatch.setattr("fracfv.transport.factorize_step", factor)
        graph = _graph([], [], np.ones(100))
        kwargs = {"initial": np.zeros(100), **kwargs}
        with pytest.raises(TransportError, match=message):
            TracerSimulation(graph, [], dt=0.1, **kwargs)

    def test_operator_linear_in_fluxes(self):
        scale = 1.0 + 1e-6
        g1 = _graph([(0, 1, 2.0), (1, 2, -1.0)], [], [1.0, 1.0, 1.0])
        g2 = _graph([(0, 1, 2.0 * scale), (1, 2, -1.0 * scale)], [], [1.0, 1.0, 1.0])
        op1, _ = upwind_operator(g1, [])
        op2, _ = upwind_operator(g2, [])
        gap = abs(op2 - scale * op1)
        assert (gap.data.max() if gap.nnz else 0.0) <= 1e-14


def _dense_step(graph, bcs, initial, dt):
    """One implicit step by a dense solve of the same step matrix."""
    op, inflow = upwind_operator(graph, bcs)
    mass = graph.volumes / dt
    return np.linalg.solve(np.diag(mass) + op.toarray(), mass * initial + inflow)


def _flux_ordered(graph, bcs, dt) -> tuple[sps.csr_matrix, np.ndarray]:
    """The step matrix permuted to the flux order of its factor, and the order."""
    op, _ = upwind_operator(graph, bcs)
    order = factorize_step(graph.volumes, op, dt).order
    return sps.csr_matrix(sps.diags(graph.volumes / dt) + op)[order][:, order], order


def _assert_matches_dense(graph, bcs, initial, dt):
    dense = _dense_step(graph, bcs, initial, dt)
    new = TracerSimulation(graph, bcs, initial, dt).step().concentrations
    assert np.abs(new - dense).max() <= 1e-13 * np.abs(dense).max()


def _inflow_outflow_bc():
    """Subdomain 0's boundary data: tracer 1 on its first external face,
    0 on its second. Flow entries may attach either face to any cell."""
    g = _dummy_bc()
    first, second = np.flatnonzero(g.external_boundary)[:2]
    return transport_bc(g).set_dirichlet([first], 1.0).set_dirichlet([second], 0.0), first, second


class TestCyclicFlux:
    """A circulating flux field leaves the step matrix only block lower
    triangular in flux order; the step must stay exact."""

    def test_circulation_matches_dense_solve(self):
        bc, first, second = _inflow_outflow_bc()
        # Inflow into 0, then 0 -> 1, the loop 1 -> 2 -> 3 -> 1, 3 -> 4 and
        # out of 4; one connection stored backwards, one with zero flux.
        connections = [
            (0, 1, 1.0), (2, 1, -3.0), (2, 3, 3.0), (3, 1, 2.0), (3, 4, 1.0), (0, 4, 0.0),
        ]
        boundary = [(0, int(first), 0, -1.0), (0, int(second), 4, 1.0)]
        graph = _graph(connections, boundary, [1.0, 0.5, 2.0, 1.0, 0.8])
        permuted, order = _flux_ordered(graph, [bc], 0.3)
        assert sps.triu(permuted, 1).nnz > 0
        assert order.tolist() == [0, 1, 2, 3, 4]  # the loop is one contiguous block
        _assert_matches_dense(graph, [bc], np.array([0.0, 0.2, 0.9, 0.4, 0.1]), 0.3)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_cyclic_graphs_match_dense_solve(self, data):
        bc, first, second = _inflow_outflow_bc()
        n = data.draw(st.integers(2, 12))
        cells = st.integers(0, n - 1)
        flux = st.floats(0.1, 4.0)
        cycle = data.draw(st.lists(cells, min_size=2, max_size=n, unique=True))
        connections = [(a, b, data.draw(flux)) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        signed = st.one_of(st.just(0.0), flux, flux.map(lambda q: -q))
        extra = data.draw(st.lists(st.tuples(cells, cells, signed), max_size=2 * n))
        connections += [(i, j, q) for i, j, q in extra if i != j]
        face_flows = st.tuples(cells, st.one_of(st.just(0.0), flux))
        outflow = data.draw(st.lists(face_flows, max_size=n))
        inflow = data.draw(st.lists(face_flows, max_size=2))
        boundary = [(0, int(second), c, q) for c, q in outflow]
        boundary += [(0, int(first), c, -q) for c, q in inflow]
        volumes = data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
        initial = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        dt = data.draw(st.floats(0.25, 1.0))
        graph = _graph(connections, boundary, volumes)
        assert sps.triu(_flux_ordered(graph, [bc], dt)[0], 1).nnz > 0
        _assert_matches_dense(graph, [bc], initial, dt)


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
            sim = TracerSimulation(graph, bcs, np.ones(mesh.n_dofs), 0.5 / n_steps, probe=probe)
            sims[n_steps] = sim.run(n_steps).series
        coarse = np.array([v for _, v in sims[50]])
        fine = np.array([v for _, v in sims[100]][::2])  # matching sample times
        t_coarse = np.array([t for t, _ in sims[50]])
        t_fine = np.array([t for t, _ in sims[100]][::2])
        assert np.abs(t_coarse - t_fine).max() <= 1e-10
        assert np.abs(coarse - fine).max() <= 0.01


def test_reduced_graph_refuses_boundary_flow_on_eliminated_cells():
    # Each end face of the intersection line carries a flux of 100 here. The
    # reduced graph has no cell to attach them to; dropping them lost 100 of
    # the full graph's 20,101 outflow.
    problem, mesh = case13_problem(4, k_blocking=1e6, aperture=1e-2)
    build = _dirichlet_planes((1, 0.0, 1.0), (1, 1.0, 0.0))
    bcs = [build(sd, grid) for sd, grid in enumerate(mesh.subdomains)]
    reduced = schur_reduce(replace(problem, bcs=bcs).assemble())
    p_kept = direct_solve(reduced.matrix, reduced.rhs)
    with pytest.raises(TransportError, match="subdomain 3 has eliminated cells and boundary flow"):
        flux_graph_from_reduced(reduced, p_kept)


class TestMonitor:
    def test_corner_probe_unique(self, unit_square_4):
        dof = resolve_probe(unit_square_4, np.array([0.0, 0.0]))
        centres = unit_square_4.all_cell_centres()
        assert np.allclose(centres[dof], [0.125, 0.125])

    def test_midplane_probe_ambiguous(self, unit_square_4):
        with pytest.raises(ProbeError, match="dof"):
            resolve_probe(unit_square_4, np.array([0.5, 0.125]))

    def test_constant_state_flat_series(self):
        graph = _graph([], [], [1.0, 1.0, 1.0])
        sim = TracerSimulation(graph, [], np.full(3, 0.7), 0.5, probe=1)
        assert sim.run(2).series == [(0.0, 0.7), (0.5, 0.7), (1.0, 0.7)]
        assert TracerSimulation(graph, [], np.full(3, 0.7), 0.5).run(2).series == []

    def test_series_csv_round_trip(self, tmp_path):
        series = [(0.0, 1.0), (0.25, 0.5), (0.5, 0.125)]
        path = tmp_path / "series.csv"
        write_series_csv(path, series)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,concentration"
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert parsed == series
