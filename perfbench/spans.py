"""Span recorder for the benchmark's traced runs.

Only a traced study imports this module. ``instrument`` replaces the public
functions of each fracfv layer, in every fracfv module that binds them, by
wrappers that record a span (name, start, end, parent) or bump a counter.
Nothing under ``src/`` changes: callers keep looking the names up where they
always did, and find the wrappers there.

A span's self time is its duration minus the durations of its direct
children. Each ``_s`` layer metric sums the self times of its spans; the
other metrics are counts and sizes, which repeat exactly between runs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from fracfv import coupling, elimination, linsolve, transport
from fracfv.fvdiscretize import bc, mpfa, tpfa
from fracfv.harness import cases, export, norms
from fracfv.mdmesh import cartesian, meshio

# Span name -> layer metric its self time adds to. The benchmark's own spans
# (``bench.study`` around a sample, ``bench.<study>`` around each study) are
# not listed: their self time is the benchmark's code between calls into
# fracfv, reported as ``bench.unattributed_s``.
TIME_METRICS = {
    "linsolve.condition_number": "linsolve.cond_s",
    "linsolve.factorize": "linsolve.factorize_s",
    "linsolve.direct_solve": "linsolve.solve_s",
    "fvdiscretize.assemble_mpfa": "fvdiscretize.mpfa_s",
    "fvdiscretize.assemble_tpfa": "fvdiscretize.tpfa_s",
    "mdmesh.build_cartesian_with_fractures": "mdmesh.build_s",
    "mdmesh.load_mesh": "mdmesh.load_s",
    "coupling.discretize_interface": "coupling.interface_s",
    "coupling.assemble_global": "coupling.assemble_s",
    "coupling.conservation_residual": "coupling.conservation_s",
    "elimination.schur_reduce": "elimination.schur_s",
    "elimination.star_delta_reduce": "elimination.star_delta_s",
    "elimination.back_substitute": "elimination.back_substitute_s",
    "transport.flux_graph_from_system": "transport.flux_graph_s",
    "transport.flux_graph_from_reduced": "transport.flux_graph_s",
    "transport.upwind_operator": "transport.upwind_s",
    # The step matrix is factorized while the simulation is constructed.
    "transport.TracerSimulation": "transport.setup_s",
    "transport.factorize": "transport.setup_s",
    "transport.step": "transport.step_s",
    "harness.l2_error": "harness.norms_s",
    "harness.nearest_cell_map": "harness.norms_s",
    "harness.write_report": "harness.report_s",
    "harness.export_field_csv": "harness.report_s",
    "harness.export_field_vtk": "harness.report_s",
    "harness.run_case": "harness.self_s",
}

# Count and size metrics with their units.
COUNT_METRICS = {
    "linsolve.cond_calls": "count",
    "linsolve.cond_max_n": "rows",
    "linsolve.factorizations": "count",
    "linsolve.lu_fill_nnz": "nnz",
    "fvdiscretize.mpfa_regions": "nodes",
    "fvdiscretize.half_transmissibility_calls": "count",
    "fvdiscretize.bc_value_calls": "count",
    "mdmesh.dofs": "dofs",
    "elimination.eliminated_dofs": "dofs",
    "transport.steps": "steps",
    "transport.lu_fill_nnz": "nnz",
}


def _lu_fill(lu) -> int:
    return int(lu.L.nnz + lu.U.nnz)


class Recorder:
    """Spans and counters of one traced study, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped to record one span per call.

        ``on_result(args, result)`` updates the counters after the call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, self._open[-1] if self._open else -1, time.perf_counter(), None]
            self.spans.append(record)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        """``fn`` wrapped to count its calls, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> list[float]:
        durations = [end - start for _, _, start, end in self.spans]
        own = list(durations)
        for (_, parent, _, _), duration in zip(self.spans, durations):
            if parent >= 0:
                own[parent] -= duration
        return own

    def tree(self) -> dict:
        """Spans merged by their path from the root: calls, total and self time."""
        paths: list[str] = []
        nodes: dict[str, dict] = {}
        for (name, parent, start, end), own in zip(self.spans, self.self_times()):
            path = name if parent < 0 else f"{paths[parent]}/{name}"
            paths.append(path)
            node = nodes.setdefault(path, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            node["calls"] += 1
            node["total_s"] += end - start
            node["self_s"] += own
        return nodes

    def layer_metrics(self) -> dict:
        """Every layer metric as ``{"value": ..., "unit": ...}``."""
        times = dict.fromkeys([*TIME_METRICS.values(), "bench.unattributed_s"], 0.0)
        for (name, *_), own in zip(self.spans, self.self_times()):
            times[TIME_METRICS.get(name, "bench.unattributed_s")] += own
        metrics = {name: {"value": value, "unit": "s"} for name, value in times.items()}
        for name, unit in COUNT_METRICS.items():
            metrics[name] = {"value": int(self.counts.get(name, 0)), "unit": unit}
        return metrics

    # Counter updates from wrapped results -----------------------------------

    def _on_condition(self, args, result):
        self.counts["linsolve.cond_calls"] += 1
        n = int(args[0].shape[0])
        self.counts["linsolve.cond_max_n"] = max(self.counts["linsolve.cond_max_n"], n)

    def _on_flow_factor(self, args, lu):
        self.counts["linsolve.factorizations"] += 1
        self.counts["linsolve.lu_fill_nnz"] += _lu_fill(lu)

    def _on_transport_factor(self, args, lu):
        self.counts["transport.lu_fill_nnz"] += _lu_fill(lu)

    def _on_mpfa(self, args, disc):
        self.counts["fvdiscretize.mpfa_regions"] += int(disc.diagnostics["mpfa_regions"])

    def _on_mesh(self, args, mesh):
        self.counts["mdmesh.dofs"] += int(mesh.n_dofs)

    def _on_reduction(self, args, reduced):
        self.counts["elimination.eliminated_dofs"] += int(reduced.eliminated.size)

    def _on_step(self, args, state):
        self.counts["transport.steps"] += 1


def _rebind(original, replacement, callers) -> None:
    """Replace every module-level binding of ``original`` in loaded fracfv
    modules and in ``callers``."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fracfv"]
    for module in modules + list(callers):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(recorder: Recorder, callers=()) -> None:
    """Wrap each layer's public functions where their callers look them up:
    in fracfv's own modules and in the benchmark modules ``callers``."""
    # The transport module's own binding of factorize is told apart from the
    # flow solves' one before the flow wrapper takes every other binding.
    transport.factorize = recorder.span(
        "transport.factorize", transport.factorize, recorder._on_transport_factor
    )
    functions = [
        (linsolve, "condition_number", recorder._on_condition),
        (linsolve, "factorize", recorder._on_flow_factor),
        (linsolve, "direct_solve", None),
        (mpfa, "assemble_mpfa", recorder._on_mpfa),
        (tpfa, "assemble_tpfa", None),
        (cartesian, "build_cartesian_with_fractures", recorder._on_mesh),
        (meshio, "load_mesh", None),
        (coupling, "discretize_interface", None),
        (coupling, "assemble_global", None),
        (coupling, "conservation_residual", None),
        (elimination, "schur_reduce", recorder._on_reduction),
        (elimination, "star_delta_reduce", recorder._on_reduction),
        (elimination, "back_substitute", None),
        (transport, "flux_graph_from_system", None),
        (transport, "flux_graph_from_reduced", None),
        (transport, "upwind_operator", None),
        (norms, "l2_error", None),
        (norms, "nearest_cell_map", None),
        (export, "write_report", None),
        (export, "export_field_csv", None),
        (export, "export_field_vtk", None),
        (cases, "run_case", None),
    ]
    for module, attr, on_result in functions:
        original = getattr(module, attr)
        layer = module.__name__.split(".")[1]
        _rebind(original, recorder.span(f"{layer}.{attr}", original, on_result), callers)
    half = tpfa.half_transmissibility
    _rebind(half, recorder.counter("fvdiscretize.half_transmissibility_calls", half), callers)

    value_at = bc.BoundaryConditionSet.value_at
    bc.BoundaryConditionSet.value_at = recorder.counter("fvdiscretize.bc_value_calls", value_at)
    sim_class = transport.TracerSimulation
    sim_class.__init__ = recorder.span("transport.TracerSimulation", sim_class.__init__)
    sim_class.step = recorder.span("transport.step", sim_class.step, recorder._on_step)
