"""Preset test cases: meshes, physics, runs, error reports and artifacts.

Each case is declared once in ``CASES``: its default resolution, its free
parameters with their defaults, which of the discretization and elimination
choices it reads, its problem builder and its study. A study solves the
case's variants with the shared steps below (flow solve with condition
number, one reduction, tracer transport) and returns its results, its
in-memory extras and the fields and series it emits. ``run_case`` binds the
builder to the run's parameters, runs the study, wraps the results in the
report envelope and writes every artifact.
"""

from __future__ import annotations

import inspect
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from ..coupling import FlowProblem, conservation_residual, uniform_problem
from ..elimination import (
    back_substitute,
    inherited_source_rates,
    schur_reduce,
    star_delta_reduce,
)
from ..errors import FracfvError
from ..fvdiscretize import flow_bc, transport_bc
from ..linsolve import direct_solve, solve_with_condition
from ..mdmesh import FractureNetworkSpec, FracturePatch, build_cartesian_with_fractures
from ..tensors import PermeabilityTensor, tensor_field
from ..transport import (
    TracerSimulation,
    flux_graph_from_reduced,
    flux_graph_from_system,
    resolve_probe,
)
from .export import (
    export_field_csv,
    export_field_vtk,
    report_envelope,
    write_report,
    write_series_csv,
)
from .norms import l2_error, least_squares_slope, nearest_cell_map


@dataclass
class CaseSpec:
    """A runnable case configuration."""

    case: str
    resolution: int | None = None
    discretization: str | None = None
    elimination: str | None = None
    overrides: dict = field(default_factory=dict)
    out_dir: Path | None = None
    write_vtk: bool = False

    def __post_init__(self):
        if self.case not in CASES:
            raise FracfvError(f"unknown case {self.case!r}; available: {CASE_IDS}")
        declared = CASES[self.case]
        if self.resolution is not None and declared.resolution is None:
            raise FracfvError(
                f"case {self.case} does not take resolution {self.resolution!r}; "
                "it runs its own set of resolutions"
            )
        if self.resolution is not None and self.resolution < 1:
            raise FracfvError(f"resolution must be at least 1, got {self.resolution!r}")
        for option, value, accepted in (
            ("discretization", self.discretization, declared.discretizations),
            ("elimination", self.elimination, declared.eliminations),
        ):
            if value is not None and value not in accepted:
                raise FracfvError(
                    f"case {self.case} does not take {option} {value!r}; "
                    f"accepted: {list(accepted)}"
                )
        _parameters(self.case, self.overrides)

    @property
    def resolved_resolution(self) -> int | None:
        return CASES[self.case].resolution if self.resolution is None else self.resolution

    @property
    def parameters(self) -> dict:
        """Every free parameter of the case: its override, else its default."""
        return _parameters(self.case, self.overrides)


@dataclass
class CaseResult:
    report: dict
    extras: dict
    out_dir: Path | None


@dataclass(frozen=True)
class _Case:
    """One preset case.

    ``resolution`` is the default resolution, None for a case whose study
    runs its own set of resolutions and so takes none.
    ``problem(resolution, ...)`` builds the case's flow problem; the builder
    keywords named in ``physics`` are free parameters with the builder's
    own defaults. ``controls`` holds the study's other free parameters and
    their defaults, where a type stands for a default the study works out
    (the study then receives None). ``study(build, spec, parameters,
    timings)`` gets the builder bound to the run's physics and returns a
    ``_Study``. ``discretizations`` and ``eliminations`` list the values of
    those choices the study reads; a case that reads neither rejects both.
    """

    resolution: int | None
    problem: Callable
    physics: tuple
    study: Callable
    controls: dict = field(default_factory=dict)
    discretizations: tuple = ()
    eliminations: tuple = ()


@dataclass
class _Study:
    """A study's output: report results, in-memory extras, and the fields
    ``(name, mesh, values, subset)`` and series ``(name, samples)`` to write."""

    results: dict
    extras: dict
    fields: list = field(default_factory=list)
    series: list = field(default_factory=list)


_TRUTH = {"false": False, "true": True}


def _override(key: str, value, default):
    """An override converted to the type of its default (float for None).
    Permeabilities (``k_*``) and case 2's anisotropy ``ratio`` must be positive."""
    kind = default if isinstance(default, type) else float if default is None else type(default)
    if kind is bool:
        if isinstance(value, str) and value.lower() in _TRUTH:
            return _TRUTH[value.lower()]
        if isinstance(value, (int, float)) and value in (0, 1):
            return bool(value)
        raise FracfvError(f"override {key} must be 0/1 or true/false, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FracfvError(f"override {key} must be numeric, got {value!r}")
    if not np.isfinite(value):
        raise FracfvError(f"override {key} must be finite, got {value!r}")
    if (key.startswith("k_") or key == "ratio") and value <= 0:  # permeability eigenvalues
        raise FracfvError(f"override {key}={value!r} leaves a permeability not positive definite")
    if kind is int:  # every integer parameter is a count
        if not float(value).is_integer():
            raise FracfvError(f"override {key} must be an integer, got {value!r}")
        if value < 1:
            raise FracfvError(f"override {key} must be at least 1, got {value!r}")
        return int(value)
    return float(value)


def _parameters(case_id: str, overrides: dict) -> dict:
    case = CASES[case_id]
    signature = inspect.signature(case.problem).parameters
    defaults = {**{name: signature[name].default for name in case.physics}, **case.controls}
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise FracfvError(
            f"overrides {sorted(unknown)} are not free parameters of case "
            f"{case_id}; allowed: {sorted(defaults)}"
        )
    return {
        key: _override(key, overrides[key], default)
        if key in overrides
        else None if isinstance(default, type) else default
        for key, default in defaults.items()
    }


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------


@contextmanager
def _timed(timings: dict, key: str):
    """Add the wall time of the block to ``timings[key]``."""
    start = time.perf_counter()
    yield
    timings[key] = timings.get(key, 0.0) + time.perf_counter() - start


def _dirichlet_planes(*planes):
    """Boundary builder: Dirichlet pressure on the external faces of each
    plane ``(axis, value, pressure)``, homogeneous Neumann elsewhere. A
    pressure may be a function of the face centre."""

    def build(sd, grid):
        bc = flow_bc(grid)
        ext = np.flatnonzero(grid.external_boundary)
        for axis, value, pressure in planes:
            faces = ext[np.abs(grid.face_centres[ext, axis] - value) < 1e-12]
            if faces.size:
                bc.set_dirichlet(faces, pressure)
        return bc

    return build


_LEFT_TO_RIGHT = _dirichlet_planes((0, 0.0, 1.0), (0, 1.0, 0.0))


def _corner_patches(*axes):
    """Boundary builder: Dirichlet 1 on the faces of the planes x_a = 0 (a in
    ``axes``) that lie within 0.25 of the origin in every coordinate,
    Dirichlet 0 on the faces of the planes x_a = 1 within 0.25 of the far
    corner, homogeneous Neumann elsewhere."""

    def build(sd, grid):
        bc = flow_bc(grid)
        ext = np.flatnonzero(grid.external_boundary)
        fc = grid.face_centres[ext]
        near, far = np.all(fc <= 0.25, axis=1), np.all(fc >= 0.75, axis=1)
        for value, pressure, in_patch in ((0.0, 1.0, near), (1.0, 0.0, far)):
            on_plane = np.any(np.abs(fc[:, list(axes)] - value) < 1e-12, axis=1)
            faces = ext[on_plane & in_patch]
            if faces.size:
                bc.set_dirichlet(faces, pressure)
        return bc

    return build


def _network_permeabilities(mesh, matrix_permeability):
    return [
        matrix_permeability if g.metadata.get("role") == "matrix" else g.metadata["permeability"]
        for g in mesh.subdomains
    ]


def _reduction(system, p_full, cond_full, tag: str, eliminated=None):
    """One reduction ("schur" or "star_delta") of ``system`` and its solve.

    Returns the reduced system, the kept pressures and their summary: the
    error against the full solve on the kept cells, the condition number
    and the condition ratio R_C.
    """
    reduced = (schur_reduce if tag == "schur" else star_delta_reduce)(system, eliminated)
    p_kept, cond = solve_with_condition(reduced.matrix, reduced.rhs)
    volumes = system.mesh.all_cell_volumes()[reduced.kept]
    summary = {
        "pressure_error": l2_error(p_kept, p_full[reduced.kept], volumes),
        "cond": cond,
        "r_c": cond_full / cond,
    }
    return reduced, p_kept, summary


def zero_tracer_bcs(mesh):
    """Dirichlet zero tracer on every external boundary face."""
    bcs = []
    for g in mesh.subdomains:
        bt = transport_bc(g)
        ext = np.flatnonzero(g.external_boundary)
        if ext.size:
            bt.set_dirichlet(ext, 0.0)
        bcs.append(bt)
    return bcs


def _on_kept(mesh, kept, values) -> np.ndarray:
    """Kept-cell values spread over every dof, zero on the eliminated ones."""
    full = np.zeros(mesh.n_dofs)
    full[kept] = values
    return full


def _flow_and_tracer(
    system, tags, dt, n_steps, timings, initial, probe=None, sources=None, eliminated=None
):
    """Full solve and tracer run, then each reduction in ``tags`` with its
    own solve and tracer run on the reduced graph.

    Every run starts from the concentration ``initial`` and samples the
    ``probe`` cell where it is kept. Reduced runs inherit the ``sources`` of
    the cells they remove. Returns the full pressure, its condition number,
    the full run, and per tag the reduced system, kept pressures, tracer run
    and summary (the reduction's plus tracer and mass errors).
    """
    mesh = system.mesh
    with _timed(timings, "full_solve"):
        p_full, cond_full = solve_with_condition(system.matrix, system.rhs)
    tracer_bcs = zero_tracer_bcs(mesh)
    with _timed(timings, "full_transport"):
        graph = flux_graph_from_system(system, p_full)
        start = np.full(mesh.n_dofs, initial)
        sim_full = TracerSimulation(graph, tracer_bcs, start, dt, source_rates=sources, probe=probe)
        sim_full.run(n_steps)
    volumes = mesh.all_cell_volumes()
    reductions = {}
    for tag in tags:
        with _timed(timings, tag):
            reduced, p_kept, summary = _reduction(system, p_full, cond_full, tag, eliminated)
            kept = reduced.kept
            local = np.flatnonzero(kept == probe) if probe is not None else ()
            sim = TracerSimulation(
                flux_graph_from_reduced(reduced, p_kept),
                tracer_bcs,
                np.full(kept.size, initial),
                dt,
                source_rates=None if sources is None else inherited_source_rates(reduced),
                probe=int(local[0]) if len(local) else None,
            )
            sim.run(n_steps)
        concentrations = sim_full.state.concentrations[kept]
        summary["tracer_error"] = l2_error(sim.state.concentrations, concentrations, volumes[kept])
        summary["mass_error"] = sim.mass_accounting_error
        reductions[tag] = (reduced, p_kept, sim, summary)
    return p_full, cond_full, sim_full, reductions


def _projection(fine_centres, coarse_centres, groups) -> Callable:
    """Coarse fields to fine cells: each fine cell of a ``(fine_mask,
    coarse_mask)`` group takes the value of the nearest coarse cell of the
    group; fine cells outside every group get zero."""
    source = np.full(len(fine_centres), -1)
    for fine, coarse in groups:
        nearest = nearest_cell_map(fine_centres[fine], coarse_centres[coarse])
        source[fine] = np.flatnonzero(coarse)[nearest]
    return lambda values: np.where(source >= 0, values[source], 0.0)


def _write_artifacts(study: _Study, out_dir: Path, write_vtk: bool) -> dict:
    """Write a study's fields (CSV, and VTK on request) and series; return
    their file names."""
    fields = []
    for name, mesh, values, subset in study.fields:
        fields.append(export_field_csv(mesh, values, out_dir / f"{name}.csv", subset).name)
        if write_vtk:
            fields.append(export_field_vtk(mesh, values, out_dir / f"{name}.vtk").name)
    for name, samples in study.series:
        write_series_csv(out_dir / f"{name}.csv", samples)
    return {"fields": fields, "series": [f"{name}.csv" for name, _ in study.series]}


# ---------------------------------------------------------------------------
# Case 1.1: two crossing fractures in a square, point intersection removed
# ---------------------------------------------------------------------------


def _case11_network(k_h, k_v, k_i, aperture) -> FractureNetworkSpec:
    return FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        fractures=[
            FracturePatch(1, 0.5, ((0.0, 1.0),), aperture, k_h, "horizontal"),
            FracturePatch(0, 0.5, ((0.0, 1.0),), aperture, k_v, "vertical"),
        ],
        intersection_permeability=float(k_v if k_i is None else k_i),
    )


def case11_problem(
    resolution: int = 8,
    k_h: float = 1.0,
    k_v: float = 1.0,
    k_i: float | None = None,
    aperture: float = 1e-2,
) -> tuple[FlowProblem, object]:
    """Unit square, gradient-aligned and gradient-normal fractures.

    The point intersection inherits the gradient-normal fracture's
    permeability unless ``k_i`` overrides it. Linear pressure is prescribed
    on the vertical boundaries; the distance-corrected coupling keeps the
    uniform-permeability solution exactly linear.
    """
    mesh = build_cartesian_with_fractures(_case11_network(k_h, k_v, k_i, aperture), resolution)

    def linear(x):
        return 1.0 - x[0]

    problem = uniform_problem(
        mesh,
        _network_permeabilities(mesh, 1.0),
        _dirichlet_planes((0, 0.0, linear), (0, 1.0, linear)),
        distance_correction=True,
    )
    return problem, mesh


def _case11_point(problem, mesh) -> dict:
    """Full solve and both reductions of one permeability combination."""
    system = problem.assemble()
    p_full, cond_full = solve_with_condition(system.matrix, system.rhs)
    point = {
        "cond_full": cond_full,
        "conservation": conservation_residual(system, p_full),
        "mesh": mesh,
        "problem": problem,
        "system": system,
        "p_full": p_full,
    }
    for tag in ("schur", "star_delta"):
        reduced, p_kept, summary = _reduction(system, p_full, cond_full, tag)
        point[tag] = {**summary, "reduced": reduced, "p_kept": p_kept}
    return point


def sweep_case11(values=(1e-3, 1.0, 1e3), resolution: int = 8, k_i=None, aperture=1e-2) -> dict:
    """Error and condition-ratio matrices over the fracture permeability grid.

    ``k_i`` and ``aperture`` are those of ``case11_problem``. All points share
    one mesh and take the permeabilities of their own networks.
    """
    values = [float(v) for v in values]
    problem, mesh = case11_problem(resolution, k_i=k_i, aperture=aperture)
    points = {}
    for k_h, k_v in itertools.product(values, values):
        spec = _case11_network(k_h, k_v, k_i, aperture)
        tensors = [1.0, *(f.permeability for f in spec.fractures), spec.intersection_permeability]
        k = [tensor_field(t, g.n_cells, 2) for t, g in zip(tensors, mesh.subdomains)]
        points[(k_h, k_v)] = _case11_point(replace(problem, permeability=k), mesh)
    matrices = {"k_values": values}
    for key in ("pressure_error", "r_c"):
        matrices[key] = {
            tag: [[points[(k_h, k_v)][tag][key] for k_v in values] for k_h in values]
            for tag in ("schur", "star_delta")
        }
    return {"matrices": matrices, "points": points}


def _study_11(build, spec, p, timings) -> _Study:
    n = spec.resolved_resolution
    if "k_h" not in spec.overrides and "k_v" not in spec.overrides:
        with _timed(timings, "sweep"):
            sweep = sweep_case11(resolution=n, k_i=p["k_i"], aperture=p["aperture"])
        return _Study({"mode": "sweep", **sweep["matrices"]}, sweep)
    with _timed(timings, "solve"):
        point = _case11_point(*build(n))
    results = {
        "mode": "single-point",
        "k_h": p["k_h"],
        "k_v": p["k_v"],
        "cond_full": point["cond_full"],
        "conservation": point["conservation"],
    }
    for tag in ("schur", "star_delta"):
        results[tag] = {key: point[tag][key] for key in ("pressure_error", "cond", "r_c")}
    fields = [("pressure_full", point["mesh"], point["p_full"], None)]
    return _Study(results, {"point": point}, fields)


# ---------------------------------------------------------------------------
# Case 1.3: crossing fractures in a cube, line intersection removed
# ---------------------------------------------------------------------------


def case13_problem(
    resolution: int = 8,
    k_conductive: float = 1e6,
    k_blocking: float = 1e-6,
    aperture: float = 1e-6,
) -> tuple[FlowProblem, object]:
    """Unit cube with a conducting and a blocking fracture crossing in a line."""
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
        fractures=[
            FracturePatch(2, 0.5, ((0.0, 1.0), (0.0, 1.0)), aperture, k_conductive, "conductive"),
            FracturePatch(0, 0.5, ((0.0, 1.0), (0.0, 1.0)), aperture, k_blocking, "blocking"),
        ],
        intersection_permeability="min",
    )
    mesh = build_cartesian_with_fractures(spec, resolution)
    problem = uniform_problem(mesh, _network_permeabilities(mesh, 1.0), _LEFT_TO_RIGHT)
    return problem, mesh


def _study_13(build, spec, p, timings) -> _Study:
    n, n_steps = spec.resolved_resolution, p["n_steps"]
    dt = p["t_final"] / n_steps
    with _timed(timings, "assembly"):
        problem, mesh = build(n)
        system = problem.assemble()
    h = 1.0 / n
    probe = resolve_probe(mesh, np.array([1.0 - h / 2, 0.5 - h / 2, 0.5 - h / 2]), dims=3)
    tags = {None: ("schur", "star_delta"), "none": ()}.get(spec.elimination, (spec.elimination,))
    p_full, cond_full, sim_full, reductions = _flow_and_tracer(
        system, tags, dt, n_steps, timings, 1.0, probe
    )
    tracer_full = sim_full.state.concentrations

    results = {
        "cond_full": cond_full,
        "conservation": conservation_residual(system, p_full),
        "transport": {
            "t_final": p["t_final"],
            "dt": dt,
            "mass_error_full": sim_full.mass_accounting_error,
        },
    }
    extras = {
        "mesh": mesh,
        "system": system,
        "p_full": p_full,
        "sim_full": sim_full,
        "probe": probe,
    }
    study = _Study(
        results,
        extras,
        [("pressure_full", mesh, p_full, None), ("tracer_full", mesh, tracer_full, None)],
        [("series_full", sim_full.state.series)],
    )
    for tag, (reduced, p_kept, sim, summary) in reductions.items():
        results[tag] = summary
        extras[tag] = {"reduced": reduced, "p_kept": p_kept, "sim": sim}
        # Kept-cell fields, row-aligned with the kept rows of the full
        # exports, so reported errors can be recomputed.
        kept = reduced.kept
        study.fields += [
            (f"pressure_{tag}_kept", mesh, _on_kept(mesh, kept, p_kept), kept),
            (f"tracer_{tag}_kept", mesh, _on_kept(mesh, kept, sim.state.concentrations), kept),
        ]
        study.series.append((f"series_{tag}", sim.state.series))
    if "schur" in reductions:
        kept = reductions["schur"][0].kept
        study.fields += [
            ("pressure_full_kept", mesh, p_full, kept),
            ("tracer_full_kept", mesh, tracer_full, kept),
        ]
    return study


# ---------------------------------------------------------------------------
# Case 2: one fracture, anisotropic matrix, refinement against a fine
# equi-dimensional reference
# ---------------------------------------------------------------------------


def case2_matrix_tensor(ratio: float, angle: float) -> PermeabilityTensor:
    return PermeabilityTensor.rotated([float(ratio), 1.0], angle)


def case2_problem(
    resolution: int,
    ratio: float,
    angle: float = 30.0,
    k_fracture: float = 1e4,
    aperture: float = 1e-3,
) -> tuple[FlowProblem, object]:
    """Anisotropic square matrix with one highly permeable horizontal fracture.

    Internal discretizations use the multipoint scheme; the interdimensional
    coupling stays two-point with the aperture-corrected distance.
    """
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        fractures=[FracturePatch(1, 0.5, ((0.0, 1.0),), aperture, k_fracture, "fracture")],
    )
    mesh = build_cartesian_with_fractures(spec, resolution)
    problem = uniform_problem(
        mesh,
        _network_permeabilities(mesh, case2_matrix_tensor(ratio, angle)),
        _corner_patches(0, 1),
        methods=["mpfa"] * len(mesh.subdomains),
        distance_correction=True,
    )
    return problem, mesh


def case2_fine_reference(
    fine_resolution: int,
    ratio: float,
    angle: float = 30.0,
    k_fracture: float = 1e4,
    aperture: float = 1e-3,
):
    """Equi-dimensional reference: the fracture meshed as a thin cell row.

    Returns the flow problem and the mask of the fracture's cells."""
    nf = fine_resolution
    half = np.linspace(0.0, 0.5 - aperture / 2.0, nf // 2 + 1)
    upper = np.linspace(0.5 + aperture / 2.0, 1.0, nf // 2 + 1)
    y_nodes = np.concatenate([half, upper])
    spec = FractureNetworkSpec(domain=((0.0, 1.0), (0.0, 1.0)))
    mesh = build_cartesian_with_fractures(spec, (nf, y_nodes))
    grid = mesh.subdomains[0]
    k = case2_matrix_tensor(ratio, angle).field(grid.n_cells)
    strip = np.abs(grid.cell_centres[:, 1] - 0.5) < aperture / 2.0
    k[strip] = k_fracture * np.eye(2)
    problem = FlowProblem(
        mesh=mesh,
        permeability=[k],
        bcs=[_corner_patches(0, 1)(0, grid)],
        methods=["mpfa"],
    )
    return problem, strip


def _study_2(build, spec, p, timings) -> _Study:
    ratios = [1.0, 3.0, 6.0] if p["ratio"] is None else [p["ratio"]]
    resolutions = [4, 8, 16, 32]
    results = {
        "angle": p["angle"],
        "resolutions": resolutions,
        "ratios": ratios,
        "errors": {},
        "slopes": {},
    }
    # The meshes, and the maps from fine to coarse cells, serve every ratio;
    # a ratio changes only the matrix tensor, subdomain 0 of every mesh.
    with _timed(timings, "meshes"):
        physics = (p["angle"], p["k_fracture"], p["aperture"])
        fine_problem, strip = case2_fine_reference(p["fine_resolution"], ratios[0], *physics)
        fine = fine_problem.mesh.subdomains[0]
        coarse = []
        for n in resolutions:
            problem, mesh = build(n, ratios[0])
            dims = mesh.dof_dims()
            groups = [(~strip, dims == 2), (strip, dims == 1)]
            project = _projection(fine.cell_centres, mesh.all_cell_centres(), groups)
            coarse.append((problem, project))
    for ratio in ratios:
        tensor = case2_matrix_tensor(ratio, p["angle"])
        with _timed(timings, f"fine_ratio_{ratio:g}"):
            k = np.where(strip[:, None, None], fine_problem.permeability[0], tensor.matrix)
            fine_system = replace(fine_problem, permeability=[k]).assemble()
            p_fine = direct_solve(fine_system.matrix, fine_system.rhs)
        errors = []
        for n, (problem, project) in zip(resolutions, coarse):
            with _timed(timings, f"coarse_{n}_ratio_{ratio:g}"):
                system = problem.with_subdomain_permeability([0], tensor).assemble()
                pressure = direct_solve(system.matrix, system.rhs)
            errors.append(l2_error(project(pressure), p_fine, fine.cell_volumes))
        results["errors"][f"{ratio:g}"] = errors
        results["slopes"][f"{ratio:g}"] = least_squares_slope(
            1.0 / np.array(resolutions), np.array(errors)
        )
    if p["fine_resolution"] < 256:
        results["note"] = (
            f"reference uses a {p['fine_resolution']}x{p['fine_resolution']} "
            "equi-dimensional grid (desk scale) instead of 256x256"
        )
    return _Study(results, {})


# ---------------------------------------------------------------------------
# Case 3: anisotropic fracture tensor in a cube; scheme comparison
# ---------------------------------------------------------------------------


CASE3_FRACTURE_TENSOR = np.array(
    [
        [2.0e3 / 3.0, -1.0e3 / 3.0, 0.0],
        [-1.0e3 / 3.0, 2.0e3 / 3.0, 0.0],
        [0.0, 0.0, 1.0e3],
    ]
)


def case3_problem(
    resolution: int = 8, discretization: str = "mpfa", aperture: float = 1e-3
) -> tuple[FlowProblem, object]:
    """Unit cube, one horizontal fracture with an in-plane rotated tensor.

    ``discretization`` picks the internal schemes: "tpfa", "mpfa", or
    "hybrid" (two-point matrix, multipoint fracture). The coupling is always
    two-point.
    """
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
        fractures=[
            FracturePatch(
                2,
                0.5,
                ((0.0, 1.0), (0.0, 1.0)),
                aperture,
                PermeabilityTensor(CASE3_FRACTURE_TENSOR),
                "fracture",
            )
        ],
    )
    mesh = build_cartesian_with_fractures(spec, resolution)
    methods = _case3_methods(mesh, discretization)
    problem = uniform_problem(
        mesh, _network_permeabilities(mesh, 1.0), _corner_patches(2), methods=methods
    )
    return problem, mesh


def _case3_methods(mesh, discretization: str) -> list:
    if discretization == "hybrid":
        return ["tpfa" if g.dim == 3 else "mpfa" for g in mesh.subdomains]
    if discretization in ("tpfa", "mpfa"):
        return [discretization] * len(mesh.subdomains)
    raise FracfvError(f"unknown discretization {discretization!r}")


def _study_3(build, spec, p, timings) -> _Study:
    n, n_steps = spec.resolved_resolution, p["n_steps"]
    dt = p["t_final"] / n_steps
    variants = ["tpfa", "hybrid"] if spec.discretization is None else [spec.discretization]
    runs = {}
    study = _Study({"t_final": p["t_final"], "dt": dt, "reference": "mpfa"}, {"runs": runs})
    problem, mesh = build(n, "mpfa")  # one mesh for every scheme
    probe = resolve_probe(mesh, np.array([0.9, 0.9, 1.0]), dims=3)
    for disc in dict.fromkeys(["mpfa"] + variants):
        with _timed(timings, f"discretize_{disc}"):
            system = replace(problem, methods=_case3_methods(mesh, disc)).assemble()
        with _timed(timings, f"solve_transport_{disc}"):
            pressure = direct_solve(system.matrix, system.rhs)
            graph = flux_graph_from_system(system, pressure)
            sim = TracerSimulation(
                graph, zero_tracer_bcs(mesh), np.ones(mesh.n_dofs), dt, probe=probe
            )
            sim.run(n_steps)
        runs[disc] = {
            "mesh": mesh,
            "system": system,
            "p": pressure,
            "sim": sim,
            "conservation": conservation_residual(system, pressure),
        }
        study.fields.append((f"pressure_{disc}", mesh, pressure, None))
        study.series.append((f"series_{disc}", sim.state.series))

    volumes = runs["mpfa"]["mesh"].all_cell_volumes()
    dims = runs["mpfa"]["mesh"].dof_dims()
    groups = {"matrix": dims == 3, "fracture": dims == 2}
    ref_p = runs["mpfa"]["p"]
    ref_t = runs["mpfa"]["sim"].state.concentrations
    differences = {}
    # Wall-time ratios differ from run to run, so they go to timings.json.
    t_ref = max(timings["discretize_mpfa"], 1e-300)
    timings["relative_discretization_time"] = {}
    for disc in variants:
        if disc == "mpfa":
            continue
        run = runs[disc]
        entry = {}
        for name, mask in groups.items():
            entry[f"pressure_{name}"] = l2_error(run["p"], ref_p, volumes, subset=mask)
            entry[f"tracer_{name}"] = l2_error(
                run["sim"].state.concentrations, ref_t, volumes, subset=mask
            )
        differences[disc] = entry
        timings["relative_discretization_time"][disc] = timings[f"discretize_{disc}"] / t_ref
    study.results["differences"] = differences
    study.results["conservation"] = {d: r["conservation"] for d, r in runs.items()}
    study.results["mass_error"] = {d: r["sim"].mass_accounting_error for d, r in runs.items()}
    return study


# ---------------------------------------------------------------------------
# Case 4: heterogeneous matrix halves, conductive network blocked by one
# fracture, injection in an intersection cell
# ---------------------------------------------------------------------------


def case4_problem(
    resolution: int = 8,
    k_upper: float = 1e-2,
    k_lower: float = 1e-3,
    q_injection: float = 1.0,
) -> tuple[FlowProblem, object, int]:
    """Axis-aligned conductive network with a central blocking patch.

    Two conductive vertical planes cross in an interior vertical line; a
    blocking horizontal patch at the symmetry plane crosses both. The
    network stays clear of the drainage boundaries, so all flow reaches them
    through the matrix, which is more permeable above the symmetry plane.
    Injection enters the conductive line cell just below the domain centre
    (an intersection cell, removed by the default elimination).

    The resolution must be a multiple of 8 so the patch edges lie on grid
    planes.
    """
    conductive, blocking, aperture = 1e5, 1e-5, 1e-6
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
        fractures=[
            FracturePatch(0, 0.5, ((0.0, 1.0), (0.125, 0.875)), aperture, conductive, "plane_x"),
            FracturePatch(1, 0.5, ((0.0, 1.0), (0.125, 0.875)), aperture, conductive, "plane_y"),
            FracturePatch(2, 0.5, ((0.25, 0.75), (0.25, 0.75)), aperture, blocking, "blocker"),
        ],
        intersection_permeability="min",
    )
    mesh = build_cartesian_with_fractures(spec, resolution)
    upper = mesh.highest_dim_subdomain().cell_centres[:, 2] > 0.5
    halves = [PermeabilityTensor.isotropic(k, 3).matrix for k in (k_upper, k_lower)]
    k_matrix = np.where(upper[:, None, None], *halves)

    # Injection cell: on the conductive vertical line, one half cell below
    # the centre. The line cells of the blocker lie half a cell away.
    injection_dof = resolve_probe(mesh, np.array([0.5, 0.5, 0.5 - 0.5 / resolution]), dims=1)
    source_density = np.zeros(mesh.n_dofs)
    source_density[injection_dof] = q_injection / mesh.all_cell_volumes()[injection_dof]

    problem = uniform_problem(
        mesh,
        _network_permeabilities(mesh, k_matrix),
        _dirichlet_planes((2, 0.0, 0.0), (2, 1.0, 0.0)),
        source_density=source_density,
    )
    return problem, mesh, injection_dof


def _study_4(build, spec, p, timings) -> _Study:
    n, n_steps = spec.resolved_resolution, p["n_steps"]
    dt = p["t_final"] / n_steps
    with _timed(timings, "assembly"):
        problem, mesh, injection_dof = build(n)
        system = problem.assemble()
    sources = np.zeros(mesh.n_dofs)
    sources[injection_dof] = p["q_injection"]  # injected concentration is one
    eliminated = mesh.intersection_dofs(zero_d_only=p["zero_d_only"])
    p_full, cond_full, sim_full, reductions = _flow_and_tracer(
        system, ("schur",), dt, n_steps, timings, 0.0, sources=sources, eliminated=eliminated
    )
    reduced, p_kept, sim_red, summary = reductions["schur"]

    volumes = mesh.all_cell_volumes()
    dims = mesh.dof_dims()
    centres = mesh.all_cell_centres()
    t_full_final = sim_full.state.concentrations
    upper_mask = (dims == 3) & (centres[:, 2] > 0.5)
    lower_mask = (dims == 3) & (centres[:, 2] < 0.5)
    p_back = back_substitute(reduced, p_kept)
    results = {
        "cond_full": cond_full,
        "eliminated_dofs": int(eliminated.size),
        "conservation": conservation_residual(system, p_full),
        "schur": {**summary, "pressure_error_back_substituted": l2_error(p_back, p_full, volumes)},
        "tracer_mass_upper_matrix": float(volumes[upper_mask] @ t_full_final[upper_mask]),
        "tracer_mass_lower_matrix": float(volumes[lower_mask] @ t_full_final[lower_mask]),
        "t_final": p["t_final"],
        "dt": dt,
    }
    extras = {
        "mesh": mesh,
        "system": system,
        "p_full": p_full,
        "sim_full": sim_full,
        "reduced": reduced,
        "p_kept": p_kept,
        "sim_red": sim_red,
        "injection_dof": injection_dof,
    }
    kept = reduced.kept
    fields = [
        ("pressure_full", mesh, p_full, None),
        ("tracer_full", mesh, t_full_final, None),
        ("pressure_schur_kept", mesh, _on_kept(mesh, kept, p_kept), kept),
        ("pressure_full_kept", mesh, p_full, kept),
    ]
    return _Study(results, extras, fields)


# ---------------------------------------------------------------------------
# Case 1.2-lite: ten axis-aligned fractures of two permeabilities
# ---------------------------------------------------------------------------


def case12_problem(
    resolution: int,
    k_conductive: float = 1e4,
    k_blocking: float = 1e-4,
    aperture: float = 1e-4,
) -> tuple[FlowProblem, object]:
    """Ten fractures; conduits left-right, blocked by low-permeable crossings."""
    c, b = k_conductive, k_blocking
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        fractures=[
            FracturePatch(1, 0.25, ((0.0, 1.0),), aperture, c, "h_conduit_low"),
            FracturePatch(1, 0.5, ((0.0, 1.0),), aperture, c, "h_conduit_mid"),
            FracturePatch(1, 0.75, ((0.0, 1.0),), aperture, c, "h_conduit_high"),
            FracturePatch(0, 0.25, ((0.25, 0.75),), aperture, c, "v_conduit_left"),
            FracturePatch(0, 0.75, ((0.25, 0.75),), aperture, c, "v_conduit_right"),
            FracturePatch(0, 0.375, ((0.125, 0.875),), aperture, b, "v_block_left"),
            FracturePatch(0, 0.625, ((0.125, 0.875),), aperture, b, "v_block_right"),
            FracturePatch(0, 0.5, ((0.0625, 0.9375),), aperture, b, "v_block_mid"),
            FracturePatch(1, 0.375, ((0.25, 0.75),), aperture, b, "h_block_low"),
            FracturePatch(1, 0.625, ((0.25, 0.75),), aperture, b, "h_block_high"),
        ],
        intersection_permeability="harmonic",
    )
    mesh = build_cartesian_with_fractures(spec, resolution)
    problem = uniform_problem(mesh, _network_permeabilities(mesh, 1.0), _LEFT_TO_RIGHT)
    return problem, mesh


def _study_12(build, spec, p, timings) -> _Study:
    n = spec.resolved_resolution
    fine_res = 4 * n if p["fine_resolution"] is None else p["fine_resolution"]
    with _timed(timings, "fine_reference"):
        fine_problem, fine_mesh = build(fine_res)
        fine_system = fine_problem.assemble()
        p_fine = direct_solve(fine_system.matrix, fine_system.rhs)
    with _timed(timings, "coarse"):
        problem, mesh = build(n)
        system = problem.assemble()
        p_none, cond_full = solve_with_condition(system.matrix, system.rhs)

    fine_dims = fine_mesh.dof_dims()
    fine_volumes = fine_mesh.all_cell_volumes()
    # Intersection points (dim 0) are excluded from the comparison groups.
    groups = [(fine_dims == d, mesh.dof_dims() == d) for d in (1, 2)]
    project = _projection(fine_mesh.all_cell_centres(), mesh.all_cell_centres(), groups)

    def group_errors(values_full: np.ndarray) -> dict:
        projected = project(values_full)
        return {
            "combined": l2_error(projected, p_fine, fine_volumes, subset=fine_dims >= 1),
            "matrix": l2_error(projected, p_fine, fine_volumes, subset=fine_dims == 2),
            "fracture": l2_error(projected, p_fine, fine_volumes, subset=fine_dims == 1),
        }

    results = {
        "fine_resolution": fine_res,
        "cond_full": cond_full,
        "methods": {"none": {**group_errors(p_none), "cond": cond_full}},
    }
    full_fields = {"none": p_none}
    for tag in ("schur", "star_delta"):
        with _timed(timings, tag):
            reduced, p_kept, summary = _reduction(system, p_none, cond_full, tag)
        # Star-Delta leaves the intersection points without values; they
        # sit outside the comparison groups.
        if tag == "schur":
            values_full = back_substitute(reduced, p_kept)
        else:
            values_full = _on_kept(mesh, reduced.kept, p_kept)
        results["methods"][tag] = {
            **group_errors(values_full),
            "cond": summary["cond"],
            "r_c": summary["r_c"],
        }
        full_fields[tag] = values_full
    extras = {
        "mesh": mesh,
        "fine_mesh": fine_mesh,
        "p_fine": p_fine,
        "fields": full_fields,
        "system": system,
    }
    fields = [(f"pressure_{tag}", mesh, values, None) for tag, values in full_fields.items()]
    fields.append(("pressure_reference", fine_mesh, p_fine, None))
    return _Study(results, extras, fields)


# ---------------------------------------------------------------------------
# The case table and the pipeline
# ---------------------------------------------------------------------------

CASES = {
    "1.1": _Case(8, case11_problem, ("k_h", "k_v", "k_i", "aperture"), _study_11),
    "1.2-lite": _Case(
        16,
        case12_problem,
        ("k_conductive", "k_blocking", "aperture"),
        _study_12,
        controls={"fine_resolution": int},  # four times the resolution
    ),
    "1.3": _Case(
        8,
        case13_problem,
        ("k_conductive", "k_blocking", "aperture"),
        _study_13,
        controls={"t_final": 0.5, "n_steps": 200},
        eliminations=("none", "schur", "star_delta"),
    ),
    "2": _Case(
        None,
        case2_problem,
        ("angle", "k_fracture", "aperture"),
        _study_2,
        controls={"ratio": float, "fine_resolution": 128},  # ratios 1, 3 and 6
    ),
    "3": _Case(
        8,
        case3_problem,
        ("aperture",),
        _study_3,
        controls={"t_final": 30.0, "n_steps": 200},
        discretizations=("tpfa", "mpfa", "hybrid"),
    ),
    "4": _Case(
        8,
        case4_problem,
        ("k_upper", "k_lower", "q_injection"),
        _study_4,
        controls={"t_final": 2.0, "n_steps": 200, "zero_d_only": False},
    ),
}

CASE_IDS = tuple(CASES)


def run_case(spec: CaseSpec) -> CaseResult:
    """Run a preset case end to end and optionally write its artifacts."""
    case = CASES[spec.case]
    parameters = spec.parameters
    build = partial(case.problem, **{name: parameters[name] for name in case.physics})
    timings = {}
    study = case.study(build, spec, parameters, timings)
    report = report_envelope(
        {
            "id": spec.case,
            "resolution": spec.resolved_resolution,
            "discretization": spec.discretization,
            "elimination": spec.elimination,
            "overrides": dict(spec.overrides),
        },
        study.results,
    )
    if spec.out_dir is not None:
        out_dir = Path(spec.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report["artifacts"] = _write_artifacts(study, out_dir, spec.write_vtk)
        write_report(report, out_dir, timings)
    extras = {**study.extras, "timings": timings}
    return CaseResult(report=report, extras=extras, out_dir=spec.out_dir)
