"""Preset test cases: meshes, physics, runs, error reports and artifacts.

Each case builds its fracture network and boundary conditions, solves the
requested variants (discretization and elimination choices), computes
volume-weighted relative L2 errors against the case's reference, and emits
field/series artifacts plus a deterministic JSON report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

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
from ..linsolve import condition_number, direct_solve, factorize
from ..mdmesh import FractureNetworkSpec, FracturePatch, build_cartesian_with_fractures
from ..tensors import PermeabilityTensor, tensor_field
from ..transport import (
    TracerSimulation,
    flux_graph_from_reduced,
    flux_graph_from_system,
    monitor,
    resolve_probe,
    write_series_csv,
)
from .export import build_identifier, export_field_csv, export_field_vtk, write_report
from .norms import NORM_VERSION, l2_error, least_squares_slope, nearest_cell_map

CASE_IDS = ("1.1", "1.2-lite", "1.3", "2", "3", "4")

_ALLOWED_OVERRIDES = {
    "1.1": {"k_h", "k_v", "k_i", "aperture"},
    "1.2-lite": {"k_conductive", "k_blocking", "aperture", "fine_resolution"},
    "1.3": {"k_conductive", "k_blocking", "aperture", "t_final", "n_steps"},
    "2": {"angle", "ratio", "k_fracture", "aperture", "fine_resolution"},
    "3": {"aperture", "t_final", "n_steps"},
    "4": {"q_injection", "t_final", "n_steps", "k_upper", "k_lower", "zero_d_only"},
}

_DEFAULT_RESOLUTION = {"1.1": 8, "1.2-lite": 16, "1.3": 8, "2": 16, "3": 8, "4": 8}


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
        if self.case not in CASE_IDS:
            raise FracfvError(f"unknown case {self.case!r}; available: {CASE_IDS}")
        allowed = _ALLOWED_OVERRIDES[self.case]
        unknown = set(self.overrides) - allowed
        if unknown:
            raise FracfvError(
                f"overrides {sorted(unknown)} are not free parameters of case "
                f"{self.case}; allowed: {sorted(allowed)}"
            )
        for key, value in self.overrides.items():
            if key == "zero_d_only":
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise FracfvError(f"override {key} must be numeric, got {value!r}")

    @property
    def resolved_resolution(self) -> int:
        return self.resolution or _DEFAULT_RESOLUTION[self.case]


@dataclass
class CaseResult:
    report: dict
    extras: dict
    out_dir: Path | None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _faces_on_plane(grid, axis: int, value: float, tol: float = 1e-12):
    ext = np.flatnonzero(grid.external_boundary)
    return ext[np.abs(grid.face_centres[ext, axis] - value) < tol]


def _kept_l2(mesh, reference_full, values_kept, kept, subset=None) -> float:
    volumes = mesh.all_cell_volumes()[kept]
    ref = reference_full[kept]
    return l2_error(values_kept, ref, volumes, subset)


def _solve_with_condition(matrix, rhs) -> tuple[np.ndarray, float]:
    """Solution and 2-norm condition number of one system, from one LU factor."""
    lu = factorize(matrix)
    return direct_solve(matrix, rhs, factor=lu), condition_number(matrix, factor=lu)


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


def _network_permeabilities(mesh, matrix_permeability):
    perms = []
    for g in mesh.subdomains:
        if g.metadata.get("role") == "matrix":
            perms.append(matrix_permeability)
        else:
            perms.append(g.metadata["permeability"])
    return perms


def _run_transport(graph, tracer_bcs, initial, dt, n_steps, probe_cell=None, sources=None):
    sim = TracerSimulation(graph, tracer_bcs, initial, dt, source_rates=sources)
    if probe_cell is not None:
        monitor(sim.state, probe_cell)  # record the initial state
    sim.run(n_steps, probe_cell)
    return sim


# ---------------------------------------------------------------------------
# Case 1.1: two crossing fractures in a square, point intersection removed
# ---------------------------------------------------------------------------


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
    rule = ("patch", "vertical") if k_i is None else float(k_i)
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        fractures=[
            FracturePatch(1, 0.5, ((0.0, 1.0),), aperture, k_h, "horizontal"),
            FracturePatch(0, 0.5, ((0.0, 1.0),), aperture, k_v, "vertical"),
        ],
        intersection_permeability=rule,
    )
    mesh = build_cartesian_with_fractures(spec, resolution)

    def bcb(sd, g):
        bc = flow_bc(g)
        faces = np.concatenate([_faces_on_plane(g, 0, 0.0), _faces_on_plane(g, 0, 1.0)])
        if faces.size:
            bc.set_dirichlet(faces, lambda x: 1.0 - x[0])
        return bc

    problem = uniform_problem(
        mesh, _network_permeabilities(mesh, 1.0), bcb, distance_correction=True
    )
    return problem, mesh


def run_case11_point(
    k_h: float, k_v: float, resolution: int = 8, k_i: float | None = None, aperture: float = 1e-2
) -> dict:
    """Solve one permeability combination with both eliminations."""
    problem, mesh = case11_problem(resolution, k_h, k_v, k_i, aperture)
    system = problem.assemble()
    p_full, cond_full = _solve_with_condition(system.matrix, system.rhs)
    out = {
        "k_h": k_h,
        "k_v": k_v,
        "cond_full": cond_full,
        "conservation": conservation_residual(system, p_full),
        "mesh": mesh,
        "problem": problem,
        "system": system,
        "p_full": p_full,
    }
    for tag, reducer in (("schur", schur_reduce), ("star_delta", star_delta_reduce)):
        reduced = reducer(system)
        p_kept, cond_red = _solve_with_condition(reduced.matrix, reduced.rhs)
        out[tag] = {
            "pressure_error": _kept_l2(mesh, p_full, p_kept, reduced.kept),
            "cond": cond_red,
            "r_c": cond_full / cond_red,
            "reduced": reduced,
            "p_kept": p_kept,
        }
    return out


def sweep_case11(values=(1e-3, 1.0, 1e3), resolution: int = 8) -> dict:
    """Error and condition-ratio matrices over the fracture permeability grid."""
    values = [float(v) for v in values]
    matrices = {
        "k_values": values,
        "pressure_error": {"schur": [], "star_delta": []},
        "r_c": {"schur": [], "star_delta": []},
    }
    points = {}
    for k_h in values:
        row_err_s, row_err_d, row_rc_s, row_rc_d = [], [], [], []
        for k_v in values:
            res = run_case11_point(k_h, k_v, resolution)
            points[(k_h, k_v)] = res
            row_err_s.append(res["schur"]["pressure_error"])
            row_err_d.append(res["star_delta"]["pressure_error"])
            row_rc_s.append(res["schur"]["r_c"])
            row_rc_d.append(res["star_delta"]["r_c"])
        matrices["pressure_error"]["schur"].append(row_err_s)
        matrices["pressure_error"]["star_delta"].append(row_err_d)
        matrices["r_c"]["schur"].append(row_rc_s)
        matrices["r_c"]["star_delta"].append(row_rc_d)
    return {"matrices": matrices, "points": points}


def _run_case_11(spec: CaseSpec) -> tuple[dict, dict, dict]:
    n = spec.resolved_resolution
    timings = {}
    t0 = time.perf_counter()
    if "k_h" in spec.overrides or "k_v" in spec.overrides:
        k_h = float(spec.overrides.get("k_h", 1.0))
        k_v = float(spec.overrides.get("k_v", 1.0))
        k_i = spec.overrides.get("k_i")
        point = run_case11_point(k_h, k_v, n, k_i, float(spec.overrides.get("aperture", 1e-2)))
        timings["solve"] = time.perf_counter() - t0
        report = {
            "mode": "single-point",
            "k_h": k_h,
            "k_v": k_v,
            "cond_full": point["cond_full"],
            "conservation": point["conservation"],
            "schur": {k: point["schur"][k] for k in ("pressure_error", "cond", "r_c")},
            "star_delta": {k: point["star_delta"][k] for k in ("pressure_error", "cond", "r_c")},
        }
        return report, {"point": point}, timings
    sweep = sweep_case11(resolution=n)
    timings["sweep"] = time.perf_counter() - t0
    return {"mode": "sweep", **sweep["matrices"]}, sweep, timings


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

    def bcb(sd, g):
        bc = flow_bc(g)
        left = _faces_on_plane(g, 0, 0.0)
        right = _faces_on_plane(g, 0, 1.0)
        if left.size:
            bc.set_dirichlet(left, 1.0)
        if right.size:
            bc.set_dirichlet(right, 0.0)
        return bc

    problem = uniform_problem(mesh, _network_permeabilities(mesh, 1.0), bcb)
    return problem, mesh


def _run_case_13(spec: CaseSpec) -> tuple[dict, dict, dict]:
    n = spec.resolved_resolution
    ov = spec.overrides
    t_final = float(ov.get("t_final", 0.5))
    n_steps = int(ov.get("n_steps", 200))
    dt = t_final / n_steps
    timings = {}

    t0 = time.perf_counter()
    problem, mesh = case13_problem(
        n,
        float(ov.get("k_conductive", 1e6)),
        float(ov.get("k_blocking", 1e-6)),
        float(ov.get("aperture", 1e-6)),
    )
    system = problem.assemble()
    timings["assembly"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    p_full, cond_full = _solve_with_condition(system.matrix, system.rhs)
    timings["full_solve"] = time.perf_counter() - t0

    h = 1.0 / n
    probe_point = np.array([1.0 - h / 2, 0.5 - h / 2, 0.5 - h / 2])
    probe = resolve_probe(mesh, probe_point, dims=3)
    tracer_bcs = zero_tracer_bcs(mesh)

    t0 = time.perf_counter()
    graph_full = flux_graph_from_system(system, p_full)
    sim_full = _run_transport(graph_full, tracer_bcs, np.ones(mesh.n_dofs), dt, n_steps, probe)
    timings["full_transport"] = time.perf_counter() - t0

    report = {
        "cond_full": cond_full,
        "conservation": conservation_residual(system, p_full),
        "transport": {
            "t_final": t_final,
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
        "tracer_bcs": tracer_bcs,
    }

    modes = ("schur", "star_delta") if spec.elimination in (None, "none") else (spec.elimination,)
    volumes = mesh.all_cell_volumes()
    for tag in modes:
        reducer = schur_reduce if tag == "schur" else star_delta_reduce
        t0 = time.perf_counter()
        reduced = reducer(system)
        p_kept, cond_red = _solve_with_condition(reduced.matrix, reduced.rhs)
        graph_red = flux_graph_from_reduced(reduced, p_kept)
        kept_local = np.flatnonzero(np.isin(reduced.kept, [probe]))
        probe_local = int(kept_local[0]) if kept_local.size else None
        sim_red = _run_transport(
            graph_red, tracer_bcs, np.ones(reduced.kept.size), dt, n_steps, probe_local
        )
        timings[tag] = time.perf_counter() - t0
        t_ref = sim_full.state.concentrations[reduced.kept]
        report[tag] = {
            "pressure_error": _kept_l2(mesh, p_full, p_kept, reduced.kept),
            "tracer_error": l2_error(
                sim_red.state.concentrations, t_ref, volumes[reduced.kept]
            ),
            "cond": cond_red,
            "r_c": cond_full / cond_red,
            "mass_error": sim_red.mass_accounting_error,
        }
        extras[tag] = {"reduced": reduced, "p_kept": p_kept, "sim": sim_red}
    return report, extras, timings


# ---------------------------------------------------------------------------
# Case 2: one fracture, anisotropic matrix, refinement against a fine
# equi-dimensional reference
# ---------------------------------------------------------------------------


def case2_matrix_tensor(ratio: float, angle: float) -> PermeabilityTensor:
    return PermeabilityTensor.rotated([float(ratio), 1.0], angle)


def _case2_corner_bc(grid, patch: float = 0.25):
    """Dirichlet 1 near the origin corner, 0 near the far corner."""
    bc = flow_bc(grid)
    ext = np.flatnonzero(grid.external_boundary)
    fc = grid.face_centres[ext]
    near = ext[
        ((np.abs(fc[:, 0]) < 1e-12) & (fc[:, 1] <= patch))
        | ((np.abs(fc[:, 1]) < 1e-12) & (fc[:, 0] <= patch))
    ]
    far = ext[
        ((np.abs(fc[:, 0] - 1.0) < 1e-12) & (fc[:, 1] >= 1.0 - patch))
        | ((np.abs(fc[:, 1] - 1.0) < 1e-12) & (fc[:, 0] >= 1.0 - patch))
    ]
    if near.size:
        bc.set_dirichlet(near, 1.0)
    if far.size:
        bc.set_dirichlet(far, 0.0)
    return bc


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

    def bcb(sd, g):
        return _case2_corner_bc(g)

    problem = uniform_problem(
        mesh,
        _network_permeabilities(mesh, case2_matrix_tensor(ratio, angle)),
        bcb,
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
    """Equi-dimensional reference: the fracture meshed as a thin cell row."""
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
        bcs=[_case2_corner_bc(grid)],
        methods=["mpfa"],
    )
    system = problem.assemble()
    p = direct_solve(system.matrix, system.rhs)
    return mesh, system, p, strip


def _run_case_2(spec: CaseSpec) -> tuple[dict, dict, dict]:
    ov = spec.overrides
    angle = float(ov.get("angle", 30.0))
    k_fracture = float(ov.get("k_fracture", 1e4))
    aperture = float(ov.get("aperture", 1e-3))
    fine_res = int(ov.get("fine_resolution", 128))
    ratios = [float(ov["ratio"])] if "ratio" in ov else [1.0, 3.0, 6.0]
    resolutions = [4, 8, 16, 32]
    timings = {}
    note = None
    if fine_res < 256:
        note = (
            f"reference uses a {fine_res}x{fine_res} equi-dimensional grid "
            "(desk scale) instead of 256x256"
        )

    report = {"angle": angle, "resolutions": resolutions, "ratios": ratios, "errors": {}, "slopes": {}}
    extras = {"fine": {}, "coarse": {}}
    for ratio in ratios:
        t0 = time.perf_counter()
        fine_mesh, fine_system, p_fine, strip = case2_fine_reference(
            fine_res, ratio, angle, k_fracture, aperture
        )
        timings[f"fine_ratio_{ratio:g}"] = time.perf_counter() - t0
        fine_grid = fine_mesh.subdomains[0]
        fine_centres = fine_grid.cell_centres
        fine_volumes = fine_grid.cell_volumes
        extras["fine"][ratio] = (fine_mesh, p_fine, strip)

        errors = []
        for n in resolutions:
            t0 = time.perf_counter()
            problem, mesh = case2_problem(n, ratio, angle, k_fracture, aperture)
            system = problem.assemble()
            p = direct_solve(system.matrix, system.rhs)
            timings[f"coarse_{n}_ratio_{ratio:g}"] = time.perf_counter() - t0
            matrix_centres = mesh.subdomains[0].cell_centres
            frac_centres = mesh.subdomains[1].cell_centres
            n_matrix = mesh.subdomains[0].n_cells
            projected = np.empty(fine_grid.n_cells)
            m_map = nearest_cell_map(fine_centres[~strip], matrix_centres)
            projected[~strip] = p[:n_matrix][m_map]
            f_map = nearest_cell_map(fine_centres[strip], frac_centres)
            projected[strip] = p[n_matrix:][f_map]
            errors.append(l2_error(projected, p_fine, fine_volumes))
            extras["coarse"][(ratio, n)] = (mesh, p)
        report["errors"][f"{ratio:g}"] = errors
        report["slopes"][f"{ratio:g}"] = least_squares_slope(
            1.0 / np.array(resolutions), np.array(errors)
        )
    if note:
        report["note"] = note
    return report, extras, timings


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
    patch = 0.25

    def bcb(sd, g):
        bc = flow_bc(g)
        ext = np.flatnonzero(g.external_boundary)
        fc = g.face_centres[ext]
        bottom = ext[
            (np.abs(fc[:, 2]) < 1e-12) & (fc[:, 0] <= patch) & (fc[:, 1] <= patch)
        ]
        top = ext[
            (np.abs(fc[:, 2] - 1.0) < 1e-12)
            & (fc[:, 0] >= 1.0 - patch)
            & (fc[:, 1] >= 1.0 - patch)
        ]
        if bottom.size:
            bc.set_dirichlet(bottom, 1.0)
        if top.size:
            bc.set_dirichlet(top, 0.0)
        return bc

    if discretization == "hybrid":
        methods = ["tpfa" if g.dim == 3 else "mpfa" for g in mesh.subdomains]
    elif discretization in ("tpfa", "mpfa"):
        methods = [discretization] * len(mesh.subdomains)
    else:
        raise FracfvError(f"unknown discretization {discretization!r}")
    problem = uniform_problem(
        mesh, _network_permeabilities(mesh, 1.0), bcb, methods=methods
    )
    return problem, mesh


def _run_case_3(spec: CaseSpec) -> tuple[dict, dict, dict]:
    n = spec.resolved_resolution
    ov = spec.overrides
    aperture = float(ov.get("aperture", 1e-3))
    t_final = float(ov.get("t_final", 30.0))
    n_steps = int(ov.get("n_steps", 200))
    dt = t_final / n_steps
    timings = {}

    variants = ["tpfa", "hybrid"] if spec.discretization in (None, "all") else [spec.discretization]
    runs = {}
    for disc in dict.fromkeys(["mpfa"] + variants):
        t0 = time.perf_counter()
        problem, mesh = case3_problem(n, disc, aperture)
        t_build = time.perf_counter() - t0
        t0 = time.perf_counter()
        system = problem.assemble()
        timings[f"discretize_{disc}"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        p = direct_solve(system.matrix, system.rhs)
        probe = resolve_probe(mesh, np.array([0.9, 0.9, 1.0]), dims=3)
        tracer_bcs = zero_tracer_bcs(mesh)
        graph = flux_graph_from_system(system, p)
        sim = _run_transport(graph, tracer_bcs, np.ones(mesh.n_dofs), dt, n_steps, probe)
        timings[f"solve_transport_{disc}"] = time.perf_counter() - t0 + t_build
        runs[disc] = {
            "mesh": mesh,
            "system": system,
            "p": p,
            "sim": sim,
            "conservation": conservation_residual(system, p),
        }

    mesh = runs["mpfa"]["mesh"]
    volumes = mesh.all_cell_volumes()
    dims = mesh.dof_dims()
    groups = {"matrix": dims == 3, "fracture": dims == 2}
    report = {
        "t_final": t_final,
        "dt": dt,
        "reference": "mpfa",
        "differences": {},
    }
    # Wall-time ratios differ from run to run, so they go to timings.json.
    timings["relative_discretization_time"] = {}
    ref_p = runs["mpfa"]["p"]
    ref_t = runs["mpfa"]["sim"].state.concentrations
    t_ref = max(timings["discretize_mpfa"], 1e-300)
    for disc, run in runs.items():
        if disc == "mpfa":
            continue
        entry = {}
        for name, mask in groups.items():
            entry[f"pressure_{name}"] = l2_error(run["p"], ref_p, volumes, subset=mask)
            entry[f"tracer_{name}"] = l2_error(
                run["sim"].state.concentrations, ref_t, volumes, subset=mask
            )
        report["differences"][disc] = entry
        timings["relative_discretization_time"][disc] = timings[f"discretize_{disc}"] / t_ref
    report["conservation"] = {d: r["conservation"] for d, r in runs.items()}
    report["mass_error"] = {d: r["sim"].mass_accounting_error for d, r in runs.items()}
    return report, {"runs": runs}, timings


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

    def bcb(sd, g):
        bc = flow_bc(g)
        faces = np.concatenate([_faces_on_plane(g, 2, 0.0), _faces_on_plane(g, 2, 1.0)])
        if faces.size:
            bc.set_dirichlet(faces, 0.0)
        return bc

    perms = []
    for g in mesh.subdomains:
        if g.metadata.get("role") == "matrix":
            k = tensor_field(1.0, g.n_cells, 3)
            upper = g.cell_centres[:, 2] > 0.5
            k[upper] = k_upper * np.eye(3)
            k[~upper] = k_lower * np.eye(3)
            perms.append(k)
        else:
            perms.append(tensor_field(g.metadata["permeability"], g.n_cells, 3))

    # Injection cell: on the conductive vertical line, one half cell below
    # the centre.
    target = np.array([0.5, 0.5, 0.5 - 0.5 / resolution])
    injection_dof = None
    for sd, g in enumerate(mesh.subdomains):
        if g.dim == 1 and g.metadata.get("name") == "plane_xxplane_y":
            cell = int(np.argmin(np.linalg.norm(g.cell_centres - target, axis=1)))
            injection_dof = int(mesh.global_index(sd, cell))
    if injection_dof is None:
        raise FracfvError("conductive intersection line not found")
    source_density = np.zeros(mesh.n_dofs)
    source_density[injection_dof] = q_injection / mesh.all_cell_volumes()[injection_dof]

    bcs = []
    for sd, g in enumerate(mesh.subdomains):
        bcs.append(bcb(sd, g))
    problem = FlowProblem(
        mesh=mesh, permeability=perms, bcs=bcs, source_density=source_density
    )
    return problem, mesh, injection_dof


def _run_case_4(spec: CaseSpec) -> tuple[dict, dict, dict]:
    n = spec.resolved_resolution
    ov = spec.overrides
    q = float(ov.get("q_injection", 1.0))
    t_final = float(ov.get("t_final", 2.0))
    n_steps = int(ov.get("n_steps", 200))
    dt = t_final / n_steps
    zero_d_only = bool(ov.get("zero_d_only", False))
    timings = {}

    t0 = time.perf_counter()
    problem, mesh, injection_dof = case4_problem(
        n, float(ov.get("k_upper", 1e-2)), float(ov.get("k_lower", 1e-3)), q
    )
    system = problem.assemble()
    timings["assembly"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    p_full, cond_full = _solve_with_condition(system.matrix, system.rhs)
    timings["full_solve"] = time.perf_counter() - t0

    tracer_bcs = zero_tracer_bcs(mesh)
    sources_full = np.zeros(mesh.n_dofs)
    sources_full[injection_dof] = q  # injected concentration is one

    t0 = time.perf_counter()
    graph_full = flux_graph_from_system(system, p_full)
    sim_full = _run_transport(
        graph_full, tracer_bcs, np.zeros(mesh.n_dofs), dt, n_steps, sources=sources_full
    )
    timings["full_transport"] = time.perf_counter() - t0

    eliminated = mesh.intersection_dofs(zero_d_only=zero_d_only)
    t0 = time.perf_counter()
    reduced = schur_reduce(system, eliminated)
    p_kept, cond_red = _solve_with_condition(reduced.matrix, reduced.rhs)
    graph_red = flux_graph_from_reduced(reduced, p_kept)
    sources_red = inherited_source_rates(reduced)  # times unit injected concentration
    sim_red = _run_transport(
        graph_red, tracer_bcs, np.zeros(reduced.kept.size), dt, n_steps, sources=sources_red
    )
    timings["schur"] = time.perf_counter() - t0

    volumes = mesh.all_cell_volumes()
    dims = mesh.dof_dims()
    centres = mesh.all_cell_centres()
    t_full_final = sim_full.state.concentrations
    upper_mask = (dims == 3) & (centres[:, 2] > 0.5)
    lower_mask = (dims == 3) & (centres[:, 2] < 0.5)
    mass_upper = float(volumes[upper_mask] @ t_full_final[upper_mask])
    mass_lower = float(volumes[lower_mask] @ t_full_final[lower_mask])

    p_back = back_substitute(reduced, p_kept)
    report = {
        "cond_full": cond_full,
        "eliminated_dofs": int(eliminated.size),
        "conservation": conservation_residual(system, p_full),
        "schur": {
            "pressure_error": _kept_l2(mesh, p_full, p_kept, reduced.kept),
            "pressure_error_back_substituted": l2_error(p_back, p_full, volumes),
            "tracer_error": l2_error(
                sim_red.state.concentrations,
                t_full_final[reduced.kept],
                volumes[reduced.kept],
            ),
            "cond": cond_red,
            "r_c": cond_full / cond_red,
            "mass_error": sim_red.mass_accounting_error,
        },
        "tracer_mass_upper_matrix": mass_upper,
        "tracer_mass_lower_matrix": mass_lower,
        "t_final": t_final,
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
    return report, extras, timings


# ---------------------------------------------------------------------------
# Case 1.2-lite: ten axis-aligned fractures of two permeabilities
# ---------------------------------------------------------------------------


def case12_network(k_conductive: float = 1e4, k_blocking: float = 1e-4, aperture: float = 1e-4):
    """Ten fractures; conduits left-right, blocked by low-permeable crossings."""
    c, b = k_conductive, k_blocking
    return [
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
    ]


def case12_problem(
    resolution: int,
    k_conductive: float = 1e4,
    k_blocking: float = 1e-4,
    aperture: float = 1e-4,
) -> tuple[FlowProblem, object]:
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        fractures=case12_network(k_conductive, k_blocking, aperture),
        intersection_permeability="harmonic",
    )
    mesh = build_cartesian_with_fractures(spec, resolution)

    def bcb(sd, g):
        bc = flow_bc(g)
        left = _faces_on_plane(g, 0, 0.0)
        right = _faces_on_plane(g, 0, 1.0)
        if left.size:
            bc.set_dirichlet(left, 1.0)
        if right.size:
            bc.set_dirichlet(right, 0.0)
        return bc

    problem = uniform_problem(mesh, _network_permeabilities(mesh, 1.0), bcb)
    return problem, mesh


def _run_case_12_lite(spec: CaseSpec) -> tuple[dict, dict, dict]:
    n = spec.resolved_resolution
    ov = spec.overrides
    args = (
        float(ov.get("k_conductive", 1e4)),
        float(ov.get("k_blocking", 1e-4)),
        float(ov.get("aperture", 1e-4)),
    )
    fine_res = int(ov.get("fine_resolution", 4 * n))
    timings = {}

    t0 = time.perf_counter()
    fine_problem, fine_mesh = case12_problem(fine_res, *args)
    fine_system = fine_problem.assemble()
    p_fine = direct_solve(fine_system.matrix, fine_system.rhs)
    timings["fine_reference"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    problem, mesh = case12_problem(n, *args)
    system = problem.assemble()
    p_none, cond_full = _solve_with_condition(system.matrix, system.rhs)
    timings["coarse"] = time.perf_counter() - t0

    fine_dims = fine_mesh.dof_dims()
    fine_centres = fine_mesh.all_cell_centres()
    fine_volumes = fine_mesh.all_cell_volumes()
    coarse_dims = mesh.dof_dims()
    coarse_centres = mesh.all_cell_centres()

    def project(values_full: np.ndarray) -> np.ndarray:
        # Intersection points (dim 0) are excluded from the comparison groups.
        out = np.zeros(fine_mesh.n_dofs)
        for d in (1, 2):
            fmask = fine_dims == d
            cmask = coarse_dims == d
            mapping = nearest_cell_map(fine_centres[fmask], coarse_centres[cmask])
            out[fmask] = values_full[np.flatnonzero(cmask)][mapping]
        return out

    def group_errors(values_full: np.ndarray) -> dict:
        projected = project(values_full)
        return {
            "combined": l2_error(projected, p_fine, fine_volumes, subset=fine_dims >= 1),
            "matrix": l2_error(projected, p_fine, fine_volumes, subset=fine_dims == 2),
            "fracture": l2_error(projected, p_fine, fine_volumes, subset=fine_dims == 1),
        }

    report = {"fine_resolution": fine_res, "cond_full": cond_full, "methods": {}}
    full_fields = {"none": p_none}
    report["methods"]["none"] = {**group_errors(p_none), "cond": cond_full}
    for tag, reducer in (("schur", schur_reduce), ("star_delta", star_delta_reduce)):
        t0 = time.perf_counter()
        reduced = reducer(system)
        p_kept, cond_red = _solve_with_condition(reduced.matrix, reduced.rhs)
        timings[tag] = time.perf_counter() - t0
        if tag == "schur":
            values_full = back_substitute(reduced, p_kept)
        else:
            # Star-Delta leaves the intersection points without values; they
            # sit outside the comparison groups.
            values_full = np.zeros(mesh.n_dofs)
            values_full[reduced.kept] = p_kept
        entry = group_errors(values_full)
        entry.update({"cond": cond_red, "r_c": cond_full / cond_red})
        report["methods"][tag] = entry
        full_fields[tag] = values_full
    extras = {
        "mesh": mesh,
        "fine_mesh": fine_mesh,
        "p_fine": p_fine,
        "fields": full_fields,
        "system": system,
    }
    return report, extras, timings


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

_RUNNERS = {
    "1.1": _run_case_11,
    "1.2-lite": _run_case_12_lite,
    "1.3": _run_case_13,
    "2": _run_case_2,
    "3": _run_case_3,
    "4": _run_case_4,
}


def run_case(spec: CaseSpec) -> CaseResult:
    """Run a preset case end to end and optionally write its artifacts."""
    core, extras, timings = _RUNNERS[spec.case](spec)
    extras = dict(extras)
    extras["timings"] = timings
    report = {
        "schema": "fracfv-report-v1",
        "norm": NORM_VERSION,
        "build": build_identifier(),
        "case": {
            "id": spec.case,
            "resolution": spec.resolved_resolution,
            "discretization": spec.discretization,
            "elimination": spec.elimination,
            "overrides": dict(spec.overrides),
        },
        "results": core,
        "artifacts": {},
    }
    if spec.out_dir is not None:
        out_dir = Path(spec.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_artifacts(spec, report, extras, out_dir)
        write_report(report, out_dir, timings)
    return CaseResult(report=report, extras=extras, out_dir=spec.out_dir)


def _write_artifacts(spec: CaseSpec, report: dict, extras: dict, out_dir: Path) -> None:
    fields = []

    def emit(mesh, values, name, subset=None):
        path = export_field_csv(mesh, values, out_dir / f"{name}.csv", subset)
        fields.append(path.name)
        if spec.write_vtk:
            export_field_vtk(mesh, values, out_dir / f"{name}.vtk")
            fields.append(f"{name}.vtk")

    series = []
    if spec.case == "1.1" and "point" in extras:
        point = extras["point"]
        emit(point["mesh"], point["p_full"], "pressure_full")
    elif spec.case == "1.3":
        mesh = extras["mesh"]
        emit(mesh, extras["p_full"], "pressure_full")
        emit(mesh, extras["sim_full"].state.concentrations, "tracer_full")
        write_series_csv(out_dir / "series_full.csv", extras["sim_full"].state.series)
        series.append("series_full.csv")
        for tag in ("schur", "star_delta"):
            if tag in extras:
                sim = extras[tag]["sim"]
                reduced = extras[tag]["reduced"]
                kept = reduced.kept
                # Kept-cell fields, row-aligned with the kept rows of the
                # full exports, so reported errors can be recomputed.
                full_on_kept = np.zeros(mesh.n_dofs)
                full_on_kept[kept] = extras[tag]["p_kept"]
                emit(mesh, full_on_kept, f"pressure_{tag}_kept", subset=kept)
                tr = np.zeros(mesh.n_dofs)
                tr[kept] = sim.state.concentrations
                emit(mesh, tr, f"tracer_{tag}_kept", subset=kept)
                write_series_csv(out_dir / f"series_{tag}.csv", sim.state.series)
                series.append(f"series_{tag}.csv")
        if "schur" in extras:
            kept = extras["schur"]["reduced"].kept
            emit(mesh, extras["p_full"], "pressure_full_kept", subset=kept)
            emit(mesh, extras["sim_full"].state.concentrations, "tracer_full_kept", subset=kept)
    elif spec.case == "4":
        mesh = extras["mesh"]
        emit(mesh, extras["p_full"], "pressure_full")
        emit(mesh, extras["sim_full"].state.concentrations, "tracer_full")
        kept = extras["reduced"].kept
        padded = np.zeros(mesh.n_dofs)
        padded[kept] = extras["p_kept"]
        emit(mesh, padded, "pressure_schur_kept", subset=kept)
        emit(mesh, extras["p_full"], "pressure_full_kept", subset=kept)
    elif spec.case == "3":
        for disc, run in extras["runs"].items():
            emit(run["mesh"], run["p"], f"pressure_{disc}")
            write_series_csv(out_dir / f"series_{disc}.csv", run["sim"].state.series)
            series.append(f"series_{disc}.csv")
    elif spec.case == "1.2-lite":
        for tag, values in extras["fields"].items():
            emit(extras["mesh"], values, f"pressure_{tag}")
        emit(extras["fine_mesh"], extras["p_fine"], "pressure_reference")
    report["artifacts"]["fields"] = fields
    report["artifacts"]["series"] = series
