"""Tests of the benchmark itself: every check rejects a corrupted result, the
inputs follow the seed, and the traced run sees every layer it reports.

    python3 -m pytest perfbench -q

The studies run here at small sizes; the checks are the same ones the
benchmark applies at its own sizes.
"""

import copy
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import workloads  # noqa: E402


def failed(checks) -> set[str]:
    return {c.name for c in checks if not c.passed}


# ---------------------------------------------------------------------------
# crossing2d-sweep
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def crossing(tmp_path_factory):
    inp = {"resolution": 8}
    return workloads.crossing2d_sweep(inp, tmp_path_factory.mktemp("crossing")), inp


def corrupt_point(result, key, **changes):
    points = dict(result.extras["points"])
    point = dict(points[key])
    for path, value in changes.items():
        if path == "schur_p_kept":
            point["schur"] = {**point["schur"], "p_kept": value}
        else:
            point[path] = value
    points[key] = point
    return replace(result, extras={**result.extras, "points": points})


def test_crossing_checks_pass(crossing):
    result, inp = crossing
    assert failed(workloads.check_crossing2d_sweep(result, inp, seed=1)) == set()


def test_crossing_rejects_schur_pressure(crossing):
    result, inp = crossing
    key = (1e3, 1e-3)
    p_kept = result.extras["points"][key]["schur"]["p_kept"].copy()
    p_kept[3] += 1e-6
    bad = corrupt_point(result, key, schur_p_kept=p_kept)
    assert "schur_vs_full_pressure" in failed(workloads.check_crossing2d_sweep(bad, inp, 1))


def test_crossing_rejects_nonlinear_uniform_pressure(crossing):
    result, inp = crossing
    p_full = result.extras["points"][(1.0, 1.0)]["p_full"] * (1.0 + 1e-8)
    bad = corrupt_point(result, (1.0, 1.0), p_full=p_full)
    assert "uniform_pressure_vs_linear" in failed(workloads.check_crossing2d_sweep(bad, inp, 1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crossing_rejects_condition_number(crossing, seed):
    result, inp = crossing
    bad = result
    for key, point in result.extras["points"].items():
        bad = corrupt_point(bad, key, cond_full=point["cond_full"] * (1.0 + 1e-6))
    assert "cond_full_vs_lanczos" in failed(workloads.check_crossing2d_sweep(bad, inp, seed))


# ---------------------------------------------------------------------------
# aniso2d-mpfa
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def aniso(tmp_path_factory):
    inp = {"ratio": 3.0, "fine_resolution": 64}
    return workloads.aniso2d_mpfa(inp, tmp_path_factory.mktemp("aniso")), inp


def with_results(result, errors=None, slope=None):
    report = copy.deepcopy(result.report)
    if errors is not None:
        report["results"]["errors"]["3"] = errors
    if slope is not None:
        report["results"]["slopes"]["3"] = slope
    return replace(result, report=report)


def test_aniso_checks_pass(aniso):
    result, inp = aniso
    assert failed(workloads.check_aniso2d_mpfa(result, inp, 1)) == set()


def test_aniso_rejects_error_increase(aniso):
    result, inp = aniso
    errors = list(result.report["results"]["errors"]["3"])
    errors[2], errors[3] = errors[3], errors[2]
    bad = with_results(result, errors=errors)
    assert failed(workloads.check_aniso2d_mpfa(bad, inp, 1)) == {"errors_decrease"}


@pytest.mark.parametrize("slope", [0.5, 1.6])
def test_aniso_rejects_slope(aniso, slope):
    result, inp = aniso
    bad = with_results(result, slope=slope)
    assert failed(workloads.check_aniso2d_mpfa(bad, inp, 1)) == {"convergence_slope"}


# ---------------------------------------------------------------------------
# line3d-tracer
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def line3d():
    inp = {"resolution": 4, "steps": 20, "t_final": 0.5}
    return workloads.line3d_tracer(inp, None), inp


def with_sim(result, tag, **fields):
    sim = result["sims"][tag]
    fake = SimpleNamespace(
        state=fields.pop("state", sim.state),
        bounds=fields.pop("bounds", sim.bounds),
        mass_accounting_error=fields.pop("mass_accounting_error", sim.mass_accounting_error),
    )
    return {**result, "sims": {**result["sims"], tag: fake}}


def test_line3d_checks_pass(line3d):
    result, inp = line3d
    assert failed(workloads.check_line3d_tracer(result, inp, 1)) == set()


def test_line3d_rejects_conservation(line3d):
    result, inp = line3d
    bad = {**result, "conservation": 1e-9}
    assert failed(workloads.check_line3d_tracer(bad, inp, 1)) == {"conservation_residual"}


def test_line3d_rejects_schur_pressure(line3d):
    result, inp = line3d
    bad = {**result, "p_schur": result["p_schur"] * (1.0 + 1e-8)}
    assert failed(workloads.check_line3d_tracer(bad, inp, 1)) == {"schur_vs_full_pressure"}


def test_line3d_rejects_back_substituted_pressure(line3d):
    result, inp = line3d
    p_back = result["p_back"].copy()
    p_back[result["schur"].eliminated[0]] += 1e-6
    bad = {**result, "p_back": p_back}
    assert failed(workloads.check_line3d_tracer(bad, inp, 1)) == {
        "back_substituted_vs_full_pressure"
    }


def test_line3d_rejects_schur_tracer(line3d):
    result, inp = line3d
    state = result["sims"]["schur"].state
    shifted = replace(state, concentrations=state.concentrations + 1e-7)
    bad = with_sim(result, "schur", state=shifted)
    assert failed(workloads.check_line3d_tracer(bad, inp, 1)) == {"schur_vs_full_tracer"}


def test_line3d_rejects_mass_accounting(line3d):
    result, inp = line3d
    bad = with_sim(result, "star_delta", mass_accounting_error=1e-8)
    assert failed(workloads.check_line3d_tracer(bad, inp, 1)) == {"mass_accounting"}


@pytest.mark.parametrize("bounds", [(-1e-9, 1.0), (0.0, 1.0 + 1e-9)])
def test_line3d_rejects_concentration_bounds(line3d, bounds):
    result, inp = line3d
    bad = with_sim(result, "full", bounds=bounds)
    assert failed(workloads.check_line3d_tracer(bad, inp, 1)) == {
        "concentration_outside_unit_interval"
    }


def test_line3d_rejects_missing_steps(line3d):
    result, inp = line3d
    state = result["sims"]["star_delta"].state
    bad = with_sim(result, "star_delta", state=replace(state, time=state.time - state.dt))
    assert failed(workloads.check_line3d_tracer(bad, inp, 1)) == {"simulated_time_vs_t_final"}


# ---------------------------------------------------------------------------
# tet3d-import and its seeded input
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tet3d(tmp_path_factory):
    inp = inputs.write_kuhn_mesh(tmp_path_factory.mktemp("tet") / "kuhn.mesh", 2, seed=5)
    return workloads.tet3d_import(inp, None), inp


def test_tet3d_checks_pass(tet3d):
    result, inp = tet3d
    assert failed(workloads.check_tet3d_import(result, inp, 5)) == set()


def test_tet3d_rejects_counts(tet3d):
    result, inp = tet3d
    bad_inputs = {**inp, "n_nodes": inp["n_nodes"] + 1}
    assert failed(workloads.check_tet3d_import(result, bad_inputs, 5)) == {"cell_and_node_counts"}


def test_tet3d_rejects_pressure(tet3d):
    result, inp = tet3d
    pressure = result["pressure"].copy()
    pressure[0] += 1e-9
    bad = {**result, "pressure": pressure}
    assert failed(workloads.check_tet3d_import(bad, inp, 5)) == {"pressure_vs_linear_field"}


def test_kuhn_mesh_follows_seed(tmp_path):
    paths = [tmp_path / f"{name}.mesh" for name in "abc"]
    for path, seed in zip(paths, (3, 3, 4)):
        inputs.write_kuhn_mesh(path, 3, seed)
    texts = [p.read_text() for p in paths]
    assert texts[0] == texts[1] and texts[0] != texts[2]


def signed_volumes(nodes, cells):
    corners = nodes[cells]
    return np.linalg.det(corners[:, 1:] - corners[:, :1]) / 6.0


def test_kuhn_tetrahedra_tile_the_cube(monkeypatch):
    cubes = 3
    cells = inputs.kuhn_tetrahedra(cubes)
    perturbed = signed_volumes(inputs.kuhn_nodes(cubes, seed=11), cells)
    monkeypatch.setattr(inputs, "PERTURBATION", 0.0)
    regular = signed_volumes(inputs.kuhn_nodes(cubes, seed=11), cells)
    assert cells.shape == (6 * cubes**3, 4)
    # No tetrahedron turns inside out, and together they still fill the cube.
    assert np.all(perturbed * np.sign(regular) > 0.0)
    assert np.abs(perturbed).sum() == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Traced studies
# ---------------------------------------------------------------------------


def traced_sample(tmp_path, workload, inp) -> dict:
    inputs_path = tmp_path / "inputs.json"
    inputs_path.write_text(json.dumps(inp))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(HERE / "study.py"), "--workload", workload, "--seed", "1",
         "--inputs", str(inputs_path), "--out", str(out), "--trace"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    trace = json.loads((out / "trace.json").read_text())
    assert trace["layers"] == sample["layers"]
    assert all(passed for *_, passed in sample["checks"])
    assert {name.split(".")[0] for name, *_ in sample["checks"]} == set(inp)
    return {name: metric["value"] for name, metric in sample["layers"].items()}


def test_traced_2d_sample_wraps_the_names_run_case_uses(tmp_path):
    layers = traced_sample(tmp_path, "cases-2d", {
        "crossing2d-sweep": {"resolution": 4},
        "aniso2d-mpfa": {"ratio": 3.0, "fine_resolution": 64},
    })
    # 9 points x (full, Schur, Star-Delta): run_case reaches condition_number
    # through fracfv.harness.cases, not through fracfv.linsolve.
    assert layers["linsolve.cond_calls"] == 27
    # 27 sweep solves, then the fine reference and four coarse MPFA solves.
    assert layers["linsolve.factorizations"] == 32
    assert layers["elimination.eliminated_dofs"] == 18
    assert layers["fvdiscretize.mpfa_regions"] > 65**2
    assert layers["harness.self_s"] > 0.0 and layers["harness.report_s"] > 0.0
    assert layers["transport.steps"] == 0 and layers["mdmesh.load_s"] == 0.0


def test_traced_3d_sample_counts(tmp_path):
    tet = inputs.write_kuhn_mesh(tmp_path / "kuhn.mesh", 2, seed=1)
    layers = traced_sample(tmp_path, "library-3d", {
        "line3d-tracer": {"resolution": 4, "steps": 5, "t_final": 0.5},
        "tet3d-import": tet,
    })
    assert layers["transport.steps"] == 15
    assert layers["transport.lu_fill_nnz"] > 0
    assert layers["linsolve.factorizations"] == 4
    assert layers["linsolve.cond_calls"] == 0
    assert layers["fvdiscretize.mpfa_regions"] == tet["n_nodes"]
    assert layers["fvdiscretize.half_transmissibility_calls"] > 0
    assert layers["fvdiscretize.bc_value_calls"] > 0
    assert layers["mdmesh.load_s"] > 0.0
    total = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert total > layers["transport.step_s"] > 0.0
