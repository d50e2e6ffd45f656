"""Error norms, projections, field exports and report files."""

import ast
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracfv
from fracfv.harness.cases import case2_fine_reference, case2_problem, case12_problem
from fracfv.harness.export import (
    export_field_csv,
    export_field_vtk,
    read_field_csv,
    write_report,
)
from fracfv.harness.norms import (
    l2_error,
    least_squares_slope,
    nearest_cell_map,
)
from fracfv.mdmesh import FractureNetworkSpec, FracturePatch, build_cartesian_with_fractures


class TestL2Error:
    def test_identical_fields(self):
        x = np.array([1.0, 2.0, 3.0])
        assert l2_error(x, x, np.array([0.5, 1.0, 2.0])) == 0.0

    def test_uniform_offset(self):
        weights = np.array([0.2, 1.7, 3.3, 0.4])
        x = np.full(4, 1.1)
        r = np.ones(4)
        assert l2_error(x, r, weights) == pytest.approx(0.1, rel=1e-12)

    def test_zero_reference_gives_absolute_error(self):
        assert l2_error(np.array([2.0]), np.array([0.0]), np.array([4.0])) == pytest.approx(4.0)

    def test_subset_restriction(self):
        x = np.array([1.0, 5.0])
        r = np.array([1.0, 1.0])
        v = np.ones(2)
        assert l2_error(x, r, v, subset=np.array([True, False])) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            l2_error(np.ones(3), np.ones(2), np.ones(3))


class TestProjection:
    def test_nested_refinement_preserves_piecewise_constant_norm(self):
        coarse = build_cartesian_with_fractures(
            FractureNetworkSpec(domain=((0.0, 1.0), (0.0, 1.0))), 2
        ).subdomains[0]
        fine = build_cartesian_with_fractures(
            FractureNetworkSpec(domain=((0.0, 1.0), (0.0, 1.0))), 4
        ).subdomains[0]
        values = np.array([1.0, -2.0, 3.0, 0.5])
        mapping = nearest_cell_map(fine.cell_centres, coarse.cell_centres)
        injected = values[mapping]
        coarse_norm = coarse.cell_volumes @ values**2
        fine_norm = fine.cell_volumes @ injected**2
        assert fine_norm == pytest.approx(coarse_norm, rel=1e-14)

    def test_slope_of_exact_power_law(self):
        h = np.array([0.25, 0.125, 0.0625])
        err = 3.0 * h**1.0
        assert least_squares_slope(h, err) == pytest.approx(1.0, abs=1e-12)


def brute_force_squared_distances(fine, coarse):
    """Every fine-to-coarse squared distance, summed axis by axis."""
    d2 = np.zeros((len(fine), len(coarse)))
    for axis in range(fine.shape[1]):
        d2 = d2 + (fine[:, axis, None] - coarse[None, :, axis]) ** 2
    return d2


def assert_nearest(fine, coarse):
    """The map picks a centre at the brute-force minimum distance, exactly,
    and the brute-force argmin wherever that minimum is unique."""
    mapping = nearest_cell_map(fine, coarse)
    assert mapping.shape == (len(fine),)
    assert mapping.dtype.kind == "i"
    d2 = brute_force_squared_distances(fine, coarse)
    minimum = d2.min(axis=1)
    assert np.array_equal(d2[np.arange(len(fine)), mapping], minimum)
    unique = (d2 == minimum[:, None]).sum(axis=1) == 1
    assert np.array_equal(mapping[unique], d2.argmin(axis=1)[unique])


COORDINATES = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def point_sets(draw):
    """Fine and coarse point sets in 1 to 3 dimensions: a shuffled lattice
    with holes, where many centres share rows and many distances tie, or
    coarse points in general position."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        axes = [
            draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True))
            for _ in range(dim)
        ]
        scale = draw(st.sampled_from([1.0, 0.25, 0.1, 1e-3]))
        lattice = np.array(list(itertools.product(*axes)), dtype=float) * scale
        keep = draw(st.lists(st.booleans(), min_size=len(lattice), max_size=len(lattice)))
        coarse = lattice[np.array(keep)] if any(keep) else lattice
        coarse = coarse[np.array(draw(st.permutations(range(len(coarse)))), dtype=int)]
        # Fine points on the half-step lattice sit on ties and on centres.
        fine_lattice = st.lists(st.integers(-9, 9), min_size=dim, max_size=dim).map(
            lambda p: [0.5 * scale * v for v in p]
        )
    else:
        coarse = np.array(
            draw(
                st.lists(
                    st.lists(COORDINATES, min_size=dim, max_size=dim), min_size=1, max_size=40
                )
            )
        )
        fine_lattice = st.lists(st.sampled_from(list(coarse.ravel())), min_size=dim, max_size=dim)
    general = st.lists(COORDINATES, min_size=dim, max_size=dim)
    fine = draw(st.lists(st.one_of(fine_lattice, general), min_size=1, max_size=40))
    return np.array(fine, dtype=float), coarse


class TestNearestCellMap:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(point_sets())
    # Rows that differ in the last coordinate alone.
    @example(
        (
            np.array([[0.2, 0.0, 0.9], [1.9, 0.0, 0.1]]),
            np.array(list(itertools.product([0.0, 1.0, 2.0], [0.0], [0.0, 1.0]))),
        )
    )
    def test_matches_brute_force(self, points):
        assert_nearest(*points)

    def test_ties_go_to_the_first_row_and_the_lower_neighbour(self):
        coarse = np.array([[1.0, 1.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 1.0]])
        fine = np.array([[0.0, 0.5], [0.0, 1.0], [1.0, 0.5]])
        assert nearest_cell_map(fine, coarse).tolist() == [1, 3, 2]

    def test_no_fine_points_give_an_empty_map(self):
        for coarse in (np.ones((3, 2)), np.zeros((0, 2))):
            mapping = nearest_cell_map(np.zeros((0, 2)), coarse)
            assert mapping.shape == (0,)
            assert mapping.dtype.kind == "i"

    def test_no_coarse_centres_rejected(self):
        with pytest.raises(ValueError, match="no coarse centres"):
            nearest_cell_map(np.zeros((2, 2)), np.zeros((0, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            nearest_cell_map(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_preset_groups_equal_kdtree(self):
        """On case 2's 64 x 64 reference against its coarse grids, and on
        case 1.2-lite's fine and coarse groups, the map is cKDTree's."""
        from scipy.spatial import cKDTree

        fine_mesh, _, _, strip = case2_fine_reference(64, 1.0)
        fine_centres = fine_mesh.subdomains[0].cell_centres
        pairs = []
        for n in (4, 8, 16, 32):
            _, mesh = case2_problem(n, 1.0)
            dims = mesh.dof_dims()
            for fine, coarse in ((~strip, dims == 2), (strip, dims == 1)):
                pairs.append((fine_centres[fine], mesh.all_cell_centres()[coarse]))
        _, fine_mesh = case12_problem(64)
        _, mesh = case12_problem(16)
        for d in (1, 2):
            pairs.append(
                (
                    fine_mesh.all_cell_centres()[fine_mesh.dof_dims() == d],
                    mesh.all_cell_centres()[mesh.dof_dims() == d],
                )
            )
        for fine, coarse in pairs:
            _, expected = cKDTree(coarse).query(fine)
            assert np.array_equal(nearest_cell_map(fine, coarse), expected)


# The modules perfbench/study.py imports, and the CLI.
FRACFV_ENTRY_MODULES = [
    "fracfv.coupling",
    "fracfv.elimination",
    "fracfv.fvdiscretize",
    "fracfv.harness",
    "fracfv.linsolve",
    "fracfv.mdmesh",
    "fracfv.tensors",
    "fracfv.transport",
    "fracfv.harness.cli",
]


def test_no_module_loads_scipy_spatial():
    """A fresh interpreter that imports fracfv's entry modules has not loaded
    scipy.spatial, and no fracfv source file imports it, even lazily. A
    subprocess, because other tests import scipy.spatial into this one."""
    source = Path(fracfv.__file__).parent
    path = [str(source.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import importlib, sys\n"
        f"for name in {FRACFV_ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
    for module in source.rglob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(name.startswith("scipy.spatial") for name in names), module


@pytest.fixture()
def small_fractured_mesh():
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        fractures=[FracturePatch(0, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "v")],
    )
    return build_cartesian_with_fractures(spec, 2)


class TestFieldExport:
    def test_csv_round_trip_bit_exact(self, small_fractured_mesh, tmp_path):
        mesh = small_fractured_mesh
        rng = np.random.default_rng(3)
        values = rng.standard_normal(mesh.n_dofs)
        path = export_field_csv(mesh, values, tmp_path / "field.csv")
        data = read_field_csv(path)
        assert np.array_equal(data["value"], values)
        assert np.array_equal(data["volume"], mesh.all_cell_volumes())
        assert np.array_equal(data["dim"], mesh.dof_dims())

    def test_subset_export(self, small_fractured_mesh, tmp_path):
        mesh = small_fractured_mesh
        values = np.arange(mesh.n_dofs, dtype=float)
        mask = mesh.dof_dims() == 2
        path = export_field_csv(mesh, values, tmp_path / "subset.csv", subset=mask)
        data = read_field_csv(path)
        assert data["value"].size == mask.sum()

    def test_empty_subset_gives_header_only(self, small_fractured_mesh, tmp_path):
        mesh = small_fractured_mesh
        path = export_field_csv(
            mesh, np.zeros(mesh.n_dofs), tmp_path / "empty.csv", subset=np.zeros(mesh.n_dofs, bool)
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("x,y")

    def test_vtk_cell_count_matches_mesh(self, small_fractured_mesh, tmp_path):
        mesh = small_fractured_mesh
        path = export_field_vtk(mesh, np.zeros(mesh.n_dofs), tmp_path / "field.vtk")
        text = path.read_text().splitlines()
        cells_line = [l for l in text if l.startswith("CELLS ")][0]
        n_cells = int(cells_line.split()[1])
        expected = sum(g.n_cells for g in mesh.subdomains if g.dim >= 2)
        assert n_cells == expected
        assert any(l.startswith("CELL_DATA") for l in text)


class TestReports:
    def test_report_written_deterministically(self, tmp_path):
        report = {"schema": "fracfv-report-v1", "results": {"err": 1.0e-12}}
        p1 = write_report(report, tmp_path / "a", timings={"solve": 0.1})
        p2 = write_report(report, tmp_path / "b", timings={"solve": 0.2})
        assert p1.read_bytes() == p2.read_bytes()
        timing = json.loads((tmp_path / "a" / "timings.json").read_text())
        assert timing == {"solve": 0.1}
