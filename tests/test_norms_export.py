"""Error norms, projections, field and series exports, and report files.

The per-row writers and the per-value reader that numpy's ``savetxt`` and
``loadtxt`` replaced are kept here as reference oracles: the array versions
must write the same bytes and parse the same bits.
"""

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
from conftest import write_kuhn_mesh
from fracfv.errors import FracfvError
from fracfv.harness.cases import case2_fine_reference, case2_problem, case12_problem
from fracfv.harness.export import (
    build_identifier,
    export_field_csv,
    export_field_vtk,
    read_field_csv,
    write_report,
    write_series_csv,
)
from fracfv.harness.norms import (
    l2_error,
    least_squares_slope,
    nearest_cell_map,
)
from fracfv.mdmesh import (
    FractureNetworkSpec,
    FracturePatch,
    build_cartesian_with_fractures,
    load_mesh,
)


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

        fine_problem, strip = case2_fine_reference(64, 1.0)
        fine_centres = fine_problem.mesh.subdomains[0].cell_centres
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


# ---------------------------------------------------------------------------
# Reference oracles: the per-row writers and reader the numpy versions replaced
# ---------------------------------------------------------------------------


def loop_field_csv(mesh, values, path, subset=None):
    mask = np.ones(mesh.n_dofs, dtype=bool)
    if subset is not None:
        subset = np.asarray(subset)
        if subset.dtype == bool:
            mask = subset
        else:
            mask = np.zeros(mesh.n_dofs, dtype=bool)
            mask[subset] = True
    centres = mesh.all_cell_centres()
    dims = mesh.dof_dims()
    sds = mesh.dof_subdomains()
    volumes = mesh.all_cell_volumes()
    values = np.asarray(values, dtype=float)
    coord_names = ["x", "y", "z"][: mesh.ambient_dim]
    with open(path, "w") as handle:
        handle.write(",".join(coord_names + ["dim", "subdomain", "volume", "value"]) + "\n")
        for dof in np.flatnonzero(mask):
            coords = ",".join(f"{c:.17g}" for c in centres[dof])
            handle.write(
                f"{coords},{dims[dof]},{sds[dof]},{volumes[dof]:.17g},{values[dof]:.17g}\n"
            )


def loop_read_field_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    out = {}
    for i, name in enumerate(header):
        col = [row[i] for row in rows]
        if name in ("dim", "subdomain"):
            out[name] = np.array([int(v) for v in col], dtype=int)
        else:
            out[name] = np.array([float(v) for v in col])
    return out


def loop_series_csv(path, series):
    with open(path, "w") as handle:
        handle.write("time,concentration\n")
        for t, value in series:
            handle.write(f"{t:.17g},{value:.17g}\n")


def loop_field_vtk(mesh, values, path):
    values = np.asarray(values, dtype=float)
    points, cells, cell_types, cell_values = [], [], [], []
    for sd, grid in enumerate(mesh.subdomains):
        if grid.dim not in (2, 3):
            continue
        offset = len(points)
        pts = np.zeros((grid.n_nodes, 3))
        pts[:, : mesh.ambient_dim] = grid.nodes
        points.extend(pts.tolist())
        cn = grid.cell_nodes.tocsc()
        for c in range(grid.n_cells):
            node_list = list(cn.indices[cn.indptr[c] : cn.indptr[c + 1]])
            if grid.kind == "simplex":
                vtk_type = {2: 5, 3: 10}[grid.dim]
            else:
                vtk_type = {2: 8, 3: 11}[grid.dim]
                order = np.lexsort(grid.nodes[node_list].T)
                node_list = [node_list[i] for i in order]
            cells.append([offset + int(v) for v in node_list])
            cell_types.append(vtk_type)
            cell_values.append(values[mesh.global_index(sd, c)])
    with open(path, "w") as handle:
        handle.write("# vtk DataFile Version 2.0\n")
        handle.write("fracfv cell field\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        handle.write(f"POINTS {len(points)} double\n")
        for p in points:
            handle.write(" ".join(f"{v:.17g}" for v in p) + "\n")
        total = sum(len(c) + 1 for c in cells)
        handle.write(f"CELLS {len(cells)} {total}\n")
        for c in cells:
            handle.write(" ".join(str(v) for v in [len(c)] + c) + "\n")
        handle.write(f"CELL_TYPES {len(cells)}\n")
        for t in cell_types:
            handle.write(f"{t}\n")
        handle.write(f"CELL_DATA {len(cells)}\nSCALARS value double 1\nLOOKUP_TABLE default\n")
        for v in cell_values:
            handle.write(f"{v:.17g}\n")


def _field_values(n, seed):
    """Random values spanning many magnitudes, with a signed zero and an
    infinity among them."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[: min(n, 2)] = [-0.0, np.inf][: min(n, 2)]
    return values


def _fractured_mesh(dim):
    """A unit square or cube split by one fracture through its middle."""
    fracture = FracturePatch(dim - 1, 0.5, ((0.0, 1.0),) * (dim - 1), 1e-2, 1.0, "f")
    spec = FractureNetworkSpec(domain=((0.0, 1.0),) * dim, fractures=[fracture])
    return build_cartesian_with_fractures(spec, 4)


def _kuhn_mesh(tmp_path):
    path = tmp_path / "kuhn.txt"
    write_kuhn_mesh(path, 3, seed=5)
    return load_mesh(path)


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

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("subset", ["none", "mask", "index", "empty"])
    def test_csv_matches_loop(self, tmp_path, dim, subset):
        mesh = _fractured_mesh(dim)
        rows = {
            "none": None,
            "mask": mesh.dof_dims() < dim,
            "index": np.array([5, 0, 5, mesh.n_dofs - 1, 2]),  # unsorted, repeated
            "empty": np.zeros(mesh.n_dofs, dtype=bool),
        }[subset]
        values = _field_values(mesh.n_dofs, seed=dim)
        path = export_field_csv(mesh, values, tmp_path / "field.csv", rows)
        loop_field_csv(mesh, values, tmp_path / "loop.csv", rows)
        assert path.read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_read_matches_loop_bit_for_bit(self, tmp_path, dim):
        mesh = _fractured_mesh(dim)
        path = export_field_csv(mesh, _field_values(mesh.n_dofs, seed=7), tmp_path / "f.csv")
        data, oracle = read_field_csv(path), loop_read_field_csv(path)
        assert list(data) == list(oracle)
        for name, column in oracle.items():
            assert data[name].dtype == column.dtype, name
            assert data[name].tobytes() == column.tobytes(), name
        assert data["dim"].dtype.kind == data["subdomain"].dtype.kind == "i"

    def test_read_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y,z,dim,subdomain,volume,value\n")
        data = read_field_csv(path)
        assert list(data) == ["x", "y", "z", "dim", "subdomain", "volume", "value"]
        for name, column in loop_read_field_csv(path).items():
            assert data[name].shape == (0,) and data[name].dtype == column.dtype, name

    @pytest.mark.parametrize("mesh_kind", ["2d", "3d", "kuhn"])
    def test_vtk_matches_loop(self, tmp_path, mesh_kind):
        if mesh_kind == "kuhn":
            mesh = _kuhn_mesh(tmp_path)
        else:
            mesh = _fractured_mesh(int(mesh_kind[0]))
        values = _field_values(mesh.n_dofs, seed=11)
        path = export_field_vtk(mesh, values, tmp_path / "field.vtk")
        loop_field_vtk(mesh, values, tmp_path / "loop.vtk")
        assert path.read_bytes() == (tmp_path / "loop.vtk").read_bytes()

    def test_vtk_rejects_cells_of_different_node_counts(self, tmp_path):
        # A quadrilateral and a triangle side by side in one subdomain: no
        # single VTK cell type fits both.
        path = tmp_path / "mixed.txt"
        path.write_text(
            "fracfv-mesh 1\nambient 2\nsubdomains 1\nsubdomain 0\ndim 2\naperture 1\n"
            "nodes 5\n0 0\n1 0\n2 0\n0 1\n1 1\ncells 2 explicit\n0 1 4 3\n1 2 4\n"
            "faces 6\n0 -1 : 0 1\n0 1 : 1 4\n0 -1 : 4 3\n0 -1 : 3 0\n1 -1 : 1 2\n1 -1 : 2 4\n"
            "end\ninterfaces 0\nend\n"
        )
        mesh = load_mesh(path)
        with pytest.raises(FracfvError, match="one node count"):
            export_field_vtk(mesh, np.zeros(mesh.n_dofs), tmp_path / "mixed.vtk")
        assert not (tmp_path / "mixed.vtk").exists()

    @pytest.mark.parametrize("n_samples", [0, 1, 7])
    def test_series_csv_matches_loop(self, tmp_path, n_samples):
        series = [(0.1 * k, v) for k, v in enumerate(_field_values(n_samples, seed=n_samples))]
        write_series_csv(tmp_path / "series.csv", series)
        loop_series_csv(tmp_path / "loop.csv", series)
        assert (tmp_path / "series.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


class TestReports:
    def test_report_written_deterministically(self, tmp_path):
        report = {"schema": "fracfv-report-v1", "results": {"err": 1.0e-12}}
        p1 = write_report(report, tmp_path / "a", timings={"solve": 0.1})
        p2 = write_report(report, tmp_path / "b", timings={"solve": 0.2})
        assert p1.read_bytes() == p2.read_bytes()
        timing = json.loads((tmp_path / "a" / "timings.json").read_text())
        assert timing == {"solve": 0.1}

    def test_build_id_ignores_the_working_directory(self, tmp_path, monkeypatch):
        """A run started inside another git repository records fracfv's
        own build, not that repository's commit."""
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        git += ["-C", str(tmp_path)]
        subprocess.run(git + ["init", "-q"], check=True)
        subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "other"], check=True)
        other = subprocess.run(
            git + ["describe", "--always", "--dirty"], capture_output=True, text=True, check=True
        ).stdout.strip()
        expected = build_identifier()
        monkeypatch.chdir(tmp_path)
        build_identifier.cache_clear()  # look again, from the other repository
        assert build_identifier() == expected != other

    def test_build_id_is_found_once_per_process(self, monkeypatch):
        expected = build_identifier()

        def no_subprocess(*args, **kwargs):
            raise AssertionError("build_identifier started a subprocess")

        monkeypatch.setattr(subprocess, "run", no_subprocess)
        assert build_identifier() == expected
