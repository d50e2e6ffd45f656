"""Error norms, projections, field exports and report files."""

import json

import numpy as np
import pytest

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
