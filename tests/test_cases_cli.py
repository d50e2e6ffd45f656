"""Case harness behavior, report files, reproducibility and the CLI."""

import json

import numpy as np
import pytest

from fracfv.errors import FracfvError
from fracfv.harness import l2_error, read_field_csv
from fracfv.harness.cases import CaseSpec, run_case
from fracfv.harness.cli import main
from fracfv.mdmesh import FractureNetworkSpec, FracturePatch, build_cartesian_with_fractures, save_mesh


class TestCaseSpec:
    def test_unknown_case_rejected(self):
        with pytest.raises(FracfvError, match="unknown case"):
            CaseSpec(case="9.9")

    def test_unknown_override_rejected(self):
        with pytest.raises(FracfvError, match="free parameters"):
            CaseSpec(case="1.1", overrides={"viscosity": 2.0})

    def test_non_numeric_override_rejected(self):
        with pytest.raises(FracfvError, match="numeric"):
            CaseSpec(case="1.1", overrides={"k_h": "big"})

    def test_default_resolutions(self):
        assert CaseSpec(case="1.3").resolved_resolution == 8
        assert CaseSpec(case="1.2-lite", resolution=32).resolved_resolution == 32


class TestRunCaseArtifacts:
    def test_case13_report_and_fields(self, tmp_path):
        out = tmp_path / "run"
        result = run_case(CaseSpec(case="1.3", resolution=4, out_dir=out))
        report = json.loads((out / "report.json").read_text())
        assert report["norm"] == "l2-rel-volume-weighted-v1"
        assert report["case"]["id"] == "1.3"
        assert (out / "pressure_full.csv").exists()
        assert (out / "series_full.csv").exists()
        assert (out / "timings.json").exists()
        # Timings never leak into the deterministic report.
        assert "timings" not in json.dumps(report["results"])

    def test_report_error_reproducible_from_exported_fields(self, tmp_path):
        out = tmp_path / "case3"
        result = run_case(CaseSpec(case="3", resolution=4, out_dir=out))
        report = json.loads((out / "report.json").read_text())
        tpfa = read_field_csv(out / "pressure_tpfa.csv")
        mpfa = read_field_csv(out / "pressure_mpfa.csv")
        recomputed = l2_error(
            tpfa["value"], mpfa["value"], mpfa["volume"], subset=mpfa["dim"] == 3
        )
        reported = report["results"]["differences"]["tpfa"]["pressure_matrix"]
        assert recomputed == pytest.approx(reported, rel=1e-12)

    def test_case13_series_schur_matches_full(self):
        result = run_case(CaseSpec(case="1.3"))
        full = np.array([v for _, v in result.extras["sim_full"].state.series])
        schur = np.array([v for _, v in result.extras["schur"]["sim"].state.series])
        star = np.array([v for _, v in result.extras["star_delta"]["sim"].state.series])
        assert np.abs(full - schur).max() <= 1e-10
        # The infinite-permeability reduction loses the blocking intersection
        # and departs visibly.
        assert np.abs(full - star).max() > 1e-2

    def test_case13_kept_errors_recomputable_from_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        result = run_case(CaseSpec(case="1.3", resolution=4, out_dir=out))
        full = read_field_csv(out / "pressure_full_kept.csv")
        schur = read_field_csv(out / "pressure_schur_kept.csv")
        recomputed = l2_error(schur["value"], full["value"], full["volume"])
        reported = result.report["results"]["schur"]["pressure_error"]
        assert recomputed == pytest.approx(reported, rel=1e-10, abs=1e-18)

    def test_identical_specs_give_identical_reports(self, tmp_path):
        spec = dict(case="1.3", resolution=4)
        run_case(CaseSpec(**spec, out_dir=tmp_path / "a"))
        run_case(CaseSpec(**spec, out_dir=tmp_path / "b"))
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b


class TestCommandLine:
    def test_run_exit_zero(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "1.1",
                "--resolution",
                "4",
                "--override",
                "k_h=1",
                "--override",
                "k_v=1",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_sweep_exit_zero(self, tmp_path):
        code = main(
            ["sweep", "--resolution", "4", "--values", "1e-3,1", "--out", str(tmp_path / "sw")]
        )
        assert code == 0
        report = json.loads((tmp_path / "sw" / "report.json").read_text())
        assert report["case"]["id"] == "1.1-sweep"

    def test_validate_mesh_ok(self, tmp_path):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            fractures=[FracturePatch(0, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "v")],
        )
        mesh = build_cartesian_with_fractures(spec, 2)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        assert main(["validate-mesh", str(path)]) == 0

    def test_validate_mesh_bad_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-mesh 1\n")
        assert main(["validate-mesh", str(path)]) == 2

    def test_bad_override_exit_code(self, tmp_path, capsys):
        code = main(["run", "1.1", "--override", "bogus=1", "--out", str(tmp_path)])
        assert code == 1

    def test_vtk_flag_writes_vtk(self, tmp_path):
        code = main(
            [
                "run",
                "1.3",
                "--resolution",
                "4",
                "--vtk",
                "--out",
                str(tmp_path / "v"),
            ]
        )
        assert code == 0
        assert (tmp_path / "v" / "pressure_full.vtk").exists()
