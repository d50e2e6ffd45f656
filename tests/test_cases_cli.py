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

    def test_overrides_take_the_type_of_their_default(self):
        spec = CaseSpec(case="4", overrides={"n_steps": 20.0, "k_upper": 1, "zero_d_only": "True"})
        parameters = spec.parameters
        assert parameters["n_steps"] == 20 and isinstance(parameters["n_steps"], int)
        assert parameters["k_upper"] == 1.0 and isinstance(parameters["k_upper"], float)
        assert parameters["zero_d_only"] is True
        assert parameters["k_lower"] == 1e-3 and parameters["t_final"] == 2.0

    def test_non_integer_step_count_rejected(self):
        with pytest.raises(FracfvError, match="integer"):
            CaseSpec(case="1.3", overrides={"n_steps": 2.5})

    @pytest.mark.parametrize(
        "case,option,value",
        [
            ("2", "discretization", "tpfa"),
            ("1.1", "elimination", "schur"),
            ("1.2-lite", "discretization", "mpfa"),
            ("1.3", "discretization", "hybrid"),
            ("3", "elimination", "none"),
            ("4", "elimination", "star_delta"),
            ("1.3", "elimination", "bogus"),
            ("3", "discretization", "bogus"),
        ],
    )
    def test_choice_the_case_does_not_read_rejected(self, case, option, value):
        with pytest.raises(FracfvError, match=f"does not take {option}"):
            CaseSpec(case=case, **{option: value})


class TestZeroDOnly:
    """``zero_d_only`` picks case 4's eliminated set: every intersection cell
    (15 at resolution 8) or the intersection points only (1)."""

    @pytest.mark.parametrize("word,eliminated", [("false", 15), ("0", 15), ("true", 1), ("1", 1)])
    def test_command_line_words(self, tmp_path, word, eliminated):
        out = tmp_path / word
        args = ["run", "4", "--override", f"zero_d_only={word}", "--override", "n_steps=1"]
        assert main(args + ["--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["eliminated_dofs"] == eliminated

    @pytest.mark.parametrize("word", ["no", "yes", "2", "0.5"])
    def test_other_values_rejected(self, tmp_path, capsys, word):
        args = ["run", "4", "--override", f"zero_d_only={word}", "--out", str(tmp_path)]
        assert main(args) == 1
        assert "zero_d_only" in capsys.readouterr().err


def _names(stems, vtk=False):
    return [f"{stem}.{ext}" for stem in stems for ext in (("csv", "vtk") if vtk else ("csv",))]


FULL_13 = ["pressure_full", "tracer_full"]
KEPT_13 = [f"{q}_{tag}_kept" for tag in ("schur", "star_delta") for q in ("pressure", "tracer")]
ARTIFACTS = [
    pytest.param("1.1", {"resolution": 4}, [], [], id="1.1"),
    pytest.param(
        "1.1", {"resolution": 4, "overrides": {"k_h": 1e3, "k_v": 1e-3}}, ["pressure_full"], [],
        id="1.1-point",
    ),
    pytest.param(
        "1.2-lite",
        {"resolution": 16, "overrides": {"fine_resolution": 32}},
        ["pressure_none", "pressure_schur", "pressure_star_delta", "pressure_reference"],
        [],
        id="1.2-lite",
    ),
    pytest.param(
        "1.3",
        {"resolution": 4, "overrides": {"n_steps": 4}},
        FULL_13 + KEPT_13 + ["pressure_full_kept", "tracer_full_kept"],
        ["series_full", "series_schur", "series_star_delta"],
        id="1.3",
    ),
    pytest.param(
        "1.3",
        {"resolution": 4, "overrides": {"n_steps": 4}, "write_vtk": True},
        FULL_13 + KEPT_13 + ["pressure_full_kept", "tracer_full_kept"],
        ["series_full", "series_schur", "series_star_delta"],
        id="1.3-vtk",
    ),
    pytest.param(
        "1.3", {"resolution": 4, "elimination": "none", "overrides": {"n_steps": 4}}, FULL_13,
        ["series_full"], id="1.3-elim-none",
    ),
    pytest.param("2", {"overrides": {"ratio": 3.0, "fine_resolution": 32}}, [], [], id="2"),
    pytest.param(
        "3",
        {"resolution": 4, "overrides": {"n_steps": 4}},
        ["pressure_mpfa", "pressure_tpfa", "pressure_hybrid"],
        ["series_mpfa", "series_tpfa", "series_hybrid"],
        id="3",
    ),
    pytest.param(
        "4",
        {"resolution": 8, "overrides": {"n_steps": 4}},
        ["pressure_full", "tracer_full", "pressure_schur_kept", "pressure_full_kept"],
        [],
        id="4",
    ),
]


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

    @pytest.mark.parametrize("case,kwargs,fields,series", ARTIFACTS)
    def test_artifacts_and_determinism(self, tmp_path, case, kwargs, fields, series):
        """Each case writes exactly the files its report lists, and identical
        specs give byte-identical reports. With no elimination, case 1.3
        reports the full system only."""
        for run in ("a", "b"):
            result = run_case(CaseSpec(case=case, out_dir=tmp_path / run, **kwargs))
        artifacts = result.report["artifacts"]
        assert artifacts == {
            "fields": _names(fields, kwargs.get("write_vtk", False)),
            "series": _names(series),
            "timings": "timings.json",
        }
        written = {path.name for path in (tmp_path / "b").iterdir()}
        listed = {*artifacts["fields"], *artifacts["series"]}
        assert written == listed | {"report.json", "timings.json"}
        report = (tmp_path / "a" / "report.json").read_bytes()
        assert report == (tmp_path / "b" / "report.json").read_bytes()
        assert json.loads(report)["artifacts"] == artifacts
        if kwargs.get("elimination") == "none":
            assert not {"schur", "star_delta"} & set(result.report["results"])

    def test_case3_report_is_deterministic(self, tmp_path):
        # Case 3 times its three discretizations; the wall-time ratios go
        # to timings.json, not into the report.
        spec = dict(case="3", resolution=4, overrides={"n_steps": 4})
        run_case(CaseSpec(**spec, out_dir=tmp_path / "a"))
        run_case(CaseSpec(**spec, out_dir=tmp_path / "b"))
        a = (tmp_path / "a" / "report.json").read_bytes()
        assert a == (tmp_path / "b" / "report.json").read_bytes()
        assert b"relative_discretization_time" not in a
        timings = json.loads((tmp_path / "a" / "timings.json").read_text())
        assert set(timings["relative_discretization_time"]) == {"tpfa", "hybrid"}


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

    def test_choice_the_case_does_not_read_exit_code(self, tmp_path, capsys):
        assert main(["run", "2", "--disc", "tpfa", "--out", str(tmp_path)]) == 1
        assert main(["run", "4", "--elim", "schur", "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "report.json").exists()

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
