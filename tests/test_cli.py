import json
from pathlib import Path

import numpy as np
import pytest

from kinereco.cli import main
from kinereco.synth import (config_to_json_dict, dump_profile,
                            standard_session_profile,
                            write_simulated_session)


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory, config, clean_session_small,
                   clean_profile_small):
    """simulate (pre-built fixture) -> detect -> reconstruct on 3 events."""
    root = tmp_path_factory.mktemp("pipeline")
    session = root / "session"
    write_simulated_session(clean_session_small, config, session)
    config_path = session / "config.json"
    events = root / "events.csv"
    assert main(["detect", "--config", str(config_path), "--in", str(session),
                 "--out", str(events)]) == 0
    kin = root / "kin"
    assert main(["reconstruct", "--config", str(config_path),
                 "--in", str(session), "--events", str(events),
                 "--out", str(kin), "--alpha-method", "both"]) == 0
    return dict(root=root, session=session, config=config_path, events=events,
                kin=kin)


class TestDetectCommand:
    def test_event_count_matches_profile(self, small_pipeline,
                                         clean_profile_small):
        lines = [ln for ln in Path(small_pipeline["events"]).read_text().splitlines()
                 if ln and not ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:]]
        hb_rows = [r for r in rows if r[1] == "headband"]
        assert len(hb_rows) == len(clean_profile_small.impacts)
        paired = [r for r in rows if r[0]]
        assert len(paired) == 2 * len(clean_profile_small.impacts)

    def test_labels_attached_from_sidecar(self, small_pipeline):
        text = Path(small_pipeline["events"]).read_text()
        for label in ("throw_in", "goal_kick", "corner_kick"):
            assert label in text

    def test_manifest_stamp_present(self, small_pipeline):
        first = Path(small_pipeline["events"]).read_text().splitlines()[0]
        assert first.startswith("# manifest_sha256=")


class TestReconstructCommand:
    def test_both_alpha_series_exported(self, small_pipeline):
        header = None
        for line in (small_pipeline["kin"] / "hb_ev001.csv").read_text().splitlines():
            if not line.startswith("#"):
                header = line
                break
        assert "alpha_diff_x" in header
        assert "alpha_a3g1_x" in header
        assert "q_x" in header and "a_point_x" in header and "residual" in header

    def test_diff_only_omits_a3g1_columns(self, small_pipeline):
        out = small_pipeline["root"] / "kin_diff"
        assert main(["reconstruct", "--config", str(small_pipeline["config"]),
                     "--in", str(small_pipeline["session"]),
                     "--events", str(small_pipeline["events"]),
                     "--out", str(out), "--alpha-method", "diff"]) == 0
        header = [ln for ln in (out / "hb_ev001.csv").read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert "alpha_diff_x" in header
        assert "alpha_a3g1_x" not in header

    def test_reference_kinematics_written(self, small_pipeline):
        ref = small_pipeline["kin"] / "ref_ev001.csv"
        assert ref.exists()
        header = [ln for ln in ref.read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert header.startswith("t_s,omega_x")

    def test_scalogram_export(self, small_pipeline):
        out = small_pipeline["root"] / "kin_sc"
        assert main(["reconstruct", "--config", str(small_pipeline["config"]),
                     "--in", str(small_pipeline["session"]),
                     "--events", str(small_pipeline["events"]),
                     "--out", str(out), "--scalograms"]) == 0
        sc = out / "scalogram_ev001.csv"
        assert sc.exists()
        data = np.loadtxt([ln for ln in sc.read_text().splitlines()
                           if not ln.startswith(("#", "axis"))], delimiter=",")
        assert data.shape[1] == 4
        assert (data[:, 3] >= 0).all()


class TestEvaluateAndReport:
    def test_full_report_pipeline(self, small_pipeline):
        report_path = small_pipeline["root"] / "report.json"
        assert main(["evaluate", "--config", str(small_pipeline["config"]),
                     "--hb", str(small_pipeline["kin"]),
                     "--ref", str(small_pipeline["kin"]),
                     "--pairs", str(small_pipeline["events"]),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["n_events"] == 3
        quantities = {"angular_velocity", "angular_acceleration_diff",
                      "angular_acceleration_a3g1", "linear_acceleration"}
        assert set(report["events"][0]["cora"]) == quantities
        per_axis = report["events"][0]["cora"]["angular_velocity"]["per_axis"]
        assert set(per_axis) == {"x", "y", "z"}
        assert set(report["aggregate"]["bland_altman"]) == quantities
        assert report["manifest_sha256"]
        for ev in report["events"]:
            for q in quantities:
                assert ev["cora"][q]["total"] > 0.9  # noiseless agreement

        tables = small_pipeline["root"] / "tables"
        assert main(["report", "--in", str(report_path), "--out", str(tables),
                     "--hb", str(small_pipeline["kin"]),
                     "--ref", str(small_pipeline["kin"])]) == 0
        for name in ("cora.csv", "bland_altman.csv", "nrmse.csv", "ttests.csv",
                     "peaks.csv"):
            assert (tables / name).exists()
        overlays = list(tables.glob("timehistory_ev001_*.csv"))
        assert len(overlays) == 4

    def test_diff_only_kinematics_evaluate_subset(self, small_pipeline):
        kin = small_pipeline["root"] / "kin_diff"
        report_path = small_pipeline["root"] / "report_diff.json"
        assert main(["evaluate", "--config", str(small_pipeline["config"]),
                     "--hb", str(kin), "--ref", str(small_pipeline["kin"]),
                     "--pairs", str(small_pipeline["events"]),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert set(report["events"][0]["cora"]) == {
            "angular_velocity", "angular_acceleration_diff"}

    def test_deterministic_report_bytes(self, small_pipeline):
        out1 = small_pipeline["root"] / "r1.json"
        out2 = small_pipeline["root"] / "r2.json"
        args = ["evaluate", "--config", str(small_pipeline["config"]),
                "--hb", str(small_pipeline["kin"]),
                "--ref", str(small_pipeline["kin"]),
                "--pairs", str(small_pipeline["events"])]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSimulateCommand:
    def test_simulate_then_detect_counts_match(self, tmp_path, config):
        profile = standard_session_profile(seed=30, with_noise=False,
                                           n_per_tier=1)
        profile_path = dump_profile(profile, tmp_path / "profile.json")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_json_dict(config)))
        session = tmp_path / "session"
        assert main(["simulate", "--profile", str(profile_path),
                     "--config", str(config_path), "--out", str(session),
                     "--seed", "2"]) == 0
        assert (session / "manifest.json").exists()
        events = tmp_path / "events.csv"
        assert main(["detect", "--config", str(config_path),
                     "--in", str(session), "--out", str(events)]) == 0
        rows = [ln for ln in events.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        hb = [r for r in rows if r.split(",")[1] == "headband"]
        assert len(hb) == len(profile.impacts)


class TestSideEffects:
    def test_subcommands_leave_input_directory_untouched(self, small_pipeline):
        session = small_pipeline["session"]
        before = sorted(p.name for p in session.iterdir())
        out = small_pipeline["root"] / "kin_again"
        assert main(["reconstruct", "--config", str(small_pipeline["config"]),
                     "--in", str(session),
                     "--events", str(small_pipeline["events"]),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in session.iterdir()) == before

    def test_manifest_hash_stamped_through_session_outputs(self, tmp_path,
                                                           config):
        profile = standard_session_profile(seed=31, with_noise=False,
                                           n_per_tier=1)
        profile_path = dump_profile(profile, tmp_path / "profile.json")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_json_dict(config)))
        session = tmp_path / "session"
        assert main(["simulate", "--profile", str(profile_path),
                     "--config", str(config_path), "--out", str(session),
                     "--seed", "1"]) == 0
        manifest = json.loads((session / "manifest.json").read_text())
        sha = manifest["sha256"]
        assert json.loads((session / "truth.json").read_text())[
            "manifest_sha256"] == sha
        first_line = (session / "bt_back.csv").read_text().splitlines()[0]
        assert first_line == f"# manifest_sha256={sha}"


class TestErrorReporting:
    def test_missing_config_gives_single_error_line(self, tmp_path, capsys):
        code = main(["detect", "--config", str(tmp_path / "nope.json"),
                     "--in", str(tmp_path), "--out", str(tmp_path / "e.csv")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: FormatError:")

    @pytest.mark.parametrize("content, key", [
        ("{}", "events"), ('{"events": []}', "aggregate"), ("[]", "events"),
    ], ids=["empty", "no_aggregate", "list"])
    def test_report_without_required_key(self, tmp_path, capsys, content, key):
        report = tmp_path / "report.json"
        report.write_text(content)
        code = main(["report", "--in", str(report), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: FormatError:")
        assert repr(key) in err[0]
        assert not (tmp_path / "t").exists()

    def test_bad_events_file_reported(self, tmp_path, capsys, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_json_dict(config)))
        bad = tmp_path / "events.csv"
        bad.write_text("pair_id,source,t0_s,label,offset_s\n")
        code = main(["reconstruct", "--config", str(config_path),
                     "--in", str(tmp_path), "--events", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "kinereco: error:" in capsys.readouterr().err


class TestParameterValidation:
    @pytest.mark.parametrize("argv", [
        ["reconstruct", "--config", "c.json", "--in", "session",
         "--events", "events.csv", "--out", "kin", "--workers", "0"],
        ["evaluate", "--config", "c.json", "--hb", "kin", "--ref", "kin",
         "--pairs", "events.csv", "--out", "report.json", "--nrmse-window", "0"],
        ["evaluate", "--config", "c.json", "--hb", "kin", "--ref", "kin",
         "--pairs", "events.csv", "--out", "report.json",
         "--max-shift-fraction", "-1"],
    ], ids=["workers_0", "nrmse_window_0", "max_shift_fraction_neg"])
    def test_nonpositive_value_gives_single_error_line(self, argv, capsys):
        code = main(argv)
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        flag = argv[-2]
        assert err[0].startswith("kinereco: error: ConfigError: " + flag)

    @pytest.mark.parametrize("flag", ["--nrmse-window", "--max-shift-fraction"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_gives_single_error_line(self, flag, value, capsys):
        code = main(["evaluate", "--config", "c.json", "--hb", "kin",
                     "--ref", "kin", "--pairs", "events.csv",
                     "--out", "report.json", f"{flag}={value}"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: ConfigError: " + flag)
