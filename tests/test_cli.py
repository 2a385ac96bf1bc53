import errno
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kinereco import cli, core, ingest, pipeline, twoproc
from kinereco.cli import RunManifest, _write_scalograms, main
from kinereco.core import TimeSeries3
from kinereco.errors import FormatError, WindowError
from kinereco.synth import (config_to_json_dict, dump_profile,
                            standard_session_profile)
from kinereco.wavelet import Scalogram

from conftest import assert_no_child_left


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


def _old_write_scalograms(path, omega, manifest):
    """The scalogram export that formats every cell, labels included, with
    one Python ``%`` each, and joins the rows itself."""
    grids = []
    for k in range(3):
        comp = omega.component(k)
        if comp.values.any():
            grids.append((float(k), cli.cwt(comp)))
    if not grids:
        return
    lines = [f"# {comment}\n" for comment in manifest.comments()]
    lines.append("axis,time_s,freq_hz,coeff\n")
    for k, sc in grids:
        for freq, row in zip(sc.freqs.tolist(), sc.coeffs.tolist()):
            for t, coeff in zip(sc.times.tolist(), row):
                lines.append("%.9g,%.9g,%.9g,%.9g\n" % (k, t, freq, coeff))
    Path(path).write_bytes("".join(lines).encode("utf-8"))


class TestScalogramExport:
    """Labels formatted once give the bytes of formatting every cell."""

    MANIFEST = RunManifest(subcommand="reconstruct", config_path="c.json",
                           inputs=("session",), params={}, seed=None)

    @pytest.mark.parametrize("rate, n, start, zero_axes", [
        (1125.0, 205, -0.03125, ()),
        (1125.0, 205, -0.03125, (1,)),
        (3200.0, 401, -0.03125, ()),
        (3200.0, 401, -0.03125, (0,)),
        (1125.0, 205, 12.468, (2,)),
        (1125.0, 205, -0.03125, (0, 1, 2)),
    ], ids=["headband", "headband_zero_y", "reference", "reference_zero_x",
            "session_clock_zero_z", "all_zero"])
    def test_equals_every_cell_formatted(self, tmp_path, rate, n, start,
                                         zero_axes):
        rng = np.random.default_rng(n + len(zero_axes))
        t = np.arange(n) / rate + start
        pulse = np.exp(-0.5 * ((t - start - 0.03125) / 0.004) ** 2)
        samples = (pulse[:, None] * rng.uniform(5.0, 40.0, 3)
                   + rng.standard_normal((n, 3)))
        samples[:, list(zero_axes)] = 0.0
        omega = TimeSeries3(start, rate, samples)

        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        _write_scalograms(new, omega, self.MANIFEST)
        _old_write_scalograms(old, omega, self.MANIFEST)
        if len(zero_axes) == 3:
            assert not new.exists() and not old.exists()
            return
        assert new.read_bytes() == old.read_bytes()
        axes = {line.split(",", 1)[0]
                for line in new.read_text().splitlines()[2:]}
        assert axes == {str(k) for k in range(3) if k not in zero_axes}

    def test_cells_that_format_g_leaves_to_percent(self, tmp_path,
                                                   monkeypatch):
        """Coefficients of 0, 1e-20 and at least 1e9, and labels in exponent
        notation, on a grid of more rows than one chunk of the writer."""
        rng = np.random.default_rng(5)
        times = np.arange(300) * 1e-5 - 3e-4
        freqs = np.geomspace(1e-6, 2e9, 40)
        coeffs = rng.uniform(0.0, 2.0, (40, 300)) * 10.0 ** rng.integers(
            -25, 12, (40, 300))
        coeffs.flat[::7] = 0.0
        coeffs.flat[1::11] = 1e-20
        coeffs.flat[2::13] = 1e9
        coeffs.flat[3::17] = 3.5e12
        monkeypatch.setattr(cli, "cwt", lambda comp: Scalogram(
            times, freqs, coeffs * abs(comp.values[0])))
        omega = TimeSeries3(0.0, 100.0, np.array([[1.0, 0.0, 2.0]] * 300))

        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        _write_scalograms(new, omega, self.MANIFEST)
        _old_write_scalograms(old, omega, self.MANIFEST)
        assert new.read_bytes() == old.read_bytes()
        text = new.read_text()
        assert ",0\n" in text and ",1e-20\n" in text and ",1e+09\n" in text
        assert ",2e+09," in text and ",-0.0003," in text
        assert text.count("\n") == 2 + 2 * 40 * 300


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

    @pytest.mark.parametrize("label", ["header,left", "header\nleft"],
                             ids=["comma", "newline"])
    def test_label_that_breaks_csv_rejected(self, tmp_path, config, capsys,
                                            label):
        profile_path = dump_profile(
            standard_session_profile(seed=30, with_noise=False, n_per_tier=1),
            tmp_path / "profile.json")
        raw = json.loads(profile_path.read_text())
        raw["impacts"][0]["label"] = label
        profile_path.write_text(json.dumps(raw))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_json_dict(config)))
        session = tmp_path / "session"
        assert main(["simulate", "--profile", str(profile_path),
                     "--config", str(config_path), "--out", str(session)]) == 1
        line = single_error_line(capsys)
        assert line.startswith(
            f"kinereco: error: DataError: {profile_path}: impact label "
            f"{label!r} contains ")
        assert not session.exists()

    @pytest.mark.parametrize("window", [
        {"pre_ms": 40.0, "reference_post_ms": 60.0},
        # Neither is a whole number of sample periods at 3200 Hz.
        {"pre_ms": 31.3, "reference_post_ms": 93.8, "headband_post_ms": 160.0},
    ], ids=["pre40_post60", "pre31.3_post93.8_hb160"])
    def test_a_non_default_window_runs_every_stage(self, tmp_path, config,
                                                   clean_profile_small,
                                                   caplog, window):
        """simulate cuts the reference blocks by the config's window, and
        detect, reconstruct and evaluate read and align them by it."""
        raw = config_to_json_dict(config)
        raw["window"] = {**raw["window"], **window}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        profile_path = dump_profile(clean_profile_small,
                                    tmp_path / "profile.json")
        session, events = tmp_path / "session", tmp_path / "events.csv"
        kin, report = tmp_path / "kin", tmp_path / "report.json"
        common = ["--config", str(config_path)]
        for argv in (
                ["simulate", "--profile", str(profile_path), "--out",
                 str(session), "--seed", "5"],
                ["detect", "--in", str(session), "--out", str(events)],
                ["reconstruct", "--in", str(session), "--events", str(events),
                 "--out", str(kin)],
                ["evaluate", "--hb", str(kin), "--ref", str(kin), "--pairs",
                 str(events), "--out", str(report)]):
            assert main(argv[:1] + common + argv[1:]) == 0, argv[0]
        n = len(clean_profile_small.impacts)
        rows = [ln.split(",") for ln in events.read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert len(rows) == 2 * n and all(row[0] for row in rows)
        assert "offset refinement skipped" not in caplog.text
        assert json.loads(report.read_text())["n_events"] == n


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


def copy_session(small_pipeline, tmp_path) -> Path:
    return Path(shutil.copytree(small_pipeline["session"], tmp_path / "session"))


def put_nan(path: Path, column: str, row: int = 100, cell: str = "nan"):
    """Overwrite one cell of a session CSV's data row with ``cell``."""
    lines = path.read_text().splitlines(keepends=True)
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cells = lines[head + 1 + row].rstrip("\n").split(",")
    cells[lines[head].strip().split(",").index(column)] = cell
    lines[head + 1 + row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def window_row(events: Path, pair_id: int = 1, rate: float = 1125.0) -> int:
    """The data row of a headband main file (``rate`` Hz from t = 0) at
    pair ``pair_id``'s headband trigger, inside that pair's window."""
    row = next(r for r in cli._read_events_csv(events) if r.pair_id == pair_id)
    return int(row.t0_headband * rate)


def output_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def single_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return err[0]


class TestFilesEachStageReads:
    """Each stage opens only the session files holding channels it uses."""

    @pytest.fixture
    def names(self, small_pipeline, config):
        """File names of the headband main files, their companions, the A3G1
        sensors' companions and the reference blocks."""
        headband = [s.id for s in config.headband_sensors]
        blocks = sorted(p.name for p in small_pipeline["session"].glob(
            f"{config.reference_sensor.id}_ev*.csv"))
        assert len(headband) == 5 and len(blocks) == 3
        return dict(main=[f"{sid}.csv" for sid in headband],
                    high=[f"{sid}_high.csv" for sid in headband],
                    a3g1=[f"{sid}_high.csv" for sid in config.a3g1_sensor_ids],
                    blocks=blocks)

    @pytest.fixture
    def opened(self, monkeypatch, tmp_path):
        """A function giving the name of every table a stage has read, in
        either process: each goes through ``ingest.read_table``, which
        ``cli`` imports by name, and each name is appended to one file."""
        log = tmp_path / "opened.txt"
        log.touch()
        real = ingest.read_table

        def spy(path, numeric=True, pick=None):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(Path(path).name + "\n")
            return real(path, numeric, pick)

        monkeypatch.setattr(ingest, "read_table", spy)
        monkeypatch.setattr(cli, "read_table", spy)
        return lambda: log.read_text(encoding="utf-8").split()

    def test_detect_reads_trigger_companions(self, small_pipeline, tmp_path,
                                             names, opened):
        assert main(["detect", "--config", str(small_pipeline["config"]),
                     "--in", str(small_pipeline["session"]),
                     "--out", str(tmp_path / "events.csv")]) == 0
        assert sorted(opened()) == sorted(
            names["high"] + names["blocks"] + ["labels.csv"])

    @pytest.mark.parametrize("method", ["both", "a3g1", "diff"])
    def test_reconstruct_reads_gyros_and_a3g1_channel(
            self, small_pipeline, tmp_path, names, opened, method):
        assert main(["reconstruct", "--config", str(small_pipeline["config"]),
                     "--in", str(small_pipeline["session"]),
                     "--events", str(small_pipeline["events"]),
                     "--out", str(tmp_path / "kin"),
                     "--alpha-method", method]) == 0
        companions = [] if method == "diff" else names["a3g1"]
        assert sorted(opened()) == sorted(
            names["main"] + companions + names["blocks"]
            + [small_pipeline["events"].name])

    def test_detect_without_high_g_triggers_from_main_file(
            self, small_pipeline, tmp_path, names, opened, config):
        raw = config_to_json_dict(config)
        for sensor in raw["sensors"]:
            if sensor["role"] == "headband":
                del sensor["channels"]["accel_high"]
        raw["a3g1_channel"] = "accel_low"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        assert main(["detect", "--config", str(config_path),
                     "--in", str(small_pipeline["session"]),
                     "--out", str(tmp_path / "events.csv")]) == 0
        assert sorted(opened()) == sorted(
            names["main"] + names["blocks"] + ["labels.csv"])


class TestReconstructReadsWindows:
    def test_rows_outside_the_windows_are_never_read(
            self, small_pipeline, tmp_path, monkeypatch, config):
        """Overwrite every data cell of the headband files outside the rows
        reconstruct parses with ``x``, one line per row as before:
        reconstruct still exits 0 with the clean session's output bytes."""
        session = copy_session(small_pipeline, tmp_path)
        reconstruct = ["reconstruct", "--config", str(small_pipeline["config"]),
                       "--in", str(session),
                       "--events", str(small_pipeline["events"]), "--out"]
        parsed = {}
        real = ingest.read_table

        def spy(path, numeric=True, pick=None):
            meta, header, table = real(path, numeric, pick)
            if pick is not None:
                assert table.index is not None, "parsed whole"
                parsed[Path(path).name] = set(table.index.tolist())
            return meta, header, table

        with monkeypatch.context() as serial:
            # One process parses every file, so the spy sees every read.
            serial.delattr(os, "fork")
            serial.setattr(ingest, "read_table", spy)
            assert main(reconstruct + [str(tmp_path / "clean")]) == 0
        assert sorted(parsed) == sorted(
            [f"{s.id}.csv" for s in config.headband_sensors]
            + [f"{sid}_high.csv" for sid in config.a3g1_sensor_ids])
        for name, keep in parsed.items():
            lines = (session / name).read_text().splitlines(keepends=True)
            head = next(i for i, ln in enumerate(lines)
                        if not ln.startswith("#"))
            rows = lines[head + 1:]
            # Three windows of about 0.19 s in a 4.5 s session, and row 0.
            assert 0 in keep and len(keep) < len(rows) / 5
            for i, line in enumerate(rows):
                if i not in keep:
                    rows[i] = ",".join("x" * len(line.split(","))) + "\n"
            (session / name).write_text("".join(lines[:head + 1] + rows))
        assert main(reconstruct + [str(tmp_path / "marked")]) == 0
        assert (output_bytes(tmp_path / "marked")
                == output_bytes(tmp_path / "clean"))


    @pytest.mark.parametrize("widen", [3, 20])
    def test_the_rows_read_follow_the_cut(self, tmp_path, monkeypatch, config,
                                          widen):
        """With ``core.window_span`` widened by ``widen`` samples at both
        ends in every module that binds it, simulate, detect and reconstruct
        run on the wider cut, and the rows reconstruct parses still give the
        kinematics of ``reconstruct_pair`` on recordings parsed whole."""
        rule = core.window_span

        def wider(start, rate, t0, pre, post):
            i_first, i_last = rule(start, rate, t0, pre, post)
            return i_first - widen, i_last + widen

        bound = [module for name, module in sorted(sys.modules.items())
                 if name.startswith("kinereco")
                 and getattr(module, "window_span", None) is rule]
        assert {m.__name__ for m in bound} >= {
            "kinereco.core", "kinereco.detect", "kinereco.ingest"}
        for module in bound:
            monkeypatch.setattr(module, "window_span", wider)
        profile = standard_session_profile(seed=13, n_per_tier=2)
        profile_path = dump_profile(profile, tmp_path / "profile.json")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_json_dict(config)))
        session, events, kin = (tmp_path / "session", tmp_path / "events.csv",
                                tmp_path / "kin")
        common = ["--config", str(config_path)]
        for argv in (
                ["simulate", "--profile", str(profile_path), "--out",
                 str(session), "--seed", "3"],
                ["detect", "--in", str(session), "--out", str(events)],
                ["reconstruct", "--in", str(session), "--events", str(events),
                 "--out", str(kin)]):
            assert main(argv[:1] + common + argv[1:]) == 0, argv[0]

        whole, blocks = serial_load(config, session,
                                    pipeline.reconstruct_channels(config))
        pairs = cli._read_events_csv(events)
        assert len(pairs) == len(profile.impacts)
        for row in pairs:
            for name, layout, result in zip(
                    ("hb", "ref"), (cli._HB_SERIES, cli._REF_SERIES),
                    pipeline.reconstruct_pair(config, whole, blocks, row)):
                path = tmp_path / f"{name}_whole.csv"
                cli._write_kinematics_csv(path, result, layout, ())
                written = kin / f"{name}_ev{row.pair_id:03d}.csv"
                assert data_lines(written) == data_lines(path), written.name


def data_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("#")]


def serial_reconstruct(args) -> int:
    """``cli._cmd_reconstruct`` without ``--scalograms``, as one serial loop
    over the pairs, as it was before the pairs were split, with the rule
    that every pair runs: then the error of the earliest pair that failed
    is raised, and ``manifest.json`` is written only when every pair
    succeeded."""
    config = ingest.load_session_config(args.config)
    in_dir = Path(args.in_dir)
    manifest = RunManifest(
        subcommand="reconstruct", config_path=str(args.config),
        inputs=(str(in_dir), str(args.events)),
        params={"alpha_method": args.alpha_method,
                "scalograms": bool(args.scalograms)},
        seed=None,
    )
    pairs = cli._read_events_csv(Path(args.events))
    hb_recs, ref_blocks = serial_load(
        config, in_dir, pipeline.reconstruct_channels(config, args.alpha_method),
        pipeline.reconstruct_windows(config, pairs))
    out = ingest.output_dir(args.out)
    errors = []
    for row in pairs:
        try:
            kin, ref_kin = cli.reconstruct_pair(config, hb_recs, ref_blocks,
                                                row, args.alpha_method)
            tags = manifest.comments() + (f"pair_id={row.pair_id}",
                                          f"label={row.label}")
            cli._write_kinematics_csv(out / f"hb_ev{row.pair_id:03d}.csv",
                                      kin, cli._HB_SERIES,
                                      tags + (f"f0_hz={kin.f0:.9g}",))
            cli._write_kinematics_csv(
                out / f"ref_ev{row.pair_id:03d}.csv", ref_kin,
                cli._REF_SERIES,
                tags + (f"residual_lag_s={row.residual_lag:.9g}",))
        except Exception as exc:
            errors.append(exc)
    if errors:
        raise errors[0]
    cli._write_manifest(out / "manifest.json", manifest)
    return 0


class TestReconstructInTwoProcesses:
    """reconstruct reads its files, runs its first pair, forks and splits
    the other pairs between the two processes; the files, the exit code and
    stderr are the serial loop's, also when a pair fails."""

    @pytest.fixture(scope="class")
    def noisy(self, tmp_path_factory, config):
        """A noisy six-pair session, detected."""
        root = tmp_path_factory.mktemp("noisy")
        profile = dump_profile(standard_session_profile(
            seed=13, with_noise=True, n_per_tier=2), root / "profile.json")
        config_path = root / "config.json"
        config_path.write_text(json.dumps(config_to_json_dict(config)))
        session, events = root / "session", root / "events.csv"
        for argv in (["simulate", "--profile", str(profile), "--out",
                      str(session), "--seed", "3"],
                     ["detect", "--in", str(session), "--out", str(events)]):
            assert main(argv[:1] + ["--config", str(config_path)]
                        + argv[1:]) == 0
        assert len(cli._read_events_csv(events)) == 6
        return dict(config=config_path, session=session, events=events)

    @pytest.fixture(scope="class")
    def shares(self, noisy, tmp_path_factory):
        """The pair ids this process runs after the fork, and the child's:
        a table the child writes is never recorded here."""
        here = []
        real = cli._write_kinematics_csv

        def spy(path, *args):
            here.append(path.name)
            real(path, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_write_kinematics_csv", spy)
            assert main(self.argv(noisy, noisy["events"],
                                  tmp_path_factory.mktemp("shares"))) == 0
        ids = [row.pair_id for row in cli._read_events_csv(noisy["events"])]
        own = [i for i in ids[1:] if f"hb_ev{i:03d}.csv" in here]
        return own, [i for i in ids[1:] if i not in own]

    @staticmethod
    def argv(noisy, events, out):
        return ["reconstruct", "--config", str(noisy["config"]), "--in",
                str(noisy["session"]), "--events", str(events), "--out",
                str(out)]

    @pytest.mark.parametrize("case", ["none", "parent", "child", "first",
                                      "killed", "no_fork"])
    def test_every_outcome_is_the_serial_loops(self, noisy, shares, tmp_path,
                                               monkeypatch, capsys, forks,
                                               case):
        """No failure; a pair that fails in the parent's share, in the
        child's, and the first pair, which runs before the fork; a child
        killed by SIGKILL; and no fork at all."""
        own, theirs = shares
        assert own and theirs
        events = noisy["events"]
        failing = {"parent": own[0], "child": theirs[0], "first": 1}.get(case)
        if failing is not None:
            # No reference block covers a reference trigger at 0.5 s.
            lines = events.read_text().splitlines(keepends=True)
            at = next(i for i, ln in enumerate(lines)
                      if ln.startswith(f"{failing},reference,"))
            cells = lines[at].split(",")
            lines[at] = ",".join(cells[:2] + ["0.500000000"] + cells[3:])
            events = tmp_path / "events.csv"
            events.write_text("".join(lines))
        elif case == "killed":
            parent, real = os.getpid(), cli.reconstruct_pair

            def pair(*args):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(*args)

            monkeypatch.setattr(cli, "reconstruct_pair", pair)
        elif case == "no_fork":
            monkeypatch.delattr(os, "fork")

        def outcome(out):
            capsys.readouterr()
            code = main(self.argv(noisy, events, out))
            assert_no_child_left()
            return code, capsys.readouterr().err, output_bytes(out)

        with monkeypatch.context() as serial:
            serial.setattr(cli, "_cmd_reconstruct", serial_reconstruct)
            want = outcome(tmp_path / "serial")
        n_forks = len(forks)
        got = outcome(tmp_path / "split")
        assert got == want
        # One fork reads the session's files, and one runs the pairs.
        assert n_forks == 0 and len(forks) == 2 * (case != "no_fork")
        code, err, files = got
        if failing is None:
            assert (code, err) == (0, "") and "manifest.json" in files
        else:
            assert code == 1 and err == (
                "kinereco: error: DataError: no reference block covers "
                "t0=0.5000 s\n")
            assert "manifest.json" not in files
            assert f"hb_ev{failing:03d}.csv" not in files
            assert len(files) == 2 * 5

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="no /proc/self/task to count threads in")
    def test_fresh_reconstruct_warns_once_when_the_first_pair_fails(
            self, noisy, tmp_path):
        """Pair 1 fails before its reference kinematics, so the next pair runs
        before the fork and the child inherits the warning it prints: one
        warning, then the error line, as in one process."""
        lines = noisy["events"].read_text().splitlines(keepends=True)
        at = next(i for i, ln in enumerate(lines)
                  if ln.startswith("1,reference,"))
        cells = lines[at].split(",")
        lines[at] = ",".join(cells[:2] + ["0.500000000"] + cells[3:])
        events = tmp_path / "events.csv"
        events.write_text("".join(lines))
        runs = fresh_reconstruct_runs(noisy, events, tmp_path)
        assert runs["fork"][0] == [1, 2] and runs["serial"][0] == [1, 0]
        assert runs["fork"][1:] == runs["serial"][1:]
        err = runs["fork"][1].splitlines()
        assert len(err) == 3
        assert_one_cfc_warning(err)
        assert err[2] == ("kinereco: error: DataError: no reference block covers "
                          "t0=0.5000 s")


def serial_load(config, in_dir, channels, windows=None):
    """``ingest.load_session`` as the two serial loops, which read each file
    in this process in order, as before the reads were split: each headband
    sensor's ``parse_imu_csv`` (after its ``missing headband file`` check),
    then each reference block's ``parse_reference_csv``, in block-number
    order."""
    headband = {}
    for spec in config.headband_sensors:
        path = in_dir / ingest.session_csv(spec.id)
        if not path.exists():
            raise FormatError(f"missing headband file {path}")
        headband[spec.id] = ingest.parse_imu_csv(
            path, spec, config.column_map, channels[spec.id], windows)
    return headband, [ingest.parse_reference_csv(
        path, config.reference_sensor, config.column_map, config.window)
        for path in reference_paths(config, in_dir)]


def reference_paths(config, in_dir) -> list[Path]:
    """The main file of each reference block in ``in_dir``, in
    block-number order, found by ``ingest.reference_block``."""
    spec = config.reference_sensor
    if spec is None:
        return []
    blocks = [(block[0], path) for path in in_dir.iterdir()
              if (block := ingest.reference_block(spec, path.name))
              and block[1] == path.name]
    return [path for _, path in sorted(blocks)]


def recording_bits(loaded) -> list:
    """Every channel of the headband recordings and the reference blocks
    ``load_session`` returns: its clock and the bytes of its samples."""
    headband, blocks = loaded
    return [(rec.sensor_id, kind, ts.start_time, ts.sample_rate,
             ts.samples.shape, ts.samples.tobytes())
            for rec in [*headband.values(), *blocks]
            for kind in ingest.CHANNEL_KINDS
            if (ts := rec.channel(kind)) is not None]


def stage_reads(config, events: Path | None):
    """The channels and windows ``detect`` (no events) or ``reconstruct``
    loads."""
    if events is None:
        return pipeline.detect_channels(config), None
    return (pipeline.reconstruct_channels(config, "both"),
            pipeline.reconstruct_windows(config, cli._read_events_csv(events)))


class TestSessionReadInTwoProcesses:
    """detect and reconstruct read their session files in two processes:
    the recordings are the serial loops' bit for bit, and so is every error
    line."""

    @pytest.mark.parametrize("stage", ["detect", "reconstruct"])
    def test_the_recordings_are_the_serial_loops_bit_for_bit(
            self, bench, stage, monkeypatch, forks):
        config, session, events = bench
        channels, windows = stage_reads(
            config, events if stage == "reconstruct" else None)
        split = ingest.load_session(config, session, channels, windows)
        assert len(forks) == 1
        assert_no_child_left()
        with monkeypatch.context() as serial:
            serial.delattr(os, "fork")
            one = ingest.load_session(config, session, channels, windows)
        want = recording_bits(serial_load(config, session, channels, windows))
        assert sum(bits[0] in channels for bits in want) == sum(
            map(len, channels.values()))
        assert recording_bits(split) == want
        assert recording_bits(one) == want

    @pytest.fixture(scope="class")
    def files(self, small_pipeline, config):
        """``{stage: (files, theirs)}``: the files a stage reads, in the
        serial order, and the names of those the child reads."""
        session, out = small_pipeline["session"], {}
        for stage in ("detect", "reconstruct"):
            channels, windows = stage_reads(
                config, small_pipeline["events"] if stage == "reconstruct"
                else None)
            here, real = [], ingest.read_table
            with pytest.MonkeyPatch.context() as spy:
                spy.setattr(ingest, "read_table", lambda path, **kw: (
                    here.append(Path(path).name), real(path, **kw))[1])
                ingest.load_session(config, session, channels, windows)
            files = [args[0].name for spec in config.headband_sensors
                     for args in ingest.sensor_reads(
                         session / ingest.session_csv(spec.id), spec,
                         channels[spec.id])]
            files += [path.name for path in reference_paths(config, session)]
            out[stage] = files, [f for f in files if f not in here]
            assert out[stage][1] and len(out[stage][1]) < len(files)
        return out

    @pytest.mark.parametrize("stage", ["detect", "reconstruct"])
    def test_a_load_lists_the_directory_once_and_reads_each_file_once(
            self, small_pipeline, config, files, monkeypatch, stage):
        """In one process, so that every read is seen here: the session
        directory is listed once, and each file is read once, in the
        serial order."""
        session = small_pipeline["session"]
        channels, windows = stage_reads(
            config, small_pipeline["events"] if stage == "reconstruct"
            else None)
        listed, read = [], []
        iterdir, read_table = Path.iterdir, ingest.read_table
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(Path, "iterdir", lambda self: (
            listed.append(self), iterdir(self))[1])
        monkeypatch.setattr(ingest, "read_table", lambda path, **kw: (
            read.append(Path(path).name), read_table(path, **kw))[1])
        ingest.load_session(config, session, channels, windows)
        assert listed == [session]
        assert read == files[stage][0]

    @pytest.mark.parametrize("case", ["child", "nan", "both", "killed",
                                      "no_fork", "no_map", "missing"])
    @pytest.mark.parametrize("stage", ["detect", "reconstruct"])
    def test_every_error_line_is_the_serial_loops(
            self, small_pipeline, files, tmp_path, monkeypatch, capsys, caplog,
            forks, stage, case):
        """A bad cell in a file of the child's share; a NaN cell there, which
        parses but fails the check the child runs; bad cells in both
        shares; a child killed by SIGKILL; no ``os.fork``; ``mmap`` raising
        ``OSError``; and a headband file missing after a bad cell."""
        order, theirs = files[stage]
        session = copy_session(small_pipeline, tmp_path)
        bad = [theirs[0]]
        if case == "both":
            bad = [order[0], theirs[-1]] if order[0] not in theirs else [
                theirs[0], next(f for f in order if f not in theirs)]
        for name in bad:
            rate = 1600.0 if name.endswith("_high.csv") else 1125.0
            row = window_row(small_pipeline["events"], 1, rate)
            if name.startswith("mouthpiece"):
                row = 100
            header = next(ln for ln in (session / name).read_text().splitlines()
                          if not ln.startswith("#"))
            put_nan(session / name, header.split(",")[1], row,
                    "nan" if case == "nan" else "x")
        first = min(bad, key=order.index)
        if case == "missing":
            last = order[-1] if stage == "reconstruct" else next(
                f for f in reversed(order) if not f.startswith("mouthpiece"))
            (session / last.replace("_high", "")).unlink()
            assert order.index(first) < order.index(last)
        elif case == "killed":
            parent, real = os.getpid(), ingest.read_sensor_table

            def read(*args):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(*args)

            monkeypatch.setattr(ingest, "read_sensor_table", read)
        elif case == "no_fork":
            monkeypatch.delattr(os, "fork")
        elif case == "no_map":
            def no_memory(*args):
                raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

            monkeypatch.setattr(twoproc.mmap, "mmap", no_memory)
        argv = {"detect": ["detect", "--config", str(small_pipeline["config"]),
                           "--in", str(session), "--out"],
                "reconstruct": ["reconstruct", "--config",
                                str(small_pipeline["config"]), "--in",
                                str(session), "--events",
                                str(small_pipeline["events"]), "--out"]}[stage]

        def outcome(out):
            capsys.readouterr()
            code = main(argv + [str(out)])
            assert_no_child_left()
            return code, capsys.readouterr().err.splitlines(), out.exists()

        with monkeypatch.context() as serial:
            serial.setattr(cli, "load_session", serial_load)
            want = outcome(tmp_path / "serial")
        n_forks = len(forks)
        caplog.clear()
        code, err, written = outcome(tmp_path / "split")
        assert n_forks == 0
        assert len(forks) == (case not in ("no_fork", "no_map"))
        assert [r.getMessage() for r in caplog.records
                if r.name == "kinereco.twoproc"] == [
            "the second process exited with code "
            f"-{signal.SIGKILL.value}; this process runs the {len(theirs)} "
            "jobs it did not finish"] * (case == "killed")
        assert (code, err, written) == want
        assert code == 1 and len(err) == 1 and not written
        assert err[0].startswith(
            f"kinereco: error: DataError: {session / first}: " + (
                "NaN cell" if case == "nan" else "unparseable cell")
            + " at data row ")


def fresh_reconstruct_runs(pipeline, events, tmp_path) -> dict:
    """``{mode: ([exit code, forks], stderr, output files)}`` of a fresh
    ``python -m kinereco.cli reconstruct`` of the session in ``pipeline``
    (its config and session directory) with the pairs of ``events``, with
    ``os.fork`` (``"fork"``) and without it (``"serial"``)."""
    script = """
import json, os, runpy, sys
forks, fork = [], getattr(os, "fork", None)
if sys.argv[1] == "fork":
    os.fork = lambda: forks.append(1) or fork()
else:
    del os.fork
sys.argv[1:2] = []
try:
    runpy.run_module("kinereco.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(json.dumps([exc.code, len(forks)]))
"""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    runs = {}
    for mode in ("fork", "serial"):
        out = tmp_path / mode
        done = subprocess.run(
            [sys.executable, "-c", script, mode, "reconstruct",
             "--config", str(pipeline["config"]),
             "--in", str(pipeline["session"]),
             "--events", str(events), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300)
        runs[mode] = json.loads(done.stdout), done.stderr, output_bytes(out)
    return runs


def assert_one_cfc_warning(lines):
    assert lines[0].endswith(
        ": UserWarning: sample rate 3200 Hz is below the recommended 16500 Hz "
        "for CFC 1000; response accuracy degrades near Nyquist")
    assert lines[1].strip() == "accel = cfc_filter(accel, config.cfc.trans)"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="no /proc/self/task to count threads in")
def test_fresh_reconstruct_prints_the_serial_runs_stderr(small_pipeline,
                                                         tmp_path):
    """A fresh ``python -m kinereco.cli reconstruct`` on the small default
    session forks twice, to read the files and to run the pairs, and prints
    what one process prints: the reference's CFC low-rate warning once, with
    its source line."""
    runs = fresh_reconstruct_runs(small_pipeline, small_pipeline["events"],
                                  tmp_path)
    assert runs["fork"][0] == [0, 2] and runs["serial"][0] == [0, 0]
    assert runs["fork"][1:] == runs["serial"][1:]
    err = runs["fork"][1].splitlines()
    assert len(err) == 2
    assert_one_cfc_warning(err)


class TestStageErrors:
    """A file's content errors are reported by the stages that open it."""

    def test_gyro_nan_reported_by_reconstruct_only(self, small_pipeline,
                                                   tmp_path, capsys):
        session = copy_session(small_pipeline, tmp_path)
        events = tmp_path / "events.csv"
        detect = ["detect", "--config", str(small_pipeline["config"]),
                  "--in", str(session), "--out", str(events)]
        assert main(detect) == 0
        clean = events.read_bytes()
        row = window_row(events)
        put_nan(session / "bt_back.csv", "gy", row)
        assert main(detect) == 0
        assert events.read_bytes() == clean
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(small_pipeline["config"]),
                     "--in", str(session), "--events", str(events),
                     "--out", str(tmp_path / "kin")]) == 1
        assert single_error_line(capsys) == (
            f"kinereco: error: DataError: {session / 'bt_back.csv'}: NaN "
            f"cell at data row {row}")

    def test_gyro_inf_names_file_and_row(self, small_pipeline, tmp_path,
                                         capsys):
        session = copy_session(small_pipeline, tmp_path)
        events = tmp_path / "events.csv"
        shutil.copy(small_pipeline["events"], events)
        row = window_row(events)
        put_nan(session / "bt_back.csv", "gy", row, cell="inf")
        assert main(["reconstruct", "--config", str(small_pipeline["config"]),
                     "--in", str(session), "--events", str(events),
                     "--out", str(tmp_path / "kin")]) == 1
        assert single_error_line(capsys) == (
            f"kinereco: error: DataError: {session / 'bt_back.csv'}: infinite "
            f"cell at data row {row}")

    def test_gyro_nan_outside_every_window_passes_reconstruct(
            self, small_pipeline, tmp_path):
        """Reconstruct parses only the rows of each pair's window, so a bad
        cell elsewhere (row 100, 0.09 s, is 0.87 s before the first
        window) is not checked and changes no output byte."""
        session = copy_session(small_pipeline, tmp_path)
        reconstruct = ["reconstruct", "--config", str(small_pipeline["config"]),
                       "--in", str(session),
                       "--events", str(small_pipeline["events"]), "--out"]
        assert main(reconstruct + [str(tmp_path / "clean")]) == 0
        put_nan(session / "bt_back.csv", "gy", 100)
        assert main(reconstruct + [str(tmp_path / "nan")]) == 0
        assert output_bytes(tmp_path / "nan") == output_bytes(tmp_path / "clean")

    def test_window_past_the_file_end_reports_the_full_parse_error(
            self, small_pipeline, tmp_path, capsys):
        """A window that overruns the recording gives the WindowError of
        the recordings parsed whole."""
        config = ingest.load_session_config(small_pipeline["config"])
        session = small_pipeline["session"]
        lines = small_pipeline["events"].read_text().splitlines(keepends=True)
        last = lines[-2].split(",")
        assert last[:2] == ["3", "headband"]
        end = 5062 / 1125.0  # the last row of the 1125 Hz main files
        lines[-2] = ",".join(last[:2] + [f"{end - 0.05:.9f}"] + last[3:])
        events = tmp_path / "events.csv"
        events.write_text("".join(lines))
        row = cli._read_events_csv(events)[-1]
        whole, _ = serial_load(config, session,
                               pipeline.reconstruct_channels(config))
        with pytest.raises(WindowError) as want:
            pipeline.reconstruct_pair(config, whole, [], row)
        assert main(["reconstruct", "--config", str(small_pipeline["config"]),
                     "--in", str(session), "--events", str(events),
                     "--out", str(tmp_path / "kin")]) == 1
        assert single_error_line(capsys) == (
            f"kinereco: error: WindowError: {want.value}")

    def test_trigger_companion_nan_fails_detect(self, small_pipeline,
                                                tmp_path, capsys):
        session = copy_session(small_pipeline, tmp_path)
        put_nan(session / "bt_left_inner_high.csv", "hx")
        assert main(["detect", "--config", str(small_pipeline["config"]),
                     "--in", str(session),
                     "--out", str(tmp_path / "events.csv")]) == 1
        line = single_error_line(capsys)
        assert line.startswith("kinereco: error: DataError: ")
        assert "bt_left_inner_high.csv: NaN cell" in line

    def test_reference_window_too_short_to_filter(self, small_pipeline,
                                                  clean_profile_small,
                                                  tmp_path, capsys):
        raw = json.loads(small_pipeline["config"].read_text())
        raw["window"] = {"pre_ms": 0.001, "reference_post_ms": 0.5,
                         "headband_post_ms": 150.0}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        # Blocks cut by the default window do not match this one.
        assert main(["reconstruct", "--config", str(config_path),
                     "--in", str(small_pipeline["session"]),
                     "--events", str(small_pipeline["events"]),
                     "--out", str(tmp_path / "kin0")]) == 1
        line = single_error_line(capsys)
        assert line.startswith("kinereco: error: DataError: ")
        assert line.endswith("mouthpiece_ev001.csv: long event block "
                             "(125.00 ms > 0.94 ms)")
        # Blocks cut by this window: 1 + 2 sample periods at 3200 Hz.
        session, events = tmp_path / "session", tmp_path / "events.csv"
        profile_path = dump_profile(clean_profile_small,
                                    tmp_path / "profile.json")
        assert main(["simulate", "--profile", str(profile_path), "--config",
                     str(config_path), "--out", str(session), "--seed",
                     "5"]) == 0
        assert main(["detect", "--config", str(config_path), "--in",
                     str(session), "--out", str(events)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(config_path),
                     "--in", str(session), "--events", str(events),
                     "--out", str(tmp_path / "kin")]) == 1
        line = single_error_line(capsys)
        assert line.startswith("kinereco: error: DataError: ")
        assert "at least 10 samples" in line

    @pytest.mark.parametrize("block, entry, command, expected", [
        ("cfc", {"ang_vel": "155"}, "reconstruct",
         "ConfigError: {config}: cfc.ang_vel "),
        ("filter", {"end_time_ms": "x"}, "reconstruct",
         "ConfigError: {config}: filter.end_time_ms "),
        ("trigger", {"threshold_g": "3"}, "detect",
         "ConfigError: {config}: trigger.threshold_g "),
        ("trigger", {"threshold_g": float("nan")}, "detect",
         "ConfigError: {config}: trigger.threshold_g "),
        ("cfc", {"ang_vel": 1e-9}, "reconstruct",
         "DataError: cutoff 2.0775e-09 Hz is too low to design a filter at "
         "3200 Hz"),
        ("cfc", {"ang_vel": 5e-324}, "reconstruct",
         "DataError: cutoff 9.88131e-324 Hz is too low to design a filter at "
         "3200 Hz"),
    ], ids=["cfc_string", "filter_string", "trigger_string", "trigger_nan",
            "cfc_tiny", "cfc_subnormal"])
    def test_bad_config_number_gives_single_error_line(
            self, small_pipeline, tmp_path, capsys, block, entry, command,
            expected):
        raw = json.loads(small_pipeline["config"].read_text())
        raw[block] = {**raw.get(block, {}), **entry}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = {
            "detect": ["detect", "--config", str(config_path),
                       "--in", str(small_pipeline["session"]),
                       "--out", str(out)],
            "reconstruct": ["reconstruct", "--config", str(config_path),
                            "--in", str(small_pipeline["session"]),
                            "--events", str(small_pipeline["events"]),
                            "--out", str(out)],
        }[command]
        assert main(argv) == 1
        line = single_error_line(capsys)
        assert line.startswith(
            f"kinereco: error: {expected.format(config=config_path)}")

    @pytest.mark.parametrize("row", ["2.5 throw_in", "soon,throw_in",
                                     "2.5,header,left", "nan,throw_in",
                                     "-inf,throw_in"],
                             ids=["no_comma", "bad_time", "three_cells",
                                  "nan_time", "inf_time"])
    def test_malformed_label_row_gives_single_error_line(
            self, small_pipeline, tmp_path, capsys, row):
        session = copy_session(small_pipeline, tmp_path)
        with open(session / "labels.csv", "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        events = tmp_path / "events.csv"
        assert main(["detect", "--config", str(small_pipeline["config"]),
                     "--in", str(session), "--out", str(events)]) == 1
        line = single_error_line(capsys)
        assert line.startswith(f"kinereco: error: DataError: "
                               f"{session / 'labels.csv'}: malformed label row "
                               f"{row!r}")
        assert not events.exists()

    def test_label_header_must_be_exact(self, small_pipeline, tmp_path,
                                        capsys):
        session = copy_session(small_pipeline, tmp_path)
        labels = session / "labels.csv"
        lines = labels.read_text().splitlines(keepends=True)
        at = lines.index("time_s,label\n")
        lines[at] = "time_sX,label\n"
        labels.write_text("".join(lines))
        events = tmp_path / "events.csv"
        assert main(["detect", "--config", str(small_pipeline["config"]),
                     "--in", str(session), "--out", str(events)]) == 1
        line = single_error_line(capsys)
        assert line == (f"kinereco: error: FormatError: {labels}: expected "
                        f"'time_s,label' header")
        assert not events.exists()

    @pytest.mark.parametrize("case", ["t0_nan", "t0_inf", "offset_nan",
                                      "three_cells", "second_headband_row"])
    def test_bad_event_row_gives_single_error_line(
            self, small_pipeline, tmp_path, capsys, case):
        """Each edit of pair 1's headband row fails ``reconstruct`` with one
        DataError line naming the file and the row."""
        events = tmp_path / "events.csv"
        lines = small_pipeline["events"].read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("1,headband,"))
        cells = lines[at].split(",")
        if case == "t0_nan":
            cells[2] = "nan"
        elif case == "t0_inf":
            cells[2] = "inf"
        elif case == "offset_nan":
            cells[4] = "nan"
        elif case == "three_cells":
            cells = cells[:3]
        else:
            lines.insert(at, lines[at])
            at += 1
        lines[at] = ",".join(cells)
        events.write_text("\n".join(lines) + "\n")
        out = tmp_path / "kin"
        assert main(["reconstruct", "--config", str(small_pipeline["config"]),
                     "--in", str(small_pipeline["session"]),
                     "--events", str(events), "--out", str(out)]) == 1
        line = single_error_line(capsys)
        assert line.startswith(f"kinereco: error: DataError: {events}: "
                               f"malformed event row {lines[at]!r} (")
        assert not out.exists()

    @pytest.mark.parametrize("name, command", [
        ("labels.csv", "detect"), ("bt_back_high.csv", "detect"),
        ("events.csv", "reconstruct")])
    @pytest.mark.parametrize("where", ["first_line", "later_row"])
    def test_non_utf8_byte_gives_single_error_line(
            self, small_pipeline, tmp_path, capsys, name, command, where):
        session = copy_session(small_pipeline, tmp_path)
        events = tmp_path / "events.csv"
        shutil.copy(small_pipeline["events"], events)
        bad = events if name == "events.csv" else session / name
        lines = bad.read_bytes().splitlines(keepends=True)
        # A numeric table's first lines are decoded before np.loadtxt runs,
        # its later rows inside it.
        at = 0 if where == "first_line" else len(lines) - 1
        lines.insert(at, b"#\xff\n")
        bad.write_bytes(b"".join(lines))
        out = tmp_path / "out"
        argv = {
            "detect": ["detect", "--config", str(small_pipeline["config"]),
                       "--in", str(session), "--out", str(out)],
            "reconstruct": ["reconstruct", "--config",
                            str(small_pipeline["config"]), "--in", str(session),
                            "--events", str(events), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        line = single_error_line(capsys)
        assert line.startswith(
            f"kinereco: error: FormatError: {bad}: not UTF-8 text (")
        assert not out.exists()


class TestErrorReporting:
    def test_missing_config_gives_single_error_line(self, tmp_path, capsys):
        code = main(["detect", "--config", str(tmp_path / "nope.json"),
                     "--in", str(tmp_path), "--out", str(tmp_path / "e.csv")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: FormatError:")

    @pytest.mark.parametrize("content", [
        b'{"sensors": [', b"\xff\xfe{}",
        # Python's integer-string limit (4300 digits by default), and a
        # nesting deeper than the parser's recursion limit.
        b'{"events": ' + b"1" * 5000 + b"}", b"[" * 200_000,
    ], ids=["truncated", "not_utf8", "huge_int", "deep"])
    @pytest.mark.parametrize("bad_input", ["config", "profile", "report"])
    def test_invalid_json_gives_single_error_line(self, tmp_path, capsys,
                                                  config, bad_input, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_json_dict(config)))
        profile_path = dump_profile(
            standard_session_profile(seed=30, n_per_tier=1),
            tmp_path / "profile.json")
        out = tmp_path / "out"
        argv = {
            "config": ["simulate", "--profile", str(profile_path),
                       "--config", str(bad), "--out", str(out)],
            "profile": ["simulate", "--profile", str(bad),
                        "--config", str(config_path), "--out", str(out)],
            "report": ["report", "--in", str(bad), "--out", str(out)],
        }[bad_input]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"kinereco: error: FormatError: {bad}: invalid JSON (")
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        ("{}", "events is missing"),
        ('{"events": []}', "aggregate is missing"),
        ("[]", "the agreement report must be an object, got list"),
    ], ids=["empty", "no_aggregate", "list"])
    def test_report_without_required_key(self, tmp_path, capsys, content,
                                         message):
        report = tmp_path / "report.json"
        report.write_text(content)
        code = main(["report", "--in", str(report), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"kinereco: error: FormatError: {report}: {message}"]
        assert not (tmp_path / "t").exists()

    @staticmethod
    def rejected_report_line(tmp_path, capsys, content) -> str:
        """Run ``report`` on ``content``; it must fail with one FormatError
        line and write no table."""
        report = tmp_path / "report.json"
        report.write_text(json.dumps(content))
        code = main(["report", "--in", str(report), "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: FormatError:")
        assert not (tmp_path / "t").exists()
        return err[0]

    def test_report_with_bare_event_writes_no_table(self, tmp_path, capsys):
        line = self.rejected_report_line(
            tmp_path, capsys,
            {"events": [{"pair_id": 1, "label": "x"}], "aggregate": {}})
        assert line.endswith(": events[0].cora is missing")

    @staticmethod
    def minimal_report():
        score = {"phase": 0.9, "magnitude": 0.8, "shape": 0.7, "total": 0.8,
                 "band": "good"}
        ba = {"bias": [1.0], "mean_bias": 1.0, "sd_bias": 0.0, "loa_low": 1.0,
              "loa_high": 1.0, "normalized_bias": [0.1],
              "mean_normalized_bias": 0.1}
        return {
            "params": {"nrmse_window_s": 0.0244, "cora_max_shift_fraction": 0.2,
                       "cora_corridor_weight": 0.0},
            "n_events": 1,
            "events": [{
                "pair_id": 1, "label": "x", "f0_hz": 120.0,
                "cora": {"angular_velocity": {**score, "per_axis": {
                    "x": score, "y": score, "z": None}}},
                "peaks": {"angular_velocity": {"headband": 1.0,
                                               "reference": 2.0, "bias": -1.0}},
                "nrmse": {"angular_velocity": {"nrms_pct": 5.0, "rms_abs": 0.1,
                                               "signed_mean_pct": 1.0}},
            }],
            "aggregate": {
                "bland_altman": {"angular_velocity": ba},
                "by_label": {"x": {"angular_velocity": {
                    "n": 1, "cora_mean": 0.8, "cora_sd": 0.0,
                    "bland_altman": ba}}},
                "t_tests": {"angular_velocity": {"t": 1.0, "p": 0.5,
                                                 "significant": False}},
                "cora_stats": {"angular_velocity": {"mean": 0.8, "sd": 0.0,
                                                    "n": 1}},
            },
        }

    @pytest.mark.parametrize("path", [
        ("events", 0, "cora"),
        ("events", 0, "peaks"),
        ("events", 0, "nrmse"),
        ("events", 0, "label"),
        ("events", 0, "cora", "angular_velocity", "band"),
        ("events", 0, "nrmse", "angular_velocity", "rms_abs"),
        ("aggregate", "bland_altman"),
        ("aggregate", "bland_altman", "angular_velocity", "bias"),
        ("aggregate", "by_label"),
        ("aggregate", "by_label", "x", "angular_velocity", "n"),
        ("aggregate", "t_tests"),
        ("aggregate", "t_tests", "angular_velocity", "significant"),
    ], ids=lambda path: "-".join(map(str, path)))
    def test_report_missing_nested_key(self, tmp_path, capsys, path):
        content = self.minimal_report()
        parent = content
        for step in path[:-1]:
            parent = parent[step]
        del parent[path[-1]]
        line = self.rejected_report_line(tmp_path, capsys, content)
        field = "".join(f"[{key}]" if type(key) is int else f".{key}"
                        for key in path).lstrip(".")
        assert line.endswith(f": {field} is missing")

    @pytest.mark.parametrize("path, value", [
        (("events", 0, "cora"), []),
        (("events", 0, "peaks", "angular_velocity", "bias"), "big"),
        (("events", 0), "not an event"),
        (("aggregate", "t_tests", "angular_velocity", "t"), None),
        (("aggregate", "t_tests", "angular_velocity", "significant"), "false"),
        (("aggregate", "cora_stats", "angular_velocity", "n"), 1.0),
        (("events", 0, "peaks", "omega"), {}),
    ], ids=["cora_list", "bias_text", "event_text", "t_null",
            "significant_text", "n_float", "unknown_quantity"])
    def test_report_wrong_type_writes_no_table(self, tmp_path, capsys, path,
                                               value):
        content = self.minimal_report()
        parent = content
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        self.rejected_report_line(tmp_path, capsys, content)

    def test_minimal_report_writes_every_table(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(self.minimal_report()))
        assert main(["report", "--in", str(report),
                     "--out", str(tmp_path / "t")]) == 0
        assert (tmp_path / "t" / "ttests.csv").read_text().splitlines()[1:] == [
            "quantity,t,p,significant",
            "angular_velocity,1.000000,0.5,false"]

    def test_profile_burst_without_tones_gives_single_error_line(
            self, tmp_path, capsys, config):
        profile = standard_session_profile(seed=30, with_noise=True,
                                           n_per_tier=1)
        profile_path = dump_profile(profile, tmp_path / "profile.json")
        raw = json.loads(profile_path.read_text())
        raw["noise"]["burst"]["n_tones"] = 0
        profile_path.write_text(json.dumps(raw))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_json_dict(config)))
        code = main(["simulate", "--profile", str(profile_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "session")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: DataError:")
        assert "n_tones" in err[0]

    @pytest.mark.parametrize("key, field, value", [
        ("omega_components", "amplitude", float("nan")),
        ("q_components", "freq_hz", float("inf")),
        ("omega_components", "phase", float("nan")),
        ("q_components", "center_s", float("-inf")),
        ("omega_components", "width_s", 0.0),
        ("q_components", "width_s", -0.01),
        ("omega_components", "width_s", float("nan")),
    ], ids=["amplitude_nan", "freq_hz_inf", "phase_nan", "center_s_neg_inf",
            "width_s_zero", "width_s_neg", "width_s_nan"])
    def test_profile_bad_motion_component_gives_single_error_line(
            self, tmp_path, capsys, config, key, field, value):
        profile_path = dump_profile(
            standard_session_profile(seed=30, with_noise=False, n_per_tier=1),
            tmp_path / "profile.json")
        raw = json.loads(profile_path.read_text())
        axis = raw[key][1]
        axis[-1][field] = value
        profile_path.write_text(json.dumps(raw))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_json_dict(config)))
        code = self.main_without_warnings([
            "simulate", "--profile", str(profile_path),
            "--config", str(config_path), "--out", str(tmp_path / "session")])
        assert code == 1
        line = single_error_line(capsys)
        assert line.startswith(
            f"kinereco: error: FormatError: {profile_path}: "
            f"{key}[1][{len(axis) - 1}].{field} must be ")
        assert not (tmp_path / "session").exists()

    def test_evaluate_names_the_pair_of_a_degenerate_reference(
            self, small_pipeline, tmp_path, capsys):
        """Pair 2's reference angular velocity is all zeros: the error names
        the pair and the quantity, and no report is written."""
        ref = tmp_path / "ref"
        shutil.copytree(small_pipeline["kin"], ref)
        path = ref / "ref_ev002.csv"
        lines = path.read_text().splitlines(keepends=True)
        n_comments = sum(line.startswith("#") for line in lines)
        names = lines[n_comments].rstrip("\n").split(",")
        zeroed = [names.index(f"omega_{ax}") for ax in "xyz"]
        for i in range(n_comments + 1, len(lines)):
            cells = lines[i].rstrip("\n").split(",")
            for k in zeroed:
                cells[k] = "0"
            lines[i] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        out = tmp_path / "report.json"
        assert main(["evaluate", "--config", str(small_pipeline["config"]),
                     "--hb", str(small_pipeline["kin"]), "--ref", str(ref),
                     "--pairs", str(small_pipeline["events"]),
                     "--out", str(out)]) == 1
        assert single_error_line(capsys) == (
            "kinereco: error: DegenerateSignalError: pair 2 angular_velocity: "
            "zero-variance reference curve")
        assert not out.exists()

    @staticmethod
    def broken_kinematics(small_pipeline, tmp_path, case) -> Path:
        """A copy of the headband kinematics with hb_ev001.csv broken."""
        src = small_pipeline["kin"] / "hb_ev001.csv"
        lines = src.read_text().splitlines(keepends=True)
        n_comments = sum(line.startswith("#") for line in lines)
        if case == "no_t_s":
            lines[n_comments] = lines[n_comments].replace("t_s,", "time,", 1)
        elif case == "bad_cell":
            lines[n_comments + 3] = "abc" + lines[n_comments + 3][
                lines[n_comments + 3].index(","):]
        elif case == "one_row":
            lines = lines[:n_comments + 2]
        elif case == "no_rows":
            lines = lines[:n_comments + 1]
        elif case == "t_s_gap":
            lines = lines[:n_comments + 50] + lines[n_comments + 70:]
        elif case == "t_s_steps_back":
            # Swap the t_s cells of two adjacent rows: the median step stays
            # positive, but one step is negative.
            i, j = n_comments + 3, n_comments + 4
            ti, ri = lines[i].split(",", 1)
            tj, rj = lines[j].split(",", 1)
            lines[i], lines[j] = f"{tj},{ri}", f"{ti},{rj}"
        bad = tmp_path / "hb"
        bad.mkdir()
        (bad / "hb_ev001.csv").write_text("".join(lines))
        return bad

    BROKEN = pytest.mark.parametrize("case, error", [
        ("no_t_s", "FormatError: {path}: missing column 't_s'"),
        ("bad_cell", "DataError: {path}: unparseable cell"),
        ("one_row", "DataError: {path}: kinematics tables need at least 2 rows"),
        ("no_rows", "DataError: {path}: no data rows"),
        ("t_s_steps_back", "DataError: {path}: column 't_s' does not increase"),
        ("t_s_gap", "DataError: {path}: non-uniform sampling at data row "),
    ], ids=["no_t_s", "bad_cell", "one_row", "no_rows", "t_s_steps_back",
            "t_s_gap"])

    @staticmethod
    def main_without_warnings(argv) -> int:
        """``main`` with every warning raised as an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(argv)

    @BROKEN
    def test_evaluate_bad_kinematics_gives_single_error_line(
            self, small_pipeline, tmp_path, capsys, case, error):
        bad = self.broken_kinematics(small_pipeline, tmp_path, case)
        out = tmp_path / "report.json"
        code = self.main_without_warnings([
            "evaluate", "--config", str(small_pipeline["config"]),
            "--hb", str(bad), "--ref", str(small_pipeline["kin"]),
            "--pairs", str(small_pipeline["events"]), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: " + error.format(
            path=bad / "hb_ev001.csv"))
        assert not out.exists()

    @BROKEN
    def test_report_bad_kinematics_writes_no_table(
            self, small_pipeline, tmp_path, capsys, case, error):
        bad = self.broken_kinematics(small_pipeline, tmp_path, case)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(self.minimal_report()))
        code = self.main_without_warnings([
            "report", "--in", str(report), "--out", str(tmp_path / "t"),
            "--hb", str(bad), "--ref", str(small_pipeline["kin"])])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: " + error.format(
            path=bad / "hb_ev001.csv"))
        assert not (tmp_path / "t").exists()

    @pytest.fixture
    def stage_argv(self, small_pipeline, clean_profile_small, tmp_path):
        profile = dump_profile(clean_profile_small, tmp_path / "profile.json")
        config = str(small_pipeline["config"])
        return lambda stage, out: {
            "simulate": ["simulate", "--profile", str(profile),
                         "--config", config, "--out", str(out)],
            "reconstruct": ["reconstruct", "--config", config,
                            "--in", str(small_pipeline["session"]),
                            "--events", str(small_pipeline["events"]),
                            "--out", str(out)],
        }[stage]

    @pytest.mark.parametrize("stage", ["simulate", "reconstruct"])
    def test_file_in_the_way_of_the_output_gives_single_error_line(
            self, tmp_path, capsys, stage_argv, stage):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "out"
        assert main(stage_argv(stage, out)) == 1
        assert single_error_line(capsys) == (
            f"kinereco: error: FormatError: cannot write {out}: [Errno 20] "
            f"Not a directory: '{out}'")

    def test_write_error_in_the_second_process_gives_single_error_line(
            self, tmp_path, capsys, monkeypatch, stage_argv):
        """A file of the child's share fails in both processes: the child
        exits non-zero, this process writes the share again, and the error
        is the serial loop's."""
        written = []

        def spy(path, mode="r", *args, **kwargs):
            if "w" in mode:
                written.append(Path(path).name)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(ingest, "open", spy, raising=False)
        out = tmp_path / "session"
        assert main(stage_argv("simulate", out)) == 0
        # The files this process did not open are the child's share.
        failing = out / min({p.name for p in out.glob("*.csv")} - set(written))

        def full_disk(path, mode="r", *args, **kwargs):
            if "w" in mode and Path(path) == failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(ingest, "open", full_disk, raising=False)
        shutil.rmtree(out)
        capsys.readouterr()
        assert main(stage_argv("simulate", out)) == 1
        assert single_error_line(capsys) == (
            f"kinereco: error: FormatError: cannot write {failing}: "
            f"[Errno 28] No space left on device: '{failing}'")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_write_error_only_in_the_second_process_is_repaired(
            self, tmp_path, monkeypatch, stage_argv):
        """Every write of the child fails: it records each failure and exits
        0, and this process writes the child's share itself, with no
        warning: the child was not killed."""
        with monkeypatch.context() as serial:
            serial.delattr(os, "fork")
            assert main(stage_argv("simulate", tmp_path / "serial")) == 0
        parent = os.getpid()

        def full_disk(path, mode="r", *args, **kwargs):
            if os.getpid() != parent and "w" in mode:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(ingest, "open", full_disk, raising=False)
        # Written by either process, at once, to one file.
        handler = logging.FileHandler(tmp_path / "log.txt")
        handler.setFormatter(logging.Formatter(
            "%(process)d %(levelname)s %(name)s"))
        logging.getLogger().addHandler(handler)
        try:
            code = main(stage_argv("simulate", tmp_path / "session"))
        finally:
            logging.getLogger().removeHandler(handler)
            handler.close()
        assert code == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert (tmp_path / "log.txt").read_text() == ""
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert sorted(p.name for p in (tmp_path / "session").iterdir()) == names
        for name in names:
            assert (tmp_path / "session" / name).read_bytes() == (
                tmp_path / "serial" / name).read_bytes(), name

    def test_read_error_after_the_open_gives_single_io_error_line(
            self, tmp_path, capsys, monkeypatch, stage_argv):
        events = None

        def failing(path, *args, **kwargs):
            nonlocal events
            events = path
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(path))

        monkeypatch.setattr(cli, "read_table", failing)
        assert main(stage_argv("reconstruct", tmp_path / "kin")) == 1
        assert single_error_line(capsys) == (
            f"kinereco: error: FormatError: I/O error: [Errno 5] "
            f"Input/output error: '{events}'")

    def test_missing_events_file_gives_single_error_line(self, tmp_path,
                                                         capsys, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_json_dict(config)))
        code = main(["reconstruct", "--config", str(config_path),
                     "--in", str(tmp_path), "--events", str(tmp_path / "no.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: FormatError: cannot open")

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
        ["evaluate", "--config", "c.json", "--hb", "kin", "--ref", "kin",
         "--pairs", "events.csv", "--out", "report.json", "--nrmse-window", "0"],
        ["evaluate", "--config", "c.json", "--hb", "kin", "--ref", "kin",
         "--pairs", "events.csv", "--out", "report.json",
         "--max-shift-fraction", "-1"],
        ["detect", "--config", "c.json", "--in", "session",
         "--out", "events.csv", "--max-offset", "0"],
        ["detect", "--config", "c.json", "--in", "session",
         "--out", "events.csv", "--max-offset", "-1"],
    ], ids=["nrmse_window_0", "max_shift_fraction_neg",
            "max_offset_0", "max_offset_neg"])
    def test_nonpositive_value_gives_single_error_line(self, argv, capsys):
        code = main(argv)
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        flag = argv[-2]
        assert err[0].startswith("kinereco: error: ConfigError: " + flag)

    @pytest.mark.parametrize("flag", ["--nrmse-window", "--max-shift-fraction",
                                      "--max-offset"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_gives_single_error_line(self, flag, value, capsys):
        if flag == "--max-offset":
            command = ["detect", "--config", "c.json", "--in", "session",
                       "--out", "events.csv"]
        else:
            command = ["evaluate", "--config", "c.json", "--hb", "kin",
                       "--ref", "kin", "--pairs", "events.csv",
                       "--out", "report.json"]
        code = main(command + [f"{flag}={value}"])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: ConfigError: " + flag)

    @pytest.mark.parametrize("argv, needle", [
        (["reconstruct", "--config", "c.json", "--in", "session",
          "--events", "events.csv", "--out", "kin", "--workers", "2"],
         "unrecognized arguments: --workers 2"),
        (["detect", "--config", "c.json", "--in", "session"],
         "required: --out"),
        (["reconstruct", "--config", "c.json", "--in", "session",
          "--events", "events.csv", "--out", "kin", "--alpha-method", "fast"],
         "argument --alpha-method: invalid choice: 'fast'"),
        (["simulate", "--profile", "p.json", "--config", "c.json",
          "--out", "session", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        ([], "required: subcommand"),
    ], ids=["unknown_flag", "missing_required", "bad_choice", "bad_int",
            "no_subcommand"])
    def test_usage_error_gives_single_error_line(self, argv, needle, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("kinereco: error: ConfigError: ")
        assert needle in err[0]

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestReferenceBlockNames:
    """``detect`` and ``reconstruct`` read the reference blocks by the names
    ``simulate`` gives them: each ``<ref_id>_ev<digits>.csv``, the id taken
    literally, in block-number order."""

    @pytest.mark.parametrize("old, new", [
        ("mouthpiece", "mouthpiece"), ("mouthpiece", "mp[1]"),
        ("mouthpiece", "mp*"), ("bt_back", "mouthpiece_evx"),
    ], ids=["bundled", "brackets", "star", "headband_after_the_prefix"])
    def test_simulate_then_detect(self, tmp_path, small_pipeline,
                                  clean_profile_small, old, new):
        raw = json.loads(small_pipeline["config"].read_text())
        next(s for s in raw["sensors"] if s["id"] == old)["id"] = new
        raw["a3g1_sensors"] = [new if s == old else s
                               for s in raw["a3g1_sensors"]]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        profile = dump_profile(clean_profile_small, tmp_path / "profile.json")
        session, events = tmp_path / "session", tmp_path / "events.csv"
        assert main(["simulate", "--profile", str(profile), "--config",
                     str(config), "--out", str(session)]) == 0
        assert main(["detect", "--config", str(config), "--in", str(session),
                     "--out", str(events)]) == 0
        assert events.read_text().count(",reference,") == 3

    def test_block_number_order(self, tmp_path, small_pipeline, config):
        """Blocks 999, 1000 and 1001 are read in that order, which is not
        the order of their names."""
        session = tmp_path / "session"
        shutil.copytree(small_pipeline["session"], session)
        for k, new in ((1, 999), (2, 1000), (3, 1001)):
            (session / f"mouthpiece_ev{k:03d}.csv").rename(
                session / f"mouthpiece_ev{new}.csv")
        assert sorted(p.name for p in session.glob("mouthpiece_*")) == [
            "mouthpiece_ev1000.csv", "mouthpiece_ev1001.csv",
            "mouthpiece_ev999.csv"]
        assert [p.name for p in ingest.reference_files(config, session)] == [
            "mouthpiece_ev999.csv", "mouthpiece_ev1000.csv",
            "mouthpiece_ev1001.csv"]
        starts = [b.gyro.start_time for b in ingest.load_session(
            config, session, pipeline.detect_channels(config))[1]]
        assert len(starts) == 3 and starts == sorted(starts)

    @pytest.mark.parametrize("before", [None, "missing_headband", "bad_cell"])
    @pytest.mark.parametrize("stage", ["detect", "reconstruct"])
    def test_a_block_number_held_by_two_files_is_one_error(
            self, tmp_path, small_pipeline, config, capsys, stage, before):
        """A copy of block 2 named ``mouthpiece_ev2.csv`` is one FormatError
        (before, detect read the block twice and wrote an extra unpaired
        event).  It is raised in the blocks' turn, so a missing headband
        file or a bad headband cell comes first."""
        session = copy_session(small_pipeline, tmp_path)
        shutil.copyfile(session / "mouthpiece_ev002.csv",
                        session / "mouthpiece_ev2.csv")
        high = session / f"{config.a3g1_sensor_ids[0]}_high.csv"
        want = (f"FormatError: {session}: mouthpiece_ev002.csv and "
                "mouthpiece_ev2.csv are both block 2 of sensor 'mouthpiece'")
        if before == "missing_headband":
            (session / "bt_back.csv").unlink()
            want = f"FormatError: missing headband file {session / 'bt_back.csv'}"
        elif before == "bad_cell":
            put_nan(high, "hx", window_row(small_pipeline["events"], 1, 1600.0),
                    "x")
            want = f"DataError: {high}: unparseable cell at data row "
        out = tmp_path / "out"
        argv = {"detect": ["detect", "--out", str(out / "events.csv")],
                "reconstruct": ["reconstruct", "--events",
                                str(small_pipeline["events"]), "--out",
                                str(out)]}[stage]
        assert main(argv[:1] + ["--config", str(small_pipeline["config"]),
                                "--in", str(session)] + argv[1:]) == 1
        assert single_error_line(capsys).startswith(f"kinereco: error: {want}")
        assert not out.exists()
