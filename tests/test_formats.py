"""Every file format has one writer: the events, report and JSON outputs
written through it carry the bytes of the hand-written serializers they
replaced, copied here as the oracle.  The sensor CSVs are written and read
through one file layout, checked against the writer and reader that each
decided it on their own."""

import itertools
import json
from dataclasses import fields, replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from kinereco.cli import RunManifest, _load_comparisons, _write_events_csv, main
from kinereco.core import TimeSeries3
from kinereco.evaluate import (AgreementReport, bland_altman,
                               build_agreement_report, load_report,
                               peak_resultant)
from kinereco.errors import ConfigError, DataError, FormatError
from kinereco.ingest import (_DEG2RAD, CHANNEL_KINDS, G_STANDARD, Block,
                             ChannelSpec, ImuRecording, ListOf, MapOf,
                             Nullable, SensorSpec, SessionConfig, _check_overlap,
                             _column_indices, imu_csv_files,
                             load_session_config, parse_imu_csv, read_table,
                             table_clock, to_json, write_imu_csv, write_json,
                             write_table)
from kinereco.pipeline import PairRow
from kinereco.synth import (BurstSpec, HarmonicComponent, MotionProfile,
                            NoiseSpec, PlannedImpact, SessionProfile,
                            config_to_json_dict, dump_profile, load_profile,
                            standard_session_profile)

from conftest import write_recording

MANIFEST = RunManifest(subcommand="detect", config_path="c.json",
                       inputs=("session",), params={"max_offset_s": 0.5},
                       seed=None)


# ---------------------------------------------------------------------------
# events.csv


def _old_write_events_csv(path, pairs, unpaired, manifest):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for comment in manifest.comments():
            fh.write(f"# {comment}\n")
        fh.write("pair_id,source,t0_s,label,offset_s\n")
        for row in pairs:
            fh.write(f"{row.pair_id},headband,{row.t0_headband:.9f},"
                     f"{row.label},{row.offset:.9f}\n")
            fh.write(f"{row.pair_id},reference,{row.t0_reference:.9f},"
                     f"{row.label},\n")
        for source, t0, label in unpaired:
            fh.write(f",{source},{t0:.9f},{label},\n")


PAIRS = [
    PairRow(1, "throw_in", 1.0000000004, 0.98, 0.0200000004),
    PairRow(2, "", 2.5, 2.5, 0.0),
    PairRow(3, "corner_kick", np.float64(12.123456789123), 12.14,
            np.float64(-0.016543210987)),
]
UNPAIRED = [("headband", 7.25, "goal_kick"),
            ("reference", np.float64(9.0000000005), "")]


@pytest.mark.parametrize("pairs, unpaired", [
    (PAIRS, UNPAIRED), (PAIRS, []), ([], UNPAIRED), ([], []),
], ids=["pairs_and_unpaired", "pairs_only", "unpaired_only", "header_only"])
def test_events_csv_bytes(tmp_path, pairs, unpaired):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    _write_events_csv(new, pairs, unpaired, MANIFEST)
    _old_write_events_csv(old, pairs, unpaired, MANIFEST)
    assert new.read_bytes() == old.read_bytes()


# ---------------------------------------------------------------------------
# report tables


def _old_report_tables(events, agg):
    cora = ["pair_id,label,quantity,phase,magnitude,shape,total,band"]
    peaks = ["pair_id,label,quantity,headband,reference,bias"]
    nrmse = ["pair_id,label,quantity,nrms_pct,rms_abs,signed_mean_pct"]
    for ev in events:
        pair = f"{ev['pair_id']},{ev['label']}"
        for quantity, score in sorted(ev["cora"].items()):
            cora.append(f"{pair},{quantity},"
                        f"{score['phase']:.6f},{score['magnitude']:.6f},"
                        f"{score['shape']:.6f},{score['total']:.6f},"
                        f"{score['band']}")
        for quantity, peak in sorted(ev["peaks"].items()):
            peaks.append(f"{pair},{quantity},"
                         f"{peak['headband']:.9g},{peak['reference']:.9g},"
                         f"{peak['bias']:.9g}")
        for quantity, entry in sorted(ev["nrmse"].items()):
            nrmse.append(f"{pair},{quantity},"
                         f"{entry['nrms_pct']:.6f},{entry['rms_abs']:.9g},"
                         f"{entry['signed_mean_pct']:.6f}")

    bland_altman_rows = ["scope,quantity,n,mean_bias,sd_bias,loa_low,loa_high,"
                         "mean_normalized_bias"]
    for quantity, ba in sorted(agg["bland_altman"].items()):
        bland_altman_rows.append(
            f"all,{quantity},{len(ba['bias'])},{ba['mean_bias']:.9g},"
            f"{ba['sd_bias']:.9g},{ba['loa_low']:.9g},"
            f"{ba['loa_high']:.9g},{ba['mean_normalized_bias']:.9g}")
    for label, group in sorted(agg["by_label"].items()):
        for quantity, entry in sorted(group.items()):
            ba = entry.get("bland_altman")
            if ba is None:
                continue
            bland_altman_rows.append(
                f"{label},{quantity},{entry['n']},"
                f"{ba['mean_bias']:.9g},{ba['sd_bias']:.9g},"
                f"{ba['loa_low']:.9g},{ba['loa_high']:.9g},"
                f"{ba['mean_normalized_bias']:.9g}")

    ttests = ["quantity,t,p,significant"]
    for quantity, entry in sorted(agg["t_tests"].items()):
        if entry is None:
            ttests.append(f"{quantity},,,")
        else:
            ttests.append(f"{quantity},{entry['t']:.6f},{entry['p']:.6g},"
                          f"{str(entry['significant']).lower()}")
    return {"cora.csv": cora, "peaks.csv": peaks, "nrmse.csv": nrmse,
            "bland_altman.csv": bland_altman_rows, "ttests.csv": ttests}


def _old_write_report(out, report):
    out.mkdir(parents=True)
    comment = f"manifest_sha256={report.get('manifest_sha256', 'unknown')}"
    for name, lines in _old_report_tables(report["events"],
                                          report["aggregate"]).items():
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {comment}\n")
            fh.writelines(line + "\n" for line in lines)


#: The ``params`` block ``evaluate`` writes at its default flags.
PARAMS = {"nrmse_window_s": 0.0244, "cora_max_shift_fraction": 0.2,
          "cora_corridor_weight": 0.0}


def _minimal_report(t_test, by_label):
    score = {"phase": 0.9, "magnitude": 0.8, "shape": 0.7, "total": 0.8,
             "band": "good"}
    return {
        "params": PARAMS, "n_events": 1,
        "events": [{
            "pair_id": 1, "label": "x", "f0_hz": 120.0,
            "cora": {"angular_velocity": {**score, "per_axis": {
                "x": score, "y": None, "z": score}}},
            "peaks": {"angular_velocity": {"headband": 1.0, "reference": 2.0,
                                           "bias": -1.0}},
            "nrmse": {"angular_velocity": {"nrms_pct": 5.0, "rms_abs": 0.1,
                                           "signed_mean_pct": 1.0}},
        }],
        "aggregate": {"bland_altman": {}, "by_label": by_label,
                      "t_tests": {"angular_velocity": t_test},
                      "cora_stats": {"angular_velocity": {
                          "mean": 0.8, "sd": 0.0, "n": 1}}},
    }


@pytest.fixture(scope="module")
def session_report(small_pipeline):
    """The small session's agreement report, with two events sharing a label
    so that ``by_label`` carries a Bland-Altman row."""
    events = _load_comparisons(small_pipeline["kin"], small_pipeline["kin"],
                               {1: "a", 2: "a", 3: "b"})
    return replace(build_agreement_report(events), manifest_sha256="0" * 64)


@pytest.mark.parametrize("case", [
    "null_t_test", "empty_by_label", "no_rows", "session"])
def test_report_table_bytes(tmp_path, case, session_report):
    report = {
        "null_t_test": _minimal_report(None, {"x": {"angular_velocity": {
            "n": 1, "cora_mean": 0.8, "cora_sd": 0.0}}}),
        "empty_by_label": _minimal_report(
            {"t": -2.5, "p": 0.0312345678, "significant": True}, {}),
        "no_rows": {"params": PARAMS, "n_events": 0, "events": [],
                    "aggregate": {"bland_altman": {}, "by_label": {},
                                  "t_tests": {}, "cora_stats": {}}},
        "session": to_json(session_report),
    }[case]
    path = tmp_path / "report.json"
    write_json(path, report)
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "new")]) == 0
    _old_write_report(tmp_path / "old", json.loads(path.read_text()))
    names = sorted(p.name for p in (tmp_path / "old").iterdir())
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == names
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "old" / name).read_bytes(), name
    if case == "null_t_test":
        assert (tmp_path / "new" / "ttests.csv").read_text().splitlines()[-1] \
            == "angular_velocity,,,"
    if case == "session":
        scopes = [line.split(",", 1)[0] for line in
                  (tmp_path / "new" / "bland_altman.csv").read_text().splitlines()]
        assert "a" in scopes and "b" not in scopes
        # A label of one event has no Bland-Altman block: absent, not null.
        assert "bland_altman" not in report["aggregate"]["by_label"]["b"][
            "angular_velocity"]


# ---------------------------------------------------------------------------
# JSON builders


def _old_ba_to_dict(report):
    return {
        "bias": [float(b) for b in report.bias],
        "mean_bias": report.mean_bias,
        "sd_bias": report.sd_bias,
        "loa_low": report.loa_low,
        "loa_high": report.loa_high,
        "normalized_bias": [float(b) for b in report.normalized_bias],
        "mean_normalized_bias": report.mean_normalized_bias,
    }


def _old_component_to_json(c):
    return {"amplitude": c.amplitude, "freq_hz": c.freq_hz, "phase": c.phase,
            "center_s": c.center_s, "width_s": c.width_s}


def _old_profile_to_json_dict(profile):
    return {
        "duration_s": profile.duration_s,
        "gravity": list(profile.gravity),
        "reference_clock_offset_s": profile.reference_clock_offset_s,
        "impacts": [{"time_s": i.time_s, "label": i.label}
                    for i in profile.impacts],
        "noise": {
            "gyro_sigma": profile.noise.gyro_sigma,
            "accel_sigma": profile.noise.accel_sigma,
            "per_sensor_scale": dict(profile.noise.per_sensor_scale),
            "burst": {
                "gyro_amplitude": profile.noise.burst.gyro_amplitude,
                "accel_amplitude": profile.noise.burst.accel_amplitude,
                "center_hz": profile.noise.burst.center_hz,
                "bandwidth_hz": profile.noise.burst.bandwidth_hz,
                "duration_s": profile.noise.burst.duration_s,
                "n_tones": profile.noise.burst.n_tones,
            },
        },
        "omega_components": [[_old_component_to_json(c) for c in axis]
                             for axis in profile.motion.omega_components],
        "q_components": [[_old_component_to_json(c) for c in axis]
                         for axis in profile.motion.q_components],
    }


def _old_config_to_json_dict(config):
    return {
        "name": config.name,
        "reference_point_m": [float(x) for x in config.reference_point],
        "a3g1_sensors": list(config.a3g1_sensor_ids),
        "a3g1_channel": config.a3g1_channel,
        "a3g1_gyro": config.a3g1_gyro,
        "trigger": {"threshold_g": config.trigger.threshold_g,
                    "min_duration_ms": config.trigger.min_duration_ms},
        "filter": {
            "end_time_ms": config.filter.end_time_ms,
            "reference_end_time_ms": config.filter.reference_end_time_ms,
            "coeff_threshold": config.filter.coeff_threshold,
            "max_cutoff_hz": config.filter.max_cutoff_hz,
            "accel_prefilter_hz": config.filter.accel_prefilter_hz,
        },
        "cfc": {"trans": config.cfc.trans, "ang_vel": config.cfc.ang_vel},
        "window": {
            "pre_ms": config.window.pre_ms,
            "headband_post_ms": config.window.headband_post_ms,
            "reference_post_ms": config.window.reference_post_ms,
        },
        "column_map": config.column_map,
        "sensors": [
            {
                "id": s.id,
                "role": s.role,
                "position_m": [float(x) for x in s.position],
                "orientation_row_major": [float(x) for x in s.orientation.ravel()],
                "channels": {
                    c.kind: {"rate_hz": c.rate, "range": c.range_label}
                    for c in s.channels
                },
            }
            for s in config.sensors
        ],
    }


def _json_text(payload) -> str:
    """The text ``write_json`` writes; tells 600 from 600.0, unlike ==."""
    return json.dumps(payload, indent=2, sort_keys=True)


def test_bland_altman_dict():
    report = bland_altman([1.5, 2.25, -0.5, 3.0], [1.0, 2.0, 0.25, 2.5])
    new, old = to_json(report), _old_ba_to_dict(report)
    assert new == old
    assert _json_text(new) == _json_text(old)


def _bundled_config_path():
    return files("kinereco") / "profiles" / "field_config.json"


def _config_raw(case):
    raw = json.loads(_bundled_config_path().read_text())
    if case == "non_default_blocks":
        raw.update(
            cfc={"trans": 600, "ang_vel": 100},
            trigger={"threshold_g": 5, "min_duration_ms": 2.5},
            filter={"end_time_ms": 140.0, "reference_end_time_ms": 85,
                    "coeff_threshold": 0.2, "max_cutoff_hz": 150,
                    "accel_prefilter_hz": 240.0},
            window={"pre_ms": 30, "headband_post_ms": 140.0,
                    "reference_post_ms": 90.0},
            column_map={"gx": "GyroX"},
            a3g1_channel="accel_low", a3g1_gyro="bt_back")
    return raw


@pytest.mark.parametrize("case", ["bundled", "non_default_blocks"])
def test_config_json_dict(tmp_path, case):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_raw(case)))
    config = load_session_config(path)
    new, old = config_to_json_dict(config), _old_config_to_json_dict(config)
    assert new == old
    assert _json_text(new) == _json_text(old)
    if case == "non_default_blocks":
        assert [type(v) for v in new["cfc"].values()] == [int, int]


def _custom_profile():
    return SessionProfile(
        motion=MotionProfile(
            omega_components=((HarmonicComponent(2, 10),),
                              (HarmonicComponent(0.5, 30.0, 0.25, 1.2, 0.05),),
                              ()),
            q_components=((), (), (HarmonicComponent(-40.0, 0.0, 1.5, 1.0,
                                                     0.004),))),
        impacts=(PlannedImpact(1.0, "header"), PlannedImpact(2, "")),
        duration_s=3,
        noise=NoiseSpec(gyro_sigma=0.01, accel_sigma=0,
                        burst=BurstSpec(1.0, 10.0, 250.0, 100.0, 0.02, 4),
                        per_sensor_scale={"bt_back": 1.5, "bt_left_outer": 2}),
        gravity=(0.0, 0.0, -9.81),
        reference_clock_offset_s=0.02)


@pytest.mark.parametrize("case", ["bundled", "bundled_clean", "generated",
                                  "custom"])
def test_profile_json_dict(case):
    profiles = files("kinereco") / "profiles"
    profile = {
        "bundled": lambda: load_profile(profiles / "field_session_18.json"),
        "bundled_clean": lambda: load_profile(
            profiles / "field_session_18_clean.json"),
        "generated": lambda: standard_session_profile(seed=3, n_per_tier=2),
        "custom": _custom_profile,
    }[case]()
    new, old = to_json(profile), _old_profile_to_json_dict(profile)
    assert new == old
    assert _json_text(new) == _json_text(old)


#: The inputs dumped both ways: the bundled ones, perfbench's generated
#: sparse6 and export6 profiles (as ``perfbench/workloads.py`` makes them)
#: and the hand-made ones above.
ROUND_TRIP = {
    "field18": lambda tmp: load_profile(
        files("kinereco") / "profiles" / "field_session_18.json"),
    "field18_clean": lambda tmp: load_profile(
        files("kinereco") / "profiles" / "field_session_18_clean.json"),
    "sparse6": lambda tmp: standard_session_profile(7, n_per_tier=2,
                                                    spacing_s=6.0),
    "export6": lambda tmp: standard_session_profile(7, n_per_tier=2,
                                                    with_noise=False),
    "custom": lambda tmp: _custom_profile(),
    "field_config": lambda tmp: load_session_config(_bundled_config_path()),
    "non_default_blocks": lambda tmp: load_session_config(_written(
        tmp / "raw.json", _config_raw("non_default_blocks"))),
}


def _written(path, raw):
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("case", sorted([*ROUND_TRIP, "session_report"]))
def test_load_of_a_dump_dumps_the_same_text(tmp_path, case, request):
    """The schema reads back what it writes: ``to_json(load(dump(x)))``
    is the text of ``dump(x)``."""
    x = request.getfixturevalue(case) if case == "session_report" \
        else ROUND_TRIP[case](tmp_path)
    path = tmp_path / "dumped.json"
    if isinstance(x, SessionProfile):
        dump_profile(x, path)
        loaded = load_profile(path)
    elif isinstance(x, AgreementReport):
        write_json(path, to_json(x))
        loaded = load_report(path)
    else:
        write_json(path, config_to_json_dict(x))
        loaded = load_session_config(path)
    assert json.dumps(to_json(loaded), indent=2, sort_keys=True) + "\n" == \
        path.read_text()


def _accepted_keys(kind) -> set:
    """Every key an object of ``kind``, or one nested in it, accepts."""
    if isinstance(kind, Block):
        keys = set()
        for f in fields(kind.cls):
            if "json" in f.metadata:
                inner, key, _ = f.metadata["json"]
                if not inner.inline:
                    keys.add(key or f.name)
                keys |= _accepted_keys(inner)
        return keys
    if isinstance(kind, (ListOf, MapOf, Nullable)):
        return set(getattr(kind, "keys", None) or ()) | \
            _accepted_keys(kind.item)
    return set()


def test_every_accepted_key_is_documented():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md"
           ).read_text()
    keys = (_accepted_keys(Block(SessionConfig))
            | _accepted_keys(Block(SessionProfile))
            | _accepted_keys(Block(AgreementReport)))
    assert {"position_m", "width_s", "n_tones", "rate_hz", "gx", "per_axis",
            "significant", "angular_velocity", "z"} <= keys
    assert sorted(k for k in keys
                  if f'"{k}"' not in doc and f"`{k}`" not in doc) == []


# ---------------------------------------------------------------------------
# One resultant


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_peak_resultant_of_vector_series(seed):
    """The resultant through ``core.magnitude`` gives the bits of the norm
    taken in place."""
    rng = np.random.default_rng(seed)
    s = TimeSeries3(-0.03125 + seed, 3200.0, rng.standard_normal((401, 3)))
    norms = np.linalg.norm(s.samples, axis=1)
    idx = int(np.argmax(norms))
    value, t_peak = peak_resultant(s)
    assert np.float64(value).tobytes() == norms[idx].tobytes()
    assert t_peak == float(s.start_time + idx / s.sample_rate)


# ---------------------------------------------------------------------------
# Sensor CSVs


def _old_channel_series(data, t0, rate, cols, scale, path):
    block = data[:, cols]
    if np.isnan(block).any():
        row, col = np.argwhere(np.isnan(block))[0]
        raise DataError(f"{path}: NaN cell at data row {int(row)}")
    return TimeSeries3(t0, rate, block * scale)


def _old_parse_imu_csv(path, spec, column_map=None, channels=None):
    """The reader before the shared file layout, less its spec checks."""
    path = Path(path)
    wanted = set(c.kind for c in spec.channels) if channels is None \
        else set(channels)
    gyro_spec = spec.channel("gyro")
    high_spec = spec.channel("accel_high")
    series = {}
    if wanted & {"gyro", "accel_low"} or (
            "accel_high" in wanted and high_spec.rate == gyro_spec.rate):
        series = _old_parse_main_file(path, spec, column_map)
    if "accel_high" in wanted and series.get("accel_high") is None:
        series["accel_high"] = _old_parse_companion_file(path, high_spec,
                                                         column_map)
    rec = ImuRecording(spec.id, *(series[k] if k in wanted else None
                                  for k in CHANNEL_KINDS))
    _check_overlap(rec, path)
    return rec


def _old_parse_main_file(path, spec, column_map):
    gyro_spec = spec.channel("gyro")
    low_spec = spec.channel("accel_low")
    high_spec = spec.channel("accel_high")
    _, header, data = read_table(path)
    t_idx, = _column_indices(header, ("time_s",), path, column_map)
    gcols = _column_indices(header, ("gx", "gy", "gz"), path, column_map)
    t0, _ = table_clock(data[:, t_idx], path, header[t_idx], gyro_spec.rate)
    series = {"gyro": _old_channel_series(data, t0, gyro_spec.rate, gcols,
                                          _DEG2RAD, path),
              "accel_low": None, "accel_high": None}
    if low_spec is not None:
        lcols = _column_indices(header, ("ax", "ay", "az"), path, column_map)
        series["accel_low"] = _old_channel_series(data, t0, low_spec.rate,
                                                  lcols, G_STANDARD, path)
    if high_spec is not None and high_spec.rate == gyro_spec.rate:
        names = ("hx", "hy", "hz")
        cmap = column_map or {}
        if all(cmap.get(n, n) in header for n in names):
            hcols = _column_indices(header, names, path, column_map)
            series["accel_high"] = _old_channel_series(
                data, t0, high_spec.rate, hcols, G_STANDARD, path)
    return series


def _old_parse_companion_file(path, high_spec, column_map):
    hpath = path.with_name(path.stem + "_high" + path.suffix)
    if not hpath.exists():
        raise FormatError(
            f"{path}: high-g channel at {high_spec.rate:g} Hz expects "
            f"companion file {hpath.name}"
        )
    _, hheader, hdata = read_table(hpath)
    ht_idx, = _column_indices(hheader, ("time_s",), hpath, column_map)
    ht0, _ = table_clock(hdata[:, ht_idx], hpath, hheader[ht_idx],
                         high_spec.rate)
    hcols = _column_indices(hheader, ("hx", "hy", "hz"), hpath, column_map)
    return _old_channel_series(hdata, ht0, high_spec.rate, hcols, G_STANDARD,
                               hpath)


def _old_write_imu_csv(path, rec, header_comments=()):
    path = Path(path)
    cols = ["time_s"]
    arrays = [rec.gyro.times]
    for name, series, scale in (("g", rec.gyro, 1.0 / _DEG2RAD),
                                ("a", rec.accel_low, 1.0 / G_STANDARD)):
        if series is None:
            continue
        if abs(series.start_time - rec.gyro.start_time) > 1e-12 or \
                series.sample_rate != rec.gyro.sample_rate:
            raise DataError("accel_low must share the gyro clock in one file")
        for k, ax in enumerate("xyz"):
            cols.append(f"{name}{ax}")
            arrays.append(series.samples[:, k] * scale)

    high_separate = None
    if rec.accel_high is not None:
        if (rec.accel_high.sample_rate == rec.gyro.sample_rate
                and abs(rec.accel_high.start_time - rec.gyro.start_time) <= 1e-12
                and len(rec.accel_high) == len(rec.gyro)):
            for k, ax in enumerate("xyz"):
                cols.append(f"h{ax}")
                arrays.append(rec.accel_high.samples[:, k] / G_STANDARD)
        else:
            high_separate = rec.accel_high

    write_table(path, cols, arrays, header_comments, "%.14g")
    if high_separate is not None:
        hpath = path.with_name(path.stem + "_high" + path.suffix)
        harrays = [high_separate.times] + [
            high_separate.samples[:, k] / G_STANDARD for k in range(3)
        ]
        write_table(hpath, ["time_s", "hx", "hy", "hz"], harrays,
                    header_comments, "%.14g")
    return path


def _sensor(role, *channels):
    return SensorSpec("imu1", role, np.array([0.05, 0.0, 0.0]), np.eye(3),
                      tuple(ChannelSpec(kind, rate) for kind, rate in channels))


def _recording(rng, *channels):
    """A recording of ``(kind, start, rate, n)`` channels holding SI values
    of many magnitudes."""
    series = dict.fromkeys(CHANNEL_KINDS)
    for kind, start, rate, n in channels:
        series[kind] = TimeSeries3(start, rate, rng.standard_normal((n, 3))
                                   * 10.0 ** rng.integers(-3, 4, (n, 3)))
    return ImuRecording("imu1", **series)


#: Layouts the benchmark sessions never write, as ``(spec, recording)``.
LAYOUTS = {
    "headband_with_companion": lambda rng: (
        _sensor("headband", ("gyro", 1125.0), ("accel_low", 1125.0),
                ("accel_high", 1600.0)),
        _recording(rng, ("gyro", 0.25, 1125.0, 300),
                   ("accel_low", 0.25, 1125.0, 300),
                   ("accel_high", 0.2503, 1600.0, 427))),
    "high_at_gyro_rate": lambda rng: (
        _sensor("headband", ("gyro", 1125.0), ("accel_low", 1125.0),
                ("accel_high", 1125.0)),
        _recording(rng, ("gyro", 3.5, 1125.0, 300),
                   ("accel_low", 3.5, 1125.0, 300),
                   ("accel_high", 3.5, 1125.0, 300))),
    "reference_with_companion": lambda rng: (
        _sensor("reference", ("gyro", 3200.0), ("accel_high", 1600.0)),
        _recording(rng, ("gyro", 2.0 - 0.03125, 3200.0, 401),
                   ("accel_high", 2.0 - 0.03125, 1600.0, 201))),
    "gyro_only": lambda rng: (
        _sensor("headband", ("gyro", 1125.0)),
        _recording(rng, ("gyro", -1.0, 1125.0, 300))),
}


def _assert_same_recording(new, old):
    for kind in CHANNEL_KINDS:
        a, b = new.channel(kind), old.channel(kind)
        assert (a is None) == (b is None), kind
        if a is not None:
            assert (a.start_time, a.sample_rate) == (b.start_time, b.sample_rate)
            assert a.samples.dtype == b.samples.dtype
            assert a.samples.tobytes() == b.samples.tobytes(), kind


def _assert_same_files_and_reads(tmp_path, spec, rec, name):
    """The recording written by both writers gives the same files, and the
    files read by both readers the same bits for every set of kinds."""
    new_dir, old_dir = tmp_path / "new", tmp_path / "old"
    new_dir.mkdir(parents=True)
    old_dir.mkdir()
    comments = ("manifest_sha256=abc",)
    csvs = imu_csv_files(new_dir / name, rec)
    assert [write_imu_csv(file, rec, kinds, comments)
            for file, kinds in csvs] == [file for file, _ in csvs]
    _old_write_imu_csv(old_dir / name, rec, comments)
    written = sorted(p.name for p in new_dir.iterdir())
    assert written == sorted(p.name for p in old_dir.iterdir())
    for file in written:
        assert (new_dir / file).read_bytes() == (old_dir / file).read_bytes()
    kinds = [c.kind for c in spec.channels]
    for subset in [None] + [combo for r in range(1, len(kinds) + 1)
                            for combo in itertools.combinations(kinds, r)]:
        _assert_same_recording(parse_imu_csv(new_dir / name, spec, None, subset),
                               _old_parse_imu_csv(new_dir / name, spec, None,
                                                  subset))
    return written


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_sensor_csv_layouts(tmp_path, layout):
    spec, rec = LAYOUTS[layout](np.random.default_rng(len(layout)))
    written = _assert_same_files_and_reads(tmp_path, spec, rec, "imu1.csv")
    companion = spec.channel("accel_high") is not None and \
        spec.channel("accel_high").rate != spec.channel("gyro").rate
    assert written == ["imu1.csv"] + ["imu1_high.csv"] * companion


def test_sensor_csv_small_session(tmp_path, config, clean_session_small):
    """Headband streams with companions and mouthpiece blocks, as simulated."""
    names = []
    for rec in clean_session_small.headband:
        names += _assert_same_files_and_reads(
            tmp_path / rec.sensor_id, config.sensor(rec.sensor_id), rec,
            f"{rec.sensor_id}.csv")
    for k, rec in enumerate(clean_session_small.reference_blocks, start=1):
        name = f"{rec.sensor_id}_ev{k:03d}.csv"
        names += _assert_same_files_and_reads(
            tmp_path / name, config.sensor(rec.sensor_id), rec, name)
    assert len(names) == 2 * 5 + len(clean_session_small.reference_blocks)


def test_accel_low_off_the_gyro_rate_fails_at_the_spec():
    with pytest.raises(ConfigError, match=r"^sensor 'imu1': accel_low rate "
                                          r"1600 Hz must match the gyro rate "
                                          r"1125 Hz"):
        _sensor("headband", ("gyro", 1125.0), ("accel_low", 1600.0))


def test_same_rate_high_g_is_read_from_the_main_file_only(tmp_path):
    """The old reader fell back to a companion when the main file had no
    ``hx`` column; the one layout puts a same-rate high-g in the main file."""
    spec = _sensor("headband", ("gyro", 100.0), ("accel_low", 100.0),
                   ("accel_high", 100.0))
    path = tmp_path / "imu1.csv"
    times = np.arange(4) / 100.0
    write_table(path, ["time_s", "gx", "gy", "gz", "ax", "ay", "az"],
                [times] + [np.ones(4)] * 6, (), "%.14g")
    write_table(tmp_path / "imu1_high.csv", ["time_s", "hx", "hy", "hz"],
                [times] + [np.ones(4)] * 3, (), "%.14g")
    assert _old_parse_imu_csv(path, spec).accel_high is not None
    with pytest.raises(FormatError, match=r"imu1.csv: missing column 'hx'$"):
        parse_imu_csv(path, spec)


@pytest.mark.parametrize("kind, start, rate, n", [
    ("accel_low", 0.001, 1125.0, 50), ("accel_low", 0.0, 1125.0, 49),
    ("accel_low", 0.0, 1600.0, 50), ("accel_high", 0.001, 1125.0, 50),
    ("accel_high", 0.0, 1125.0, 49)],
    ids=["low_start", "low_length", "low_rate", "high_start", "high_length"])
def test_main_file_channel_off_the_gyro_clock_is_not_written(
        tmp_path, kind, start, rate, n):
    rec = _recording(np.random.default_rng(0), ("gyro", 0.0, 1125.0, 50),
                     (kind, start, rate, n))
    path = tmp_path / "imu1.csv"
    with pytest.raises(DataError, match=f"imu1.csv: {kind} must share the "
                                        f"gyro clock in one file"):
        write_recording(path, rec)
    assert not path.exists()
