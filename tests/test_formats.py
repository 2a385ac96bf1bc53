"""Every file format has one writer: the events, report and JSON outputs
written through it carry the bytes of the hand-written serializers they
replaced, copied here as the oracle."""

import json
from importlib.resources import files

import numpy as np
import pytest

from kinereco.cli import RunManifest, _load_comparisons, _write_events_csv, main
from kinereco.core import TimeSeries3
from kinereco.detect import ImpactEvent
from kinereco.evaluate import (_ba_to_dict, bland_altman,
                               build_agreement_report, peak_resultant)
from kinereco.ingest import load_session_config, write_json
from kinereco.pipeline import PairRow
from kinereco.synth import (BurstSpec, HarmonicComponent, MotionProfile,
                            NoiseSpec, PlannedImpact, SessionProfile,
                            config_to_json_dict, load_profile,
                            profile_to_json_dict, standard_session_profile)

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
        for ev, label in unpaired:
            fh.write(f",{ev.source},{ev.t0:.9f},{label},\n")


PAIRS = [
    PairRow(1, "throw_in", 1.0000000004, 0.98, 0.0200000004),
    PairRow(2, "", 2.5, 2.5, 0.0),
    PairRow(3, "corner_kick", np.float64(12.123456789123), 12.14,
            np.float64(-0.016543210987)),
]
UNPAIRED = [(ImpactEvent(7.25, "headband"), "goal_kick"),
            (ImpactEvent(np.float64(9.0000000005), "reference"), "")]


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


def _minimal_report(t_test, by_label):
    score = {"phase": 0.9, "magnitude": 0.8, "shape": 0.7, "total": 0.8,
             "band": "good"}
    return {
        "events": [{
            "pair_id": 1, "label": "x",
            "cora": {"angular_velocity": score},
            "peaks": {"angular_velocity": {"headband": 1.0, "reference": 2.0,
                                           "bias": -1.0}},
            "nrmse": {"angular_velocity": {"nrms_pct": 5.0, "rms_abs": 0.1,
                                           "signed_mean_pct": 1.0}},
        }],
        "aggregate": {"bland_altman": {}, "by_label": by_label,
                      "t_tests": {"angular_velocity": t_test}},
    }


@pytest.fixture(scope="module")
def session_report(small_pipeline):
    """The small session's agreement report, with two events sharing a label
    so that ``by_label`` carries a Bland-Altman row."""
    events = _load_comparisons(small_pipeline["kin"], small_pipeline["kin"],
                               {1: "a", 2: "a", 3: "b"})
    report = build_agreement_report(events)
    report["manifest_sha256"] = "0" * 64
    return report


@pytest.mark.parametrize("case", [
    "null_t_test", "empty_by_label", "no_rows", "session"])
def test_report_table_bytes(tmp_path, case, session_report):
    report = {
        "null_t_test": _minimal_report(None, {"x": {"angular_velocity": {
            "n": 1, "cora_mean": 0.8, "cora_sd": 0.0}}}),
        "empty_by_label": _minimal_report(
            {"t": -2.5, "p": 0.0312345678, "significant": True}, {}),
        "no_rows": {"events": [], "aggregate": {
            "bland_altman": {}, "by_label": {}, "t_tests": {}}},
        "session": session_report,
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
    new, old = _ba_to_dict(report), _old_ba_to_dict(report)
    assert new == old
    assert _json_text(new) == _json_text(old)


def _bundled_config_path():
    return files("kinereco") / "profiles" / "field_config.json"


@pytest.mark.parametrize("case", ["bundled", "non_default_blocks"])
def test_config_json_dict(tmp_path, case):
    path = tmp_path / "config.json"
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
    path.write_text(json.dumps(raw))
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
    new, old = profile_to_json_dict(profile), _old_profile_to_json_dict(profile)
    assert new == old
    assert _json_text(new) == _json_text(old)


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
