"""The library pipeline on an in-memory session agrees with the CLI run on the
same session written to files."""

import json
from dataclasses import replace

import pytest

from kinereco.cli import _load_comparisons, _read_events_csv, main
from kinereco.evaluate import EventComparison, build_agreement_report
from kinereco.pipeline import (detect_channels, detect_session,
                               reconstruct_channels, reconstruct_pair)

#: The CLI reads the session back from %.14g CSVs and the kinematics from
#: %.12g CSVs, so its CORA scores and peaks carry that rounding (measured on
#: this session: 1.6e-11 on CORA totals, 4.7e-11 relative on peaks).
CORA_TOL = 1e-9
PEAK_REL_TOL = 1e-9
#: events.csv keeps times and offsets with 9 decimals.
TIME_TOL = 5e-10


@pytest.fixture(scope="module")
def library_run(config, clean_session_small):
    sim = clean_session_small
    headband = {rec.sensor_id: rec for rec in sim.headband}
    ref_blocks = list(sim.reference_blocks)
    labels = [(imp.time_s, imp.label) for imp in sim.profile.impacts]
    pairs, unpaired = detect_session(config, headband, ref_blocks, 0.5, labels)
    events, f0 = [], {}
    for row in pairs:
        kin, ref_kin = reconstruct_pair(config, headband, ref_blocks, row,
                                        "both")
        f0[row.pair_id] = kin.f0
        events.append(EventComparison(row.pair_id, row.label, kin, ref_kin))
    return (pairs, unpaired), f0, build_agreement_report(events)


@pytest.fixture(scope="module")
def cli_report(small_pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("library") / "report.json"
    assert main(["evaluate", "--config", str(small_pipeline["config"]),
                 "--hb", str(small_pipeline["kin"]),
                 "--ref", str(small_pipeline["kin"]),
                 "--pairs", str(small_pipeline["events"]),
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_same_pairs_and_labels(library_run, small_pipeline):
    (pairs, unpaired), _, _ = library_run
    assert not unpaired
    cli_rows = _read_events_csv(small_pipeline["events"])
    assert [(r.pair_id, r.label) for r in pairs] == \
        [(r.pair_id, r.label) for r in cli_rows]
    assert len({r.label for r in cli_rows}) == 3
    for lib, cli in zip(pairs, cli_rows):
        assert abs(lib.t0_headband - cli.t0_headband) <= TIME_TOL
        assert abs(lib.t0_reference - cli.t0_reference) <= TIME_TOL
        assert abs(lib.offset - cli.offset) <= TIME_TOL


def test_same_cutoff(library_run, small_pipeline):
    _, f0, _ = library_run
    pairs = {r.pair_id: r.label for r in _read_events_csv(small_pipeline["events"])}
    cli_f0 = {ev.pair_id: f"{ev.headband.f0:.9g}" for ev in _load_comparisons(
        small_pipeline["kin"], small_pipeline["kin"], pairs)}
    assert cli_f0 == {k: f"{v:.9g}" for k, v in f0.items()}


def test_same_agreement(library_run, cli_report):
    _, _, report = library_run
    assert report["n_events"] == cli_report["n_events"] == 3
    for lib, cli in zip(report["events"], cli_report["events"]):
        assert (lib["pair_id"], lib["label"]) == (cli["pair_id"], cli["label"])
        assert set(lib["cora"]) == set(cli["cora"])
        for quantity, score in lib["cora"].items():
            other = cli["cora"][quantity]
            assert score["band"] == other["band"]
            assert score["total"] == pytest.approx(other["total"], abs=CORA_TOL)
            for ax, axis_score in score["per_axis"].items():
                other_axis = other["per_axis"][ax]
                assert axis_score["band"] == other_axis["band"]
                assert axis_score["total"] == pytest.approx(
                    other_axis["total"], abs=CORA_TOL)
        for quantity, peak in lib["peaks"].items():
            for side in ("headband", "reference"):
                assert peak[side] == pytest.approx(
                    cli["peaks"][quantity][side], rel=PEAK_REL_TOL)


def test_stage_channel_maps(config):
    headband = [s.id for s in config.headband_sensors]
    assert detect_channels(config) == {sid: ("accel_high",) for sid in headband}
    assert reconstruct_channels(config, "diff") == \
        {sid: ("gyro",) for sid in headband}
    both = {sid: ("gyro", "accel_high") if sid in config.a3g1_sensor_ids
            else ("gyro",) for sid in headband}
    assert reconstruct_channels(config, "both") == both
    assert reconstruct_channels(config, "a3g1") == both
    # An A3G1 sensor outside the headband is left to the reconstruction to
    # reject; the map names headband sensors only.
    ref_in_a3g1 = replace(config, a3g1_sensor_ids=(
        "mouthpiece", "bt_left_outer", "bt_back"))
    assert set(reconstruct_channels(ref_in_a3g1, "both")) == set(headband)
