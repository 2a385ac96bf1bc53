"""The library pipeline on an in-memory session agrees with the CLI run on the
same session written to files."""

import json
from dataclasses import replace

import pytest

from kinereco.cli import _load_comparisons, _read_events_csv, main
from kinereco.evaluate import EventComparison, build_agreement_report
from kinereco.ingest import to_json
from kinereco.pipeline import (detect_channels, detect_session,
                               reconstruct_channels, reconstruct_pair)
from kinereco.synth import simulate_session, write_simulated_session

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
    return (pairs, unpaired), f0, to_json(build_agreement_report(events))


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



def library_pairs(config, sim):
    """The pairs the library pipeline detects on ``sim`` (as library_run)."""
    headband = {rec.sensor_id: rec for rec in sim.headband}
    labels = [(imp.time_s, imp.label) for imp in sim.profile.impacts]
    pairs, unpaired = detect_session(config, headband, list(sim.reference_blocks),
                                     0.5, labels)
    assert not unpaired
    return pairs


def library_peaks(config, sim, pairs):
    """``f0`` and the reported angular-velocity peaks of each pair of
    ``pairs`` reconstructed from ``sim`` (as library_run)."""
    headband = {rec.sensor_id: rec for rec in sim.headband}
    ref_blocks = list(sim.reference_blocks)
    events = [EventComparison(row.pair_id, row.label, *reconstruct_pair(
        config, headband, ref_blocks, row, "diff")) for row in pairs]
    report = to_json(build_agreement_report(events))
    return ([ev.headband.f0 for ev in events],
            [ev["peaks"]["angular_velocity"] for ev in report["events"]])


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_amplitude_scales_the_angular_velocity_peaks(
        k, config, clean_profile_small, clean_session_small, small_pipeline,
        tmp_path):
    """A metamorphic relation: the angular motion scaled by k (a power of
    two, so every sample scales exactly) keeps the pairs, and, on the same
    windows, the cutoffs (the scalogram slices are peak-normalized); the
    reported angular-velocity peaks and truth.json's PRV scale by k.

    The triggers read the linear acceleration, whose origin term and
    gravity are not scaled, so a trigger may move by one sample: at k = 2
    the goal kick's headband trigger fires one 1600 Hz sample early, and
    on that window f0 is 161 Hz, not 171 Hz.  So the scaled session is
    reconstructed on the unscaled session's headband windows.  A reference
    block is cut at its own trigger, so its peak is compared only where
    that trigger did not move (at k = 2 the corner kick's moved, and its
    peak differs by 4.5e-7 relative)."""
    motion = clean_profile_small.motion
    scaled = replace(clean_profile_small, motion=replace(motion, omega_components=tuple(
        tuple(replace(c, amplitude=c.amplitude * k) for c in axis)
        for axis in motion.omega_components)))
    sim = simulate_session(scaled, config, seed=5)
    pairs = library_pairs(config, clean_session_small)
    moved = library_pairs(config, sim)
    assert [(r.pair_id, r.label) for r in moved] == [
        (r.pair_id, r.label) for r in pairs]
    for got, want in zip(moved, pairs):
        assert abs(got.t0_headband - want.t0_headband) <= 1.0 / 1600.0 + TIME_TOL
        assert abs(got.t0_reference - want.t0_reference) <= 1.0 / 3200.0 + TIME_TOL
    # The unscaled headband windows, with the scaled session's own reference
    # blocks and residual lags.
    rows = [replace(got, t0_headband=want.t0_headband,
                    offset=got.offset + want.t0_headband - got.t0_headband)
            for got, want in zip(moved, pairs)]
    f0, peaks = library_peaks(config, sim, rows)
    base_f0, base_peaks = library_peaks(config, clean_session_small, pairs)
    assert f0 == base_f0
    for got, want, row, base in zip(peaks, base_peaks, moved, pairs):
        assert got["headband"] == pytest.approx(k * want["headband"], rel=1e-9)
        if row.t0_reference == base.t0_reference:  # the same block cut
            assert got["reference"] == pytest.approx(k * want["reference"],
                                                     rel=1e-9)
    write_simulated_session(sim, tmp_path / "session")
    got, want = (json.loads((path / "truth.json").read_text())["events"]
                 for path in (tmp_path / "session", small_pipeline["session"]))
    assert [ev["prv_rad_s"] for ev in got] == pytest.approx(
        [k * ev["prv_rad_s"] for ev in want], rel=1e-9)


@pytest.mark.parametrize("shift", [-0.020, 0.005, 0.020, -0.400])
def test_clock_offset_moves_the_refined_offsets(
        shift, config, clean_profile_small, clean_session_small):
    """A metamorphic relation: the reference clock shifted by a whole number
    of reference samples keeps the pairs, their labels and (the headband
    is the same) each cutoff; each refined offset, an estimate of the
    headband clock minus the reference clock, moves by the shift within one
    reference sample.

    The reference screen picks the rows where the trigger can fire on the
    reference's own clock.  A screen that left the offset out would pick
    rows 20 ms away from the motion, which its widening by ``pre`` and
    ``reference_post`` still covers, so those shifts give the same blocks.
    At -400 ms (1280 samples at 3200 Hz, within the pairing's 0.5 s, and
    the last block still inside the session) its rows would hold only the
    quiet time before each impact: no trigger would fire, and the pairs
    would go.
    """
    sim = simulate_session(
        replace(clean_profile_small, reference_clock_offset_s=(
            clean_profile_small.reference_clock_offset_s + shift)),
        config, seed=5)
    pairs = library_pairs(config, clean_session_small)
    moved = library_pairs(config, sim)
    assert [(r.pair_id, r.label) for r in moved] == [
        (r.pair_id, r.label) for r in pairs]
    for got, want in zip(moved, pairs):
        assert got.t0_headband == want.t0_headband
        assert abs(got.offset - want.offset - shift) <= 1.0 / 3200.0 + TIME_TOL
    assert library_peaks(config, sim, moved)[0] == library_peaks(
        config, clean_session_small, pairs)[0]
