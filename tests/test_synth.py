import errno
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kinereco.core import TimeSeries3, magnitude
from kinereco.detect import detect_impacts
from kinereco import ingest
from kinereco.cli import RunManifest, main
from kinereco.errors import DataError, FormatError
from kinereco.ingest import (G_STANDARD, ChannelSpec, SensorSpec,
                             imu_csv_files, parse_imu_csv, parse_reference_csv,
                             write_imu_csv, write_json, write_table)
from kinereco.kinematics import adaptive_filter
from kinereco import synth
from kinereco.synth import (BurstSpec, HarmonicComponent, MotionProfile,
                            NoiseSpec, PlannedImpact, SessionProfile,
                            _axis_eval, _burst_waveform, _channel_noise,
                            _truth_events, load_profile, dump_profile,
                            simulate_sensors, simulate_session,
                            standard_session_profile, write_session)

from conftest import assert_no_child_left


def simulated(*args, **kwargs):
    """The recordings of :func:`simulate_sensors`, each sensor built in
    turn."""
    return [build() for build in simulate_sensors(*args, **kwargs)]


def still_motion():
    empty = ((), (), ())
    return MotionProfile(omega_components=empty, q_components=empty)


class TestSimulateSensors:
    def test_static_head_reads_gravity_in_sensor_frame(self, config):
        g = np.array([0.0, 0.0, -G_STANDARD])
        recs = simulated(still_motion(), list(config.headband_sensors),
                         NoiseSpec(), 0.2, gravity=g, seed=0)
        for spec, rec in zip(config.headband_sensors, recs):
            assert_allclose(rec.gyro.samples, 0.0, atol=1e-15)
            expected = spec.orientation.T @ g
            for ts in (rec.accel_low, rec.accel_high):
                assert_allclose(ts.samples, np.tile(expected, (len(ts), 1)),
                                atol=1e-12)

    def test_steady_spin_reads_centripetal_field(self, config):
        w = 4.0
        motion = MotionProfile(
            omega_components=((), (), (HarmonicComponent(w, 0.0, phase=np.pi / 2),)),
            q_components=((), (), ()),
        )
        recs = simulated(motion, list(config.headband_sensors),
                         NoiseSpec(), 0.1, gravity=(0, 0, 0), seed=0)
        for spec, rec in zip(config.headband_sensors, recs):
            assert_allclose(rec.gyro.samples,
                            np.tile(spec.orientation.T @ [0, 0, w],
                                    (len(rec.gyro), 1)), atol=1e-12)
            centripetal = np.cross([0, 0, w], np.cross([0, 0, w], spec.position))
            expected = spec.orientation.T @ centripetal
            assert_allclose(rec.accel_high.samples,
                            np.tile(expected, (len(rec.accel_high), 1)),
                            atol=1e-12)

    def test_channel_rates_follow_spec(self, config):
        recs = simulated(still_motion(), list(config.sensors),
                         NoiseSpec(), 0.1, seed=0)
        by_id = {r.sensor_id: r for r in recs}
        assert by_id["bt_back"].gyro.sample_rate == 1125.0
        assert by_id["bt_back"].accel_high.sample_rate == 1600.0
        assert by_id["mouthpiece"].gyro.sample_rate == 3200.0

    def test_noise_deterministic_per_seed(self, config):
        noise = NoiseSpec(gyro_sigma=0.1, accel_sigma=1.0)
        a = simulated(still_motion(), list(config.headband_sensors),
                      noise, 0.1, seed=3)
        b = simulated(still_motion(), list(config.headband_sensors),
                      noise, 0.1, seed=3)
        c = simulated(still_motion(), list(config.headband_sensors),
                      noise, 0.1, seed=4)
        assert np.array_equal(a[0].gyro.samples, b[0].gyro.samples)
        assert not np.array_equal(a[0].gyro.samples, c[0].gyro.samples)


    def test_noise_keyed_by_sensor_index(self, config):
        noise = NoiseSpec(gyro_sigma=0.1)
        specs = list(config.headband_sensors)
        pair = simulated(still_motion(), specs[:2], noise, 0.1, seed=3)
        alone = simulated(still_motion(), specs[1:2], noise, 0.1, seed=3)
        longer = simulated(still_motion(), specs[:3], noise, 0.1, seed=3)
        assert np.array_equal(pair[1].gyro.samples, longer[1].gyro.samples)
        assert not np.array_equal(pair[1].gyro.samples, alone[0].gyro.samples)


class TestSampleCeiling:
    @staticmethod
    def spec(rate):
        return SensorSpec("imu", "headband", (0.0, 0.0, 0.0), np.eye(3),
                          (ChannelSpec("gyro", rate),))

    def test_one_sample_above_fails_before_any_array(self):
        """floor(duration * rate) + 1 = MAX_CHANNEL_SAMPLES + 1 samples."""
        rate = 3200.0
        duration = synth.MAX_CHANNEL_SAMPLES / rate
        assert math.floor(duration * rate) + 1 == synth.MAX_CHANNEL_SAMPLES + 1
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"^sensor 'imu' gyro: 31250 s "
                               r"at 3200 Hz is above the ceiling of 1e\+08 "
                               r"samples per channel$"):
                simulated(still_motion(), [self.spec(rate)], NoiseSpec(),
                          duration)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("duration, rate", [
        (1e308, 1125.0), (1.0, 1e308), (1e200, 1e200)])
    def test_huge_finite_durations_and_rates_fail(self, duration, rate):
        with pytest.raises(DataError, match="above the ceiling"):
            simulated(still_motion(), [self.spec(rate)], NoiseSpec(),
                      duration)

    def test_the_ceiling_itself_is_allowed(self, monkeypatch):
        monkeypatch.setattr(synth, "MAX_CHANNEL_SAMPLES", 1000)
        rec, = simulated(still_motion(), [self.spec(100.0)], NoiseSpec(),
                         9.99)
        assert len(rec.gyro) == 1000
        with pytest.raises(DataError, match="above the ceiling of 1e\\+03"):
            simulated(still_motion(), [self.spec(100.0)], NoiseSpec(),
                      10.0)


class TestWriteSession:
    def test_round_trip_through_files(self, tmp_path, config, clean_session_small):
        sim = clean_session_small
        out = tmp_path / "session"
        write_session(sim, out)
        spec = config.sensor("bt_back")
        back = parse_imu_csv(out / "bt_back.csv", spec)
        orig = sim.headband[[s.id for s in config.headband_sensors].index("bt_back")]
        assert_allclose(back.gyro.samples, orig.gyro.samples, atol=1e-9)
        assert_allclose(back.accel_high.samples, orig.accel_high.samples, atol=1e-9)
        ref_spec = config.reference_sensor
        block = parse_reference_csv(out / f"{ref_spec.id}_ev001.csv", ref_spec)
        assert_allclose(block.gyro.samples, sim.reference_blocks[0].gyro.samples,
                        atol=1e-9)

    def test_full_session_has_detectable_events(self, config, skewed_session):
        # 18 planned impacts, three tiers, all trigger the 3 g / 3 ms rule
        sim = skewed_session
        trig = magnitude(sim.headband[2].trigger_accel)
        events = detect_impacts(trig, config.trigger.threshold,
                                config.trigger.min_duration,
                                min_separation=0.18125)
        assert len(events) == 18
        labels = [imp.label for imp in sim.profile.impacts]
        assert labels.count("throw_in") == 6
        assert labels.count("goal_kick") == 6
        assert labels.count("corner_kick") == 6


def serial_write_simulated_session(sim, path, header_comments=()):
    """write_simulated_session as one serial loop: each sensor of the config
    in turn, headband first, built in this process and each of its CSV
    files written, then the error of the earliest failure raised, or else
    config.json and the ground-truth sidecars written."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    config, errors = sim.config, []
    sensors = [(spec.id, None, build) for spec, build in
               zip(config.headband_sensors, sim.headband_jobs)]
    if sim.reference_job is not None:
        sensors.append((config.reference_sensor.id, 1, sim.reference_job))
    for sensor_id, first_block, build in sensors:
        try:
            built = build()
        except Exception as exc:
            errors.append(exc)
            continue
        if first_block is None:
            targets = [(out / f"{sensor_id}.csv", built)]
        else:
            targets = [(out / f"{sensor_id}_ev{k:03d}.csv", rec)
                       for k, rec in enumerate(built, start=first_block)]
        for target, rec in targets:
            for file, kinds in imu_csv_files(target, rec):
                try:
                    write_imu_csv(file, rec, kinds, header_comments)
                except Exception as exc:
                    errors.append(exc)
    if errors:
        raise errors[0]
    stamp = synth._manifest_stamp(header_comments)
    stamp = {"manifest_sha256": stamp} if stamp else {}
    write_json(out / "config.json", {**synth.config_to_json_dict(config),
                                     **stamp})
    impacts = sim.profile.impacts
    write_table(out / "labels.csv", ("time_s", "label"),
                (np.array([imp.time_s for imp in impacts]),
                 [imp.label for imp in impacts]), header_comments, "%.6f")
    write_json(out / "truth.json", {
        "gravity": list(sim.profile.gravity),
        "reference_clock_offset_s": sim.profile.reference_clock_offset_s,
        "events": [{"t0_s": ev.t0, "label": ev.label, "prv_rad_s": ev.prv,
                    "pra_rad_s2": ev.pra, "pla_m_s2": ev.pla}
                   for ev in sim.truth],
        **stamp})


class TestSimulateInTwoProcesses:
    """simulate builds each sensor in the process that writes it; the files
    and every error are those of the library's simulate_session followed by
    a serial write."""

    PROFILES = {
        "clean": dict(seed=11, with_noise=False),
        "noisy": dict(seed=13, with_noise=True),
        "offset": dict(seed=13, with_noise=True,
                       reference_clock_offset_s=0.0123),
    }

    @pytest.fixture(params=sorted(PROFILES))
    def inputs(self, request, tmp_path, config):
        """The profile and config of a small session, as files."""
        profile = standard_session_profile(n_per_tier=1,
                                           **self.PROFILES[request.param])
        profile_path = dump_profile(profile, tmp_path / "profile.json")
        config_path = tmp_path / "config.json"
        write_json(config_path, synth.config_to_json_dict(config))
        return profile_path, config_path

    @staticmethod
    def files(path):
        return {p.name: p.read_bytes() for p in Path(path).iterdir()}

    def test_cli_bytes_are_the_librarys(self, tmp_path, inputs, forks):
        profile_path, config_path = inputs
        out = tmp_path / "cli"
        assert main(["simulate", "--profile", str(profile_path), "--config",
                     str(config_path), "--out", str(out), "--seed", "7"]) == 0
        assert len(forks) == 1
        assert_no_child_left()
        manifest = RunManifest(subcommand="simulate",
                               config_path=str(config_path),
                               inputs=(str(profile_path),), params={}, seed=7)
        sim = simulate_session(load_profile(profile_path),
                               ingest.load_session_config(config_path), seed=7)
        serial_write_simulated_session(sim, tmp_path / "serial",
                                       manifest.comments())
        got, want = self.files(out), self.files(tmp_path / "serial")
        assert sorted(got) == sorted([*want, "manifest.json"])
        assert len(sim.reference_blocks) == 3
        assert len(want) == 2 * 5 + 3 + 3
        for name, data in want.items():
            assert got[name] == data, name

    @pytest.fixture(scope="class")
    def session(self, config):
        return simulate_session(standard_session_profile(
            seed=13, with_noise=True, n_per_tier=1), config, seed=3)

    @staticmethod
    def written(write, session, path, monkeypatch):
        """The CSV files ``write(session, path)`` writes in this process, in
        the order it writes them; labels.csv is left out."""
        names, real = [], ingest.write_table
        with monkeypatch.context() as spy:
            spy.setattr(ingest, "write_table", lambda path, *args: (
                names.append(Path(path).name), real(path, *args)))
            write(session, path)
        return [name for name in names if name != "labels.csv"]

    @pytest.mark.parametrize("case", [
        "child_share", "data_error", "os_error", "unpicklable", "build_fails",
        "killed", "child_only", "killed_in_truth", "truth_fails", "labels",
        "parent_first", "child_first", "no_fork", "fork_eagain",
        pytest.param("thread", marks=pytest.mark.skipif(
            not Path("/proc/self/task").is_dir(),
            reason="no /proc/self/task to count threads in")),
    ])
    def test_every_outcome_is_the_serial_loops(self, tmp_path, monkeypatch,
                                               forks, session, case):
        """A file of the child's share that fails in both processes (with
        ENOSPC, a DataError, or one that cannot be pickled), a sensor of the
        child's share that cannot be built, a child killed by SIGKILL while
        it writes, after its truth job, or while it computes the truth, a
        file that fails in the child alone, a truth that fails in both
        processes, a labels.csv that cannot be written, a failure in the
        parent's share before one in the child's and the reverse, no
        ``os.fork``, a fork that fails with EAGAIN, and another thread
        running: the files and the error are the serial loop's.  The truth
        is computed once per run, in the child, unless the child dies in it,
        it fails, or there is no child."""
        parent = os.getpid()
        # The CSV files in the serial loop's order.
        serial = self.written(serial_write_simulated_session, session,
                              tmp_path / "serial", monkeypatch)
        # The pid of each process that computed the truth, one a line.
        truth_calls, real_peaks = tmp_path / "truth_calls", synth._truth_peaks
        armed = []  # the case's fault, once the shares are known

        def truth_peaks(*args):
            with open(truth_calls, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if armed and case == "killed_in_truth" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            if armed and case == "truth_fails":
                raise DataError(f"no truth in process {os.getpid()}")
            return real_peaks(*args)

        def truth_pids():
            pids = [int(pid) != parent for pid in truth_calls.read_text().split()]
            truth_calls.unlink()
            return ["child" if in_child else "parent" for in_child in pids]

        monkeypatch.setattr(synth, "_truth_peaks", truth_peaks)
        # The CSV files this process writes; the child's are the others.
        own = self.written(synth.write_simulated_session, session,
                           tmp_path / "shares", monkeypatch)
        assert truth_pids() == ["child"]
        csv = {p.name for p in (tmp_path / "shares").glob("*.csv")} - {
            "labels.csv"}
        assert sorted(serial) == sorted(csv)
        theirs = [name for name in serial if name not in own]
        assert own and theirs

        def cannot_write(path):
            return DataError(f"{path}: cannot write here")

        def enospc(path):
            return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        def unpicklable(path):
            exc = cannot_write(path)
            exc.hook = lambda: None
            return exc

        # The error each failing CSV file raises, by its name.
        failing = {"child_share": {theirs[0]: enospc},
                   "data_error": {theirs[1]: cannot_write},
                   "os_error": {theirs[1]: enospc},
                   "unpicklable": {theirs[1]: unpicklable}}.get(case, {})
        if case in ("parent_first", "child_first"):
            earlier, later = ((own[0], theirs[-1]) if case == "parent_first"
                              else (theirs[0], own[-1]))
            assert serial.index(earlier) < serial.index(later)
            failing = {earlier: cannot_write, later: cannot_write}
        # The first headband sensor of the child's share, and its files.
        sensor = theirs[0].removesuffix(".csv")
        assert sensor in [spec.id for spec in session.config.headband_sensors]
        lost = csv & {theirs[0], f"{sensor}_high.csv"}
        written = session
        if case == "build_fails":
            def cannot_build():
                raise DataError(f"{sensor}: cannot build here")

            written = replace(session, headband_jobs=tuple(
                cannot_build if spec.id == sensor else build
                for spec, build in zip(session.config.headband_sensors,
                                       session.headband_jobs)))
        forks.clear()
        armed.append(True)
        real = ingest.write_table

        def write(path, *args):
            name = Path(path).name
            if name in failing:
                raise failing[name](path)
            if os.getpid() != parent:
                if case == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if case == "child_only" and name == theirs[0]:
                    raise enospc(path)
            real(path, *args)

        def unavailable():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(ingest, "write_table", write)
        if case == "no_fork":
            monkeypatch.delattr(os, "fork")
        elif case == "fork_eagain":
            monkeypatch.setattr(os, "fork", unavailable)

        def outcome(write_session_files, path):
            shutil.rmtree(path, ignore_errors=True)
            if case == "labels":  # a directory in its place
                (path / "labels.csv").mkdir(parents=True)
            try:
                result = write_session_files(written, path,
                                             ("manifest_sha256=0",))
            except BaseException as exc:
                result = type(exc), str(exc)
            finally:
                assert_no_child_left()
            if case == "labels":
                (path / "labels.csv").rmdir()
            return result, self.files(path)

        vars(session).pop("truth", None)  # so the serial loop computes it
        want = outcome(serial_write_simulated_session, tmp_path / "a")
        assert forks == []
        truth_calls.unlink(missing_ok=True)  # the serial loop's
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        if case == "thread":
            other.start()
        try:
            got = outcome(synth.write_simulated_session, tmp_path / "a")
        finally:
            release.set()
            if other.ident is not None:
                other.join(timeout=60)
        assert got == want
        no_child = case in ("no_fork", "fork_eagain", "thread")
        assert len(forks) == (0 if no_child else 1)
        assert truth_pids() == {"killed_in_truth": ["child", "parent"],
                                "truth_fails": ["child", "parent"],
                                "no_fork": ["parent"],
                                "fork_eagain": ["parent"],
                                "thread": ["parent"]}.get(case, ["child"])
        if case == "child_share":
            assert got[0] == (OSError, "[Errno 28] No space left on device: "
                              f"'{tmp_path / 'a' / theirs[0]}'")
        if failing:
            first = min(failing, key=serial.index)
            error = failing[first](tmp_path / "a" / first)
            assert got[0] == (type(error), str(error))
            # Every other CSV file is written, whichever process failed.
            assert sorted(got[1]) == sorted(csv - set(failing))
        elif case == "build_fails":
            assert got[0] == (DataError, f"{sensor}: cannot build here")
            assert lost and sorted(got[1]) == sorted(csv - lost)
        elif case == "truth_fails":
            assert got[0] == (DataError, f"no truth in process {parent}")
            assert sorted(got[1]) == sorted(csv | {"config.json", "labels.csv"})
        elif case == "labels":
            path = tmp_path / "a" / "labels.csv"
            assert got[0] == (FormatError, f"cannot write {path}: [Errno 21] "
                              f"Is a directory: '{path}'")
            assert sorted(got[1]) == sorted(csv | {"config.json"})
        else:
            assert got[0] is None and "truth.json" in got[1]

    def test_interrupt_in_the_parent_waits_for_the_child(
            self, tmp_path, monkeypatch, forks, session):
        serial = self.written(serial_write_simulated_session, session,
                              tmp_path / "b", monkeypatch)
        own = self.written(synth.write_simulated_session, session,
                           tmp_path / "shares", monkeypatch)
        theirs = [name for name in serial if name not in own]
        assert own and theirs
        forks.clear()
        real = ingest.write_table

        def write(path, *args):
            if Path(path).name == own[0]:
                raise KeyboardInterrupt
            real(path, *args)

        monkeypatch.setattr(ingest, "write_table", write)
        with pytest.raises(KeyboardInterrupt):
            synth.write_simulated_session(session, tmp_path / "a")
        assert len(forks) == 1
        assert_no_child_left()
        # The child wrote its whole share before it was waited for.
        for name in theirs:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()


def test_a_reference_block_outside_its_recording_is_one_data_error(
        tmp_path, config, capsys, clean_profile_small):
    """Motion amplitudes 1e6 times the clean profile's make the reference
    trigger fire at its first sample: simulate exits with one DataError
    naming the sensor, the trigger and the block, after writing the
    headband files."""
    motion = clean_profile_small.motion
    loud = replace(clean_profile_small, motion=replace(motion, **{
        key: tuple(tuple(replace(c, amplitude=c.amplitude * 1e6) for c in axis)
                   for axis in getattr(motion, key))
        for key in ("omega_components", "q_components")}))
    profile_path = dump_profile(loud, tmp_path / "profile.json")
    config_path = tmp_path / "config.json"
    write_json(config_path, synth.config_to_json_dict(config))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["simulate", "--profile", str(profile_path), "--config",
                 str(config_path), "--out", str(out), "--seed", "7"]) == 1
    assert capsys.readouterr().err == (
        "kinereco: error: DataError: reference sensor 'mouthpiece': the block "
        "of its trigger at 0.0000 s spans [-0.0312, 0.0938] s, outside its "
        f"recording [0.0000, {loud.duration_s:.4f}] s\n")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        file.name for spec in config.headband_sensors
        for file, *_ in ingest.sensor_reads(out / ingest.session_csv(spec.id),
                                              spec))


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="no /proc/self/task to count threads in")
@pytest.mark.parametrize("first", ["kinereco", "numpy"])
def test_fresh_process_forks_only_with_one_thread(tmp_path, first):
    """Text the parent printed but has not flushed appears once, and no
    warning is raised.  Loaded first, kinereco keeps OpenBLAS to one thread
    and the process forks; numpy loaded first starts OpenBLAS's threads
    (one per CPU) and the process writes alone, as Python 3.12 warns of a
    fork in a process with threads."""
    script = f"""
import {first}
import json
import os
import sys
import numpy as np
from kinereco.synth import (example_session_config, simulate_session,
                            standard_session_profile, write_session)
sim = simulate_session(standard_session_profile(
    seed=11, with_noise=False, n_per_tier=1), example_session_config(), seed=5)
threads = len(os.listdir("/proc/self/task"))
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
print("before", end="")
write_session(sim, {str(tmp_path)!r})
print(" after")
print(json.dumps([threads, len(forks)]))
"""
    # Block-buffered stdout, so the text waits in the buffer at the fork.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", "OPENBLAS_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(synth.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    text, counts = done.stdout.rsplit("\n", 2)[:2]
    assert text == "before after"
    threads, forks = json.loads(counts)
    assert forks == (threads == 1)
    if first == "kinereco":
        assert threads == 1
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 2 * 5 + 3 + 3
    assert {"config.json", "labels.csv", "truth.json",
            "mouthpiece_ev003.csv"} <= set(names)


class TestProfileSerialization:
    def test_profile_round_trips_through_json(self, tmp_path):
        profile = standard_session_profile(seed=5, with_noise=True,
                                           reference_clock_offset_s=0.01)
        path = dump_profile(profile, tmp_path / "profile.json")
        back = load_profile(path)
        assert back.duration_s == profile.duration_s
        assert back.reference_clock_offset_s == 0.01
        assert len(back.impacts) == len(profile.impacts)
        assert back.noise.burst.gyro_amplitude == profile.noise.burst.gyro_amplitude
        t = np.linspace(0.0, 3.0, 500)
        assert_allclose(back.motion.omega_at(t), profile.motion.omega_at(t),
                        atol=1e-12)
        assert_allclose(back.motion.omega_alpha_at(t)[1],
                        profile.motion.omega_alpha_at(t)[1], atol=1e-12)

    @pytest.mark.parametrize("n_tones", [0, -1])
    def test_burst_without_tones_rejected(self, tmp_path, n_tones):
        profile = standard_session_profile(seed=5, with_noise=True)
        path = dump_profile(profile, tmp_path / "profile.json")
        raw = json.loads(path.read_text())
        raw["noise"]["burst"]["n_tones"] = n_tones
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError, match="n_tones"):
            load_profile(path)

    BAD_NOISE = pytest.mark.parametrize("key, value", [
        ("gyro_sigma", float("nan")), ("accel_sigma", float("inf")),
        ("gyro_sigma", -0.1), ("gyro_amplitude", -5.0),
        ("accel_amplitude", float("nan")), ("gyro_amplitude", float("-inf")),
    ], ids=["gyro_sigma_nan", "accel_sigma_inf", "gyro_sigma_neg",
            "burst_gyro_neg", "burst_accel_nan", "burst_gyro_neg_inf"])

    @pytest.mark.parametrize("label", ["header,left", "a\nb", "a\rb"])
    def test_label_with_csv_separator_rejected(self, label):
        with pytest.raises(DataError, match="impact label"):
            PlannedImpact(1.0, label)

    @BAD_NOISE
    def test_bad_noise_spec_rejected(self, key, value):
        if key.endswith("amplitude"):
            kwargs = {"burst": BurstSpec(**{key: value})}
        else:
            kwargs = {key: value}
        with pytest.raises(DataError, match=key):
            NoiseSpec(**kwargs)

    @BAD_NOISE
    def test_bad_noise_profile_rejected(self, tmp_path, key, value):
        profile = standard_session_profile(seed=5, with_noise=True)
        path = dump_profile(profile, tmp_path / "profile.json")
        raw = json.loads(path.read_text())
        noise = raw["noise"]["burst"] if key.endswith("amplitude") else raw["noise"]
        noise[key] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError, match=key):
            load_profile(path)

    def test_analytic_derivative_matches_numeric(self):
        profile = standard_session_profile(seed=2, with_noise=False, n_per_tier=1)
        t = np.linspace(0.5, 2.5, 20001)
        dt = t[1] - t[0]
        omega, alpha = profile.motion.omega_alpha_at(t)
        numeric = np.gradient(omega, dt, axis=0)
        scale = np.abs(alpha).max()
        assert np.abs(alpha[2:-2] - numeric[2:-2]).max() / scale < 1e-4


class TestBundledData:
    def test_bundled_profiles_match_generator(self):
        from importlib.resources import files
        from kinereco.ingest import to_json
        import json as json_mod
        data = files("kinereco") / "profiles"
        for name, with_noise in (("field_session_18.json", True),
                                 ("field_session_18_clean.json", False)):
            bundled = json_mod.loads((data / name).read_text())
            assert bundled == to_json(
                standard_session_profile(with_noise=with_noise))


class TestBurstChangesSelectedCutoff:
    def test_larger_burst_does_not_lower_cutoff(self, config):
        """Doubling the burst amplitude moves f0 up or leaves it at the cap."""
        profile = standard_session_profile(seed=8, with_noise=False, n_per_tier=1)
        motion = profile.motion
        spec = config.sensor("bt_back")
        t0 = profile.impacts[0].time_s
        f0s = []
        for amp in (1.0, 2.0):
            noise = NoiseSpec(burst=BurstSpec(gyro_amplitude=amp,
                                              accel_amplitude=0.0,
                                              center_hz=300.0,
                                              bandwidth_hz=100.0,
                                              duration_s=0.015))
            rec = simulated(motion, [spec], noise, 2.5, seed=1,
                            impact_times=[t0])[0]
            # cut the analysis window around the known impact
            rate = rec.gyro.sample_rate
            i0 = int(round((t0 - 0.005 - 0.03125) * rate))
            n = int(np.ceil(0.18125 * rate)) + 1
            window = TimeSeries3(-0.03125, rate,
                                 rec.gyro.samples[i0:i0 + n])
            _, cutoff = adaptive_filter(window)
            f0s.append(cutoff.f0)
        assert f0s[1] >= f0s[0] or f0s[1] == 180.0


def term_of(c, deriv):
    """The value of ``c``, or with ``deriv`` its derivative, as a function
    of ``t``."""
    return (lambda t: c.value_and_derivative(t)[1]) if deriv else c.value


def axis_eval(components, t, deriv=False):
    """_axis_eval, or with ``deriv`` the sum of the derivatives as
    omega_alpha_at takes it, from _axis_sums over value_and_derivative."""
    if not deriv:
        return _axis_eval(components, t)
    return synth._axis_sums(components, t,
                            HarmonicComponent.value_and_derivative, 2)[1]


def full_axis_sum(components, t, deriv=False):
    """Every component evaluated over the whole of ``t``, envelope or not."""
    out = np.zeros_like(t)
    for c in components:
        out += term_of(c, deriv)(t)
    return out


def masked_axis_sum(components, t, deriv=False):
    """_axis_eval before whole components were skipped: every windowed
    component runs its support mask over the whole of ``t``."""
    out = np.zeros_like(t)
    for c in components:
        term = term_of(c, deriv)
        if c.width_s is None:
            out += term(t)
            continue
        live = np.flatnonzero(np.abs(t - c.center_s) <= 28.0 * abs(c.width_s))
        out[live] += term(t[live])
    return out


def probe(c):
    """``c`` with a NaN amplitude: every sample its support mask keeps reads
    NaN, so a sum shows which samples were evaluated."""
    return replace(c, amplitude=float("nan"))


def ulps(x, k):
    """``x`` moved by ``k`` ulps."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


def full_burst_waveform(t_rel, burst, amplitude, rng):
    """Every tone evaluated over the whole post-impact span."""
    if amplitude == 0.0 or burst.duration_s == 0.0:
        return np.zeros_like(t_rel)
    tau = burst.duration_s / 3.0
    active = t_rel >= 0.0
    out = np.zeros_like(t_rel)
    for _ in range(burst.n_tones):
        f = rng.uniform(burst.center_hz - burst.bandwidth_hz / 2.0,
                        burst.center_hz + burst.bandwidth_hz / 2.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        out[active] += np.exp(-t_rel[active] / tau) * np.sin(
            2.0 * np.pi * f * t_rel[active] + phi
        )
    return amplitude / burst.n_tones * out


class TestWindowedEvaluation:
    """Terms skipped where their envelope is exactly 0.0, and components
    skipped whose support misses ``t``, leave every sample bit for bit equal
    to the full per-component sum."""

    @pytest.fixture(scope="class")
    def bundled(self):
        return load_profile(files("kinereco") / "profiles" / "field_session_18.json")

    @pytest.fixture(scope="class")
    def times(self, bundled):
        sorted_t = np.arange(int(bundled.duration_s * 1600.0) + 1) / 1600.0
        rng = np.random.default_rng(17)
        unsorted_t = rng.uniform(-1.0, bundled.duration_s + 1.0, 20000)
        return {"sorted": sorted_t, "unsorted": unsorted_t}

    @pytest.fixture(scope="class")
    def windowed(self, bundled):
        """Every windowed component of the bundled profile, and random ones
        with centers near and far from zero."""
        motion = bundled.motion
        comps = [c for axes in (motion.omega_components, motion.q_components)
                 for axis in axes for c in axis if c.width_s is not None]
        rng = np.random.default_rng(29)
        for _ in range(60):
            comps.append(HarmonicComponent(
                rng.uniform(-3.0, 3.0), rng.uniform(0.0, 60.0),
                phase=rng.uniform(0.0, 2.0 * np.pi),
                center_s=rng.uniform(-2.0, 20.0) * rng.choice([1.0, 1e-3]),
                width_s=10.0 ** rng.uniform(-3.5, -0.5)))
        return comps

    @staticmethod
    def negated_widths(axes):
        return tuple(tuple(c if c.width_s is None else replace(c, width_s=-c.width_s)
                           for c in comps) for comps in axes)

    @pytest.mark.parametrize("order", ["sorted", "unsorted"])
    @pytest.mark.parametrize("deriv", [False, True])
    @pytest.mark.parametrize("negate", [False, True])
    def test_axis_eval_equals_full_sum(self, bundled, times, order, deriv, negate):
        t = times[order]
        motion = bundled.motion
        for axes in (motion.omega_components, motion.q_components):
            if negate:
                axes = self.negated_widths(axes)
            for comps in axes:
                assert axis_eval(comps, t, deriv).tobytes() == \
                    full_axis_sum(comps, t, deriv).tobytes()

    def test_public_motion_api_with_negative_widths(self, bundled, times):
        motion = bundled.motion
        flipped = MotionProfile(self.negated_widths(motion.omega_components),
                                self.negated_widths(motion.q_components))
        t = times["unsorted"]
        for got, axes, deriv in (
                (flipped.omega_at(t), motion.omega_components, False),
                (flipped.omega_alpha_at(t)[1], motion.omega_components, True),
                (flipped.q_at(t), motion.q_components, False)):
            want = np.column_stack([full_axis_sum(c, t, deriv) for c in axes])
            assert got.tobytes() == want.tobytes()

    def test_empty_t_gives_zeros(self, bundled):
        t = np.array([])
        motion = bundled.motion
        for axes in (motion.omega_components, motion.q_components):
            for comps in axes:
                for deriv in (False, True):
                    got = axis_eval(comps, t, deriv)
                    assert got.dtype == np.float64 and got.shape == (0,)
        for got in (motion.omega_at(t), *motion.omega_alpha_at(t),
                    motion.q_at(t)):
            assert got.shape == (0, 3)

    @pytest.mark.parametrize("deriv", [False, True])
    def test_single_sample(self, bundled, deriv):
        motion = bundled.motion
        stamps = [-1.0, 0.0, bundled.duration_s]
        for imp in bundled.impacts[::6]:  # one per tier
            stamps += [imp.time_s + d for d in (-1.6, -0.03125, 0.002, 0.09, 1.7)]
        for stamp in stamps:
            t = np.array([stamp])
            for axes in (motion.omega_components, motion.q_components):
                for comps in axes:
                    assert axis_eval(comps, t, deriv).tobytes() == \
                        full_axis_sum(comps, t, deriv).tobytes()

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_t_ending_at_support_edge(self, windowed, side, shift):
        """``t`` ends at c -+ 28w, or one ulp off it, and lies outside the
        support beyond that end.  With a NaN amplitude, a skip that drops a
        sample the support mask keeps reads 0.0 where the mask reads NaN."""
        kept = 0
        for c in windowed:
            width = abs(c.width_s)
            edge = ulps(c.center_s + side * 28.0 * width, shift)
            t = edge + side * np.array([0.0, 0.5, 2.0]) * width
            for case in (t, t[[2, 0, 1]], t[:1]):
                for deriv in (False, True):
                    got = axis_eval((c,), case, deriv)
                    assert got.tobytes() == full_axis_sum((c,), case, deriv).tobytes()
                    got = axis_eval((probe(c),), case, deriv)
                    assert got.tobytes() == \
                        masked_axis_sum((probe(c),), case, deriv).tobytes()
                    kept += bool(np.isnan(got).any())
        if shift != side:  # one ulp outward the mask may keep no sample
            assert kept > 0

    @pytest.mark.parametrize("side", [-1, 1])
    def test_t_in_far_tail(self, windowed, side):
        """Between 20 and 27 widths from its center a term is tiny but not
        0.0, so alone on an axis it sets the sum."""
        for c in windowed:
            t = c.center_s + side * np.array([27.0, 21.0, 24.0]) * abs(c.width_s)
            for deriv in (False, True):
                want = full_axis_sum((c,), t, deriv)
                assert np.any(want != 0.0)
                assert axis_eval((c,), t, deriv).tobytes() == want.tobytes()

    @staticmethod
    def assert_as_masked(components, t):
        """_axis_eval of ``t`` equals the support mask's sum bit for bit, and
        the full sum on the finite stamps; each windowed component alone, as
        a NaN probe, is evaluated at exactly the stamps its mask keeps (never
        at a NaN stamp), and :func:`synth._support` of the sorted stamps is
        the mask's run."""
        finite = np.isfinite(t)
        ordered = np.sort(t)  # NaN last, as _axis_eval orders t
        for deriv in (False, True):
            with np.errstate(invalid="ignore"):  # sin(+-inf) of a full term
                got = axis_eval(components, t, deriv)
                assert got.tobytes() == masked_axis_sum(components, t, deriv).tobytes()
            assert got[finite].tobytes() == \
                full_axis_sum(components, t[finite], deriv).tobytes()
            for c in components:
                if c.width_s is None:
                    continue
                got = axis_eval((probe(c),), t, deriv)
                assert got.tobytes() == masked_axis_sum((probe(c),), t, deriv).tobytes()
                assert not np.any(got[~finite])
        for c in components:
            if c.width_s is None:
                continue
            reach = 28.0 * abs(c.width_s)
            live = np.flatnonzero(np.abs(ordered - c.center_s) <= reach)
            lo, hi = synth._support(ordered, c.center_s, reach)
            if len(live):
                assert (lo, hi) == (live[0], live[-1] + 1)
            else:
                assert lo == hi

    def test_duplicate_stamps(self, bundled, times, windowed):
        """Every stamp three times over, in order and shuffled."""
        t = np.repeat(times["sorted"][::16], 3)
        shuffled = np.random.default_rng(3).permutation(t)
        for case in (t, shuffled):
            self.assert_as_masked(windowed, case)
            for comps in bundled.motion.omega_components:
                self.assert_as_masked(comps, case)

    @pytest.mark.parametrize("gap", [1, 3])
    def test_stamps_a_few_ulps_apart(self, gap):
        """Near 1e12 s an ulp is 2**-13 s: a support holds from none to a few
        hundred stamps, and c -+ 28w round to stamps or between them."""
        ulp = float(np.spacing(1e12))
        t = 1e12 + gap * ulp * np.arange(-400.0, 401.0)
        comps = [HarmonicComponent(1.5, 30.0, phase=0.4,
                                   center_s=1e12 + shift * ulp, width_s=width)
                 for width in (1e-6, 4.4e-6, 1e-5, 3.3e-5, 1e-4, 1e-3)
                 for shift in (0.0, 0.3, 0.5, 1.0, 2.0, 1e3)]
        self.assert_as_masked(comps, t)
        self.assert_as_masked(comps, t[::-1])
        for c in comps:
            self.assert_as_masked((c,), t)

    def test_nan_and_inf_stamps(self, bundled, times, windowed):
        """NaN and +-inf at the ends and inside, in order and shuffled: no
        windowed term is evaluated at them."""
        grid = times["sorted"][::12]
        middle = len(grid) // 2
        cases = [
            np.concatenate([[-np.inf, -np.inf], grid, [np.inf, np.nan]]),
            np.insert(grid, [0, middle, middle, len(grid)],
                      [np.nan, np.inf, -np.inf, np.nan]),
            np.concatenate([[np.nan], grid]),
            np.full(4, np.nan),
            np.array([np.inf, -np.inf, np.nan, 0.5]),
        ]
        cases.append(np.random.default_rng(4).permutation(cases[0]))
        for t in cases:
            self.assert_as_masked(windowed, t)
            for comps in bundled.motion.q_components:
                self.assert_as_masked(comps, t)

    def test_descending_stamps(self, bundled, times):
        t = times["sorted"][::-1]
        for axes in (bundled.motion.omega_components, bundled.motion.q_components):
            for comps in axes:
                self.assert_as_masked(comps, t)

    @pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_support_end_between_equal_stamps(self, windowed, side, shift):
        """c -+ 28w, or a few ulps off it, three times over beside its
        neighbours: the slice ends at a run of equal stamps, whichever side
        of it the search starts.  With the centers mirrored too, a stamp one
        ulp past the rounded c + 28w is in the support for some."""
        for c in windowed + [replace(c, center_s=-c.center_s) for c in windowed]:
            edge = ulps(c.center_s + side * 28.0 * abs(c.width_s), shift)
            t = np.sort([c.center_s, ulps(edge, -2 * side), ulps(edge, -side),
                         edge, edge, edge, ulps(edge, side), ulps(edge, side),
                         ulps(edge, 2 * side)])
            self.assert_as_masked((c,), t)
            self.assert_as_masked((c,), t[::-1])

    @staticmethod
    def separate_derivative(c, t):
        """The derivative of ``c`` computed on its own, as
        HarmonicComponent.derivative computed it before
        value_and_derivative shared its arithmetic with value."""
        tau = t - c.center_s
        w = 2.0 * np.pi * c.freq_hz
        osc = np.sin(w * tau + c.phase)
        dosc = w * np.cos(w * tau + c.phase)
        if c.width_s is None:
            return c.amplitude * dosc
        env = np.exp(-((tau / c.width_s) ** 2))
        denv = -2.0 * tau / c.width_s ** 2 * env
        return c.amplitude * (denv * osc + env * dosc)

    def test_value_and_derivative_are_each_term_alone(self, bundled, times,
                                                      windowed):
        t = times["unsorted"]
        motion = bundled.motion
        comps = windowed + [c for axis in motion.omega_components + motion.q_components
                            for c in axis if c.width_s is None]
        for c in comps:
            value, derivative = c.value_and_derivative(t)
            assert value.tobytes() == c.value(t).tobytes()
            assert derivative.tobytes() == self.separate_derivative(c, t).tobytes()

    @pytest.mark.parametrize("order", ["sorted", "unsorted", "nan"])
    def test_omega_alpha_at_is_omega_at_and_alpha_at(self, bundled, times, order):
        t = times[order] if order != "nan" else np.insert(
            times["sorted"][::5], [0, 3000], np.nan)
        motion = bundled.motion
        omega, alpha = motion.omega_alpha_at(t)
        assert omega.tobytes() == motion.omega_at(t).tobytes()
        for k, comps in enumerate(motion.omega_components):
            want = np.column_stack([masked_axis_sum(comps, t),
                                    masked_axis_sum(comps, t, True)])
            assert np.column_stack([omega[:, k], alpha[:, k]]).tobytes() == \
                want.tobytes()


def full_truth_events(profile, config):
    """_truth_events with every component evaluated over the whole window."""
    events = []
    motion = profile.motion
    for imp in profile.impacts:
        t = imp.time_s + np.linspace(-config.window.pre,
                                     config.window.reference_post, 4001)
        w = np.column_stack([full_axis_sum(c, t) for c in motion.omega_components])
        alpha = np.column_stack([full_axis_sum(c, t, True)
                                 for c in motion.omega_components])
        q = np.column_stack([full_axis_sum(c, t) for c in motion.q_components])
        r = np.broadcast_to(np.asarray(config.reference_point, dtype=np.float64),
                            (len(t), 3))
        a4 = (np.cross(alpha, r) + np.cross(w, np.cross(w, r)) + q
              + np.asarray(profile.gravity, dtype=np.float64))
        events.append((imp.time_s, imp.label,
                       float(np.linalg.norm(w, axis=1).max()),
                       float(np.linalg.norm(alpha, axis=1).max()),
                       float(np.linalg.norm(a4, axis=1).max())))
    return events


def edge_probe_profile(config):
    """Motion whose only windowed terms lie just outside the truth window:
    tails 24 widths past its end (scaled so that their squares do not
    underflow in the peak norms), and a NaN probe whose support mask
    keeps only the window's first sample.  At the probe's width, c + 28w
    rounds to below that sample, so a skip that tests the rounded support
    end drops it.  No gravity, so the tails alone set the peaks."""
    t_imp = 0.25
    t = t_imp + np.linspace(-config.window.pre, config.window.reference_post,
                            4001)
    t_start, t_end = float(t[0]), float(t[-1])
    omega = tuple((HarmonicComponent(1e200, 20.0, phase=0.3,
                                     center_s=t_end + 24.0 * width,
                                     width_s=width),)
                  for width in (0.004, 0.05, 0.3))
    width = 0.01
    reach = 28.0 * width
    center = t_start - reach
    while abs(t_start - center) <= reach:  # walk out of the support ...
        center = ulps(center, -1)
    while abs(t_start - center) > reach:   # ... and back onto its edge
        center = ulps(center, 1)
    assert center + reach < t_start
    q = ((probe(HarmonicComponent(1.0, 20.0, center_s=center, width_s=width)),),
         (), ())
    return SessionProfile(motion=MotionProfile(omega, q),
                          impacts=(PlannedImpact(t_imp, "probe"),),
                          duration_s=1.0, gravity=(0.0, 0.0, 0.0))


class TestTruthEvents:
    """The analytic peaks equal those of the full per-component evaluation."""

    @pytest.mark.parametrize("name", ["bundled", "spaced", "edge_probe"])
    def test_equals_full_evaluation(self, config, name):
        if name == "bundled":
            data = files("kinereco") / "profiles"
            profile = load_profile(data / "field_session_18.json")
            # The noisy and the clean bundled profile share their motion, and
            # the truth depends on nothing else in a profile but gravity.
            clean = load_profile(data / "field_session_18_clean.json")
            assert (clean.motion, clean.gravity) == (profile.motion, profile.gravity)
        elif name == "spaced":
            profile = standard_session_profile(spacing_s=6.0, n_per_tier=2)
        else:
            profile = edge_probe_profile(config)
        got = [(e.t0, e.label, e.prv, e.pra, e.pla)
               for e in _truth_events(profile, config)]
        want = full_truth_events(profile, config)
        assert [g[:2] for g in got] == [w[:2] for w in want]
        assert np.array([g[2:] for g in got]).tobytes() == \
            np.array([w[2:] for w in want]).tobytes()
        if name == "edge_probe":
            prv, pra, pla = got[0][2:]
            assert 0.0 < prv < 1e-40 and 0.0 < pra < 1e-40 and np.isnan(pla)


class TestBurstWaveform:
    """On a zero base every sample is live: the burst evaluated only until its
    decay underflows equals the tones evaluated over the whole post-impact
    span, column after column, and draws the same numbers."""

    BURSTS = pytest.mark.parametrize("burst", [
        BurstSpec(center_hz=300.0, bandwidth_hz=140.0, duration_s=0.015),
        BurstSpec(center_hz=500.0, bandwidth_hz=50.0, duration_s=0.0004,
                  n_tones=5),
    ])

    @staticmethod
    def check(burst, amplitude, columns):
        grid = np.arange(-1600, 8001) / 1600.0  # -1 s .. 5 s, past 750 tau
        unsorted = np.random.default_rng(4).permutation(grid)
        for t_rel in (grid, unsorted):
            rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
            base = np.zeros((len(t_rel), columns))
            got = _burst_waveform(t_rel, base, burst, amplitude, rng)
            want = np.column_stack([
                full_burst_waveform(t_rel, burst, amplitude, ref_rng)
                for _ in range(columns)])
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @BURSTS
    @pytest.mark.parametrize("amplitude", [25.0, -2.5])
    def test_equals_full_evaluation(self, burst, amplitude):
        self.check(burst, amplitude, columns=1)

    @BURSTS
    def test_columns_draw_in_turn(self, burst):
        self.check(burst, -2.5, columns=3)


def full_grid_channel_noise(times, sigma, burst_amp, noise, impact_times, rng):
    """_channel_noise as it was before the burst window: every burst is
    evaluated over the whole session grid, every tone at every sample."""
    out = np.zeros((len(times), 3))
    if sigma > 0.0:
        out += rng.normal(scale=sigma, size=out.shape)
    if burst_amp > 0.0:
        for t_imp in impact_times:
            t_rel = times - t_imp
            for axis in range(3):
                out[:, axis] += full_burst_waveform(t_rel, noise.burst,
                                                    burst_amp, rng)
    return out


def tiny_base(rng, n):
    """Values near +-0.0: zeros of both signs, subnormals, the smallest
    normal, and the region where the skip rule starts to apply."""
    pool = np.array([0.0, 5e-324, 2.0 ** -1050, 2.0 ** -1022, 1e-300,
                     2.0 ** -945, 2.0 ** -943, 2.0 ** -900, 1e-200])
    return rng.choice(pool, size=(n, 3)) * rng.choice([-1.0, 1.0], size=(n, 3))


class TestChannelNoiseWindow:
    """Each burst evaluated only over its window, and only where it can move
    the noise it is added to, equals the burst added over the whole grid,
    and leaves the generator in the same state."""

    #: Before t = 0, on a sample, between samples, within 750 tau of the end
    #: for either duration, and past the end; 1.0 and 1.0 + 1/6400 overlap.
    IMPACTS = (-0.5, -1e-9, 0.0, 1.0, 1.0 + 1.0 / 6400.0, 2.4, 5.95, 6.0, 7.0)

    @pytest.mark.parametrize("rate", [3200.0, 1000.0])
    @pytest.mark.parametrize("burst", [
        BurstSpec(gyro_amplitude=25.0, duration_s=0.015),
        BurstSpec(gyro_amplitude=25.0, center_hz=500.0, bandwidth_hz=50.0,
                  duration_s=0.0004, n_tones=5),
    ], ids=["default", "short_5_tones"])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_equals_full_grid(self, rate, burst, sigma):
        times = np.arange(int(6.0 * rate) + 1) / rate
        noise = NoiseSpec(gyro_sigma=sigma, burst=burst)
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        got = _channel_noise(times, sigma, 25.0, noise, self.IMPACTS, rng)
        want = full_grid_channel_noise(times, sigma, 25.0, noise, self.IMPACTS,
                                       ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("sigma", [0.0, 1e-6, 0.04])
    def test_overlapping_bursts(self, sigma):
        """Later bursts land on earlier ones still ringing: on a zero base
        (sigma = 0) each burst's base is the bursts before it."""
        rate = 1600.0
        times = np.arange(int(2.0 * rate) + 1) / rate
        impacts = (0.2, 0.2, 0.2 + 0.5 / rate, 0.201, 0.23, 0.5)
        noise = NoiseSpec(gyro_sigma=sigma, burst=BurstSpec(
            gyro_amplitude=3.0, duration_s=0.015, n_tones=4))
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = _channel_noise(times, sigma, 3.0, noise, impacts, rng)
        want = full_grid_channel_noise(times, sigma, 3.0, noise, impacts, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_randomized_cases(self):
        """Random rates, sigmas, amplitudes, tone counts and clusters of
        overlapping impacts."""
        rng = np.random.default_rng(2024)
        for _ in range(80):
            rate = float(rng.choice([1000.0, 1125.0, 1600.0, 3200.0]))
            times = np.arange(int(1.5 * rate) + 1) / rate
            sigma = float(rng.choice([0.0, 1e-6, 0.04, 0.6, 3.0]))
            amp = float(10.0 ** rng.uniform(-3.0, np.log10(400.0)))
            burst = BurstSpec(gyro_amplitude=amp,
                              center_hz=rng.uniform(100.0, 450.0),
                              bandwidth_hz=rng.uniform(10.0, 150.0),
                              duration_s=float(rng.choice([0.0004, 0.005, 0.015])),
                              n_tones=int(rng.integers(1, 6)))
            first = rng.uniform(-0.05, 1.4)
            impacts = tuple(first + np.cumsum(rng.exponential(0.01,
                                                              rng.integers(1, 8))))
            noise = NoiseSpec(gyro_sigma=sigma, burst=burst)
            seed = int(rng.integers(1 << 30))
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _channel_noise(times, sigma, amp, noise, impacts, got_rng)
            want = full_grid_channel_noise(times, sigma, amp, noise, impacts, ref_rng)
            assert got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("base_kind", [
        "power_of_two", "negative_power_of_two", "near_zero", "gaussian"])
    @pytest.mark.parametrize("amplitude", [25.0, -25.0, 1e-3, -400.0])
    def test_burst_on_base(self, base_kind, amplitude):
        """base + burst equals base + the full burst, on bases the noise
        cannot be steered to: exact powers of two (where the ulp below is
        half the ulp above), values near +-0.0, and negative amplitudes."""
        rate = 3200.0
        t_rel = np.arange(-3, int(0.3 * rate)) / rate
        n = len(t_rel)
        rng = np.random.default_rng(11)
        base = {
            "power_of_two": np.full((n, 3), [1.0, 0.5, 2.0 ** -30]),
            "negative_power_of_two": np.full((n, 3), [-1.0, -0.5, -2.0 ** -30]),
            "near_zero": tiny_base(rng, n),
            "gaussian": rng.normal(scale=0.04, size=(n, 3)),
        }[base_kind]
        burst = BurstSpec(center_hz=300.0, bandwidth_hz=140.0, duration_s=0.015)
        got_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = base + _burst_waveform(t_rel, base, burst, amplitude, got_rng)
        want = base + np.column_stack([
            full_burst_waveform(t_rel, burst, amplitude, ref_rng)
            for _ in range(3)])
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_simulate_sensors_with_clock_offset(self, config, monkeypatch):
        noise = NoiseSpec(gyro_sigma=0.05, accel_sigma=0.5, burst=BurstSpec(
            gyro_amplitude=4.0, accel_amplitude=60.0, n_tones=5))
        motion = standard_session_profile(seed=3, n_per_tier=1).motion
        kwargs = dict(seed=4, impact_times=(0.1, 1.3, 2.9),
                      clock_offset=0.0123)
        specs = list(config.headband_sensors)
        got = simulated(motion, specs, noise, 3.0, **kwargs)
        monkeypatch.setattr(synth, "_channel_noise", full_grid_channel_noise)
        want = simulated(motion, specs, noise, 3.0, **kwargs)
        for rec, ref in zip(got, want):
            for kind in ("gyro", "accel_low", "accel_high"):
                a, b = getattr(rec, kind), getattr(ref, kind)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.samples.tobytes() == b.samples.tobytes()
