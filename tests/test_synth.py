from dataclasses import replace
from importlib.resources import files

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kinereco.core import TimeSeries3, magnitude
from kinereco.detect import detect_impacts
from kinereco.errors import DataError
from kinereco.ingest import G_STANDARD, parse_imu_csv, parse_reference_csv
from kinereco.kinematics import adaptive_filter
from kinereco.synth import (BurstSpec, HarmonicComponent, MotionProfile,
                            NoiseSpec, _axis_eval, _burst_waveform,
                            load_profile, dump_profile, simulate_sensors,
                            standard_session_profile, write_session)


def still_motion():
    empty = ((), (), ())
    return MotionProfile(omega_components=empty, q_components=empty)


class TestSimulateSensors:
    def test_static_head_reads_gravity_in_sensor_frame(self, config):
        g = np.array([0.0, 0.0, -G_STANDARD])
        recs = simulate_sensors(still_motion(), list(config.headband_sensors),
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
        recs = simulate_sensors(motion, list(config.headband_sensors),
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
        recs = simulate_sensors(still_motion(), list(config.sensors),
                                NoiseSpec(), 0.1, seed=0)
        by_id = {r.sensor_id: r for r in recs}
        assert by_id["bt_back"].gyro.sample_rate == 1125.0
        assert by_id["bt_back"].accel_high.sample_rate == 1600.0
        assert by_id["mouthpiece"].gyro.sample_rate == 3200.0

    def test_noise_deterministic_per_seed(self, config):
        noise = NoiseSpec(gyro_sigma=0.1, accel_sigma=1.0)
        a = simulate_sensors(still_motion(), list(config.headband_sensors),
                             noise, 0.1, seed=3)
        b = simulate_sensors(still_motion(), list(config.headband_sensors),
                             noise, 0.1, seed=3)
        c = simulate_sensors(still_motion(), list(config.headband_sensors),
                             noise, 0.1, seed=4)
        assert np.array_equal(a[0].gyro.samples, b[0].gyro.samples)
        assert not np.array_equal(a[0].gyro.samples, c[0].gyro.samples)


class TestWriteSession:
    def test_round_trip_through_files(self, tmp_path, config, clean_session_small):
        sim = clean_session_small
        out = tmp_path / "session"
        write_session(list(sim.headband) + list(sim.reference_blocks), config, out)
        spec = config.sensor("bt_back")
        back = parse_imu_csv(out / "bt_back.csv", spec)
        orig = sim.headband[[s.id for s in config.headband_sensors].index("bt_back")]
        assert_allclose(back.gyro.samples, orig.gyro.samples, atol=1e-9)
        assert_allclose(back.accel_high.samples, orig.accel_high.samples, atol=1e-9)
        ref_spec = config.reference_sensor
        block = parse_reference_csv(out / f"{ref_spec.id}_ev001.csv", ref_spec)
        assert_allclose(block.gyro.samples, sim.reference_blocks[0].gyro.samples,
                        atol=1e-9)

    def test_empty_recording_list_rejected(self, tmp_path, config):
        with pytest.raises(DataError):
            write_session([], config, tmp_path / "nothing")

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
        assert_allclose(back.motion.alpha_at(t), profile.motion.alpha_at(t),
                        atol=1e-12)

    def test_analytic_derivative_matches_numeric(self):
        profile = standard_session_profile(seed=2, with_noise=False, n_per_tier=1)
        t = np.linspace(0.5, 2.5, 20001)
        dt = t[1] - t[0]
        omega = profile.motion.omega_at(t)
        alpha = profile.motion.alpha_at(t)
        numeric = np.gradient(omega, dt, axis=0)
        scale = np.abs(alpha).max()
        assert np.abs(alpha[2:-2] - numeric[2:-2]).max() / scale < 1e-4


class TestBundledData:
    def test_bundled_profiles_match_generator(self):
        from importlib.resources import files
        from kinereco.synth import profile_to_json_dict
        import json as json_mod
        data = files("kinereco") / "profiles"
        for name, with_noise in (("field_session_18.json", True),
                                 ("field_session_18_clean.json", False)):
            bundled = json_mod.loads((data / name).read_text())
            assert bundled == profile_to_json_dict(
                standard_session_profile(with_noise=with_noise))

    def test_bundled_config_matches_generator(self, config):
        from importlib.resources import files
        from kinereco.synth import config_to_json_dict
        import json as json_mod
        bundled = json_mod.loads(
            (files("kinereco") / "profiles" / "field_config.json").read_text())
        assert bundled == config_to_json_dict(config)


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
            rec = simulate_sensors(motion, [spec], noise, 2.5, seed=1,
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


def full_axis_sum(components, t, deriv=False):
    """Every component evaluated over the whole of ``t``, envelope or not."""
    out = np.zeros_like(t)
    for c in components:
        out += c.derivative(t) if deriv else c.value(t)
    return out


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
    """Terms skipped where their envelope is exactly 0.0 leave every sample
    bit for bit equal to the full per-component sum."""

    @pytest.fixture(scope="class")
    def bundled(self):
        return load_profile(files("kinereco") / "profiles" / "field_session_18.json")

    @pytest.fixture(scope="class")
    def times(self, bundled):
        sorted_t = np.arange(int(bundled.duration_s * 1600.0) + 1) / 1600.0
        rng = np.random.default_rng(17)
        unsorted_t = rng.uniform(-1.0, bundled.duration_s + 1.0, 20000)
        return {"sorted": sorted_t, "unsorted": unsorted_t}

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
                assert _axis_eval(comps, t, deriv).tobytes() == \
                    full_axis_sum(comps, t, deriv).tobytes()

    def test_public_motion_api_with_negative_widths(self, bundled, times):
        motion = bundled.motion
        flipped = MotionProfile(self.negated_widths(motion.omega_components),
                                self.negated_widths(motion.q_components))
        t = times["unsorted"]
        for got, axes, deriv in (
                (flipped.omega_at(t), motion.omega_components, False),
                (flipped.alpha_at(t), motion.omega_components, True),
                (flipped.q_at(t), motion.q_components, False)):
            want = np.column_stack([full_axis_sum(c, t, deriv) for c in axes])
            assert got.tobytes() == want.tobytes()


class TestBurstWaveform:
    """The burst evaluated only until its decay underflows equals the tones
    evaluated over the whole post-impact span, and draws the same numbers."""

    @pytest.mark.parametrize("burst", [
        BurstSpec(center_hz=300.0, bandwidth_hz=140.0, duration_s=0.015),
        BurstSpec(center_hz=500.0, bandwidth_hz=50.0, duration_s=0.0004,
                  n_tones=5),
    ])
    @pytest.mark.parametrize("amplitude", [25.0, -2.5])
    def test_equals_full_evaluation(self, burst, amplitude):
        grid = np.arange(-1600, 8001) / 1600.0  # -1 s .. 5 s, past 750 tau
        unsorted = np.random.default_rng(4).permutation(grid)
        for t_rel in (grid, unsorted):
            rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
            got = _burst_waveform(t_rel, burst, amplitude, rng)
            want = full_burst_waveform(t_rel, burst, amplitude, ref_rng)
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
