import json
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
from kinereco import synth
from kinereco.synth import (BurstSpec, HarmonicComponent, MotionProfile,
                            NoiseSpec, PlannedImpact, SessionProfile,
                            _axis_eval, _burst_waveform, _channel_noise,
                            _truth_events, load_profile, dump_profile,
                            simulate_sensors, standard_session_profile,
                            write_session)


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


    def test_noise_keyed_by_sensor_index(self, config):
        noise = NoiseSpec(gyro_sigma=0.1)
        specs = list(config.headband_sensors)
        pair = simulate_sensors(still_motion(), specs[:2], noise, 0.1, seed=3)
        alone = simulate_sensors(still_motion(), specs[1:2], noise, 0.1, seed=3)
        longer = simulate_sensors(still_motion(), specs[:3], noise, 0.1, seed=3)
        assert np.array_equal(pair[1].gyro.samples, longer[1].gyro.samples)
        assert not np.array_equal(pair[1].gyro.samples, alone[0].gyro.samples)


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


def masked_axis_sum(components, t, deriv=False):
    """_axis_eval before whole components were skipped: every windowed
    component runs its support mask over the whole of ``t``."""
    out = np.zeros_like(t)
    for c in components:
        term = c.derivative if deriv else c.value
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

    def test_empty_t_gives_zeros(self, bundled):
        t = np.array([])
        motion = bundled.motion
        for axes in (motion.omega_components, motion.q_components):
            for comps in axes:
                for deriv in (False, True):
                    got = _axis_eval(comps, t, deriv)
                    assert got.dtype == np.float64 and got.shape == (0,)
        for got in (motion.omega_at(t), motion.alpha_at(t), motion.q_at(t)):
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
                    assert _axis_eval(comps, t, deriv).tobytes() == \
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
                    got = _axis_eval((c,), case, deriv)
                    assert got.tobytes() == full_axis_sum((c,), case, deriv).tobytes()
                    got = _axis_eval((probe(c),), case, deriv)
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
                assert _axis_eval((c,), t, deriv).tobytes() == want.tobytes()


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
        got = simulate_sensors(motion, specs, noise, 3.0, **kwargs)
        monkeypatch.setattr(synth, "_channel_noise", full_grid_channel_noise)
        want = simulate_sensors(motion, specs, noise, 3.0, **kwargs)
        for rec, ref in zip(got, want):
            for kind in ("gyro", "accel_low", "accel_high"):
                a, b = getattr(rec, kind), getattr(ref, kind)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.samples.tobytes() == b.samples.tobytes()
