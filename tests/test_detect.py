import numpy as np
import pytest

from kinereco import detect
from kinereco.core import TimeSeries1, TimeSeries3, magnitude, sample_on_grid
from kinereco.detect import (_clip_scalar, align_events, detect_impacts,
                             extract_window, refine_offset)
from kinereco.errors import WindowError
from kinereco.ingest import G_STANDARD, ImuRecording
from kinereco.pipeline import detect_session
from kinereco.synth import simulate_session, standard_session_profile

THREE_G = 3.0 * G_STANDARD


def pulse_series(rate=1600.0, duration=4.0, pulses=(), base=G_STANDARD):
    """Rectangular pulses (t_start, width_s, level) on a 1 g baseline."""
    t = np.arange(int(duration * rate)) / rate
    values = np.full_like(t, base)
    for t0, width, level in pulses:
        values[(t >= t0) & (t < t0 + width)] = level
    return TimeSeries1(0.0, rate, values)


class TestDetectImpacts:
    def test_constant_one_g_yields_nothing(self):
        s = pulse_series()
        assert detect_impacts(s, THREE_G, 0.003) == []

    def test_10ms_5g_pulse_detected_at_onset(self):
        s = pulse_series(pulses=[(2.000, 0.010, 5 * G_STANDARD)])
        events = detect_impacts(s, THREE_G, 0.003)
        assert len(events) == 1
        assert abs(events[0] - 2.000) <= 1.0 / s.sample_rate

    def test_2ms_pulse_rejected_by_duration_rule(self):
        s = pulse_series(pulses=[(2.000, 0.002, 5 * G_STANDARD)])
        assert detect_impacts(s, THREE_G, 0.003) == []

    def test_close_runs_suppressed_by_separation(self):
        s = pulse_series(pulses=[(1.0, 0.010, 5 * G_STANDARD),
                                 (1.05, 0.010, 5 * G_STANDARD),
                                 (2.0, 0.010, 5 * G_STANDARD)])
        events = detect_impacts(s, THREE_G, 0.003, min_separation=0.18125)
        assert [round(t0, 3) for t0 in events] == [1.0, 2.0]

    def test_count_matches_injected_supra_threshold_pulses(self):
        rng = np.random.default_rng(2)
        t0s = np.sort(rng.uniform(0.5, 9.0, size=6))
        while np.any(np.diff(t0s) < 0.5):
            t0s = np.sort(rng.uniform(0.5, 9.0, size=6))
        pulses = [(t0, 0.008, 6 * G_STANDARD) for t0 in t0s]
        pulses += [(t0 + 0.3, 0.001, 6 * G_STANDARD) for t0 in t0s]  # too short
        s = pulse_series(duration=10.0, pulses=pulses)
        events = detect_impacts(s, THREE_G, 0.003, min_separation=0.18125)
        assert len(events) == 6

    def test_invariant_under_time_shift(self):
        s = pulse_series(pulses=[(2.0, 0.010, 5 * G_STANDARD)])
        shifted = TimeSeries1(s.start_time + 11.25, s.sample_rate, s.values)
        e0 = detect_impacts(s, THREE_G, 0.003)[0]
        e1 = detect_impacts(shifted, THREE_G, 0.003)[0]
        assert e1 - e0 == pytest.approx(11.25)

    def test_matches_bruteforce_run_scan_on_random_signals(self):
        # oracle: explicit run-length scan with the same duration/suppression
        # semantics, sample by sample
        def brute_force(values, dt, threshold, min_dur, min_sep):
            events, i, last = [], 0, -np.inf
            while i < len(values):
                if values[i] > threshold:
                    j = i
                    while j < len(values) and values[j] > threshold:
                        j += 1
                    if (j - 1 - i) * dt > min_dur and i * dt - last >= min_sep:
                        events.append(i * dt)
                        last = i * dt
                    i = j
                else:
                    i += 1
            return events

        rng = np.random.default_rng(10)
        for _ in range(30):
            rate = 800.0
            values = np.abs(rng.normal(28.0, 6.0, size=2000))
            s = TimeSeries1(0.0, rate, values)
            got = detect_impacts(s, THREE_G, 0.003, min_separation=0.05)
            expected = brute_force(values, 1.0 / rate, THREE_G, 0.003, 0.05)
            assert got == pytest.approx(expected)


def recording_with_pulse(rate=1600.0, duration=3.0, t0=1.5):
    t = np.arange(int(duration * rate)) / rate
    accel = np.zeros((len(t), 3))
    accel[:, 2] = G_STANDARD
    accel[(t >= t0) & (t < t0 + 0.01), 0] = 8 * G_STANDARD
    gyro = np.zeros((len(t), 3))
    return ImuRecording("imu1", TimeSeries3(0.0, rate, gyro),
                        accel_low=None,
                        accel_high=TimeSeries3(0.0, rate, accel))


class TestExtractWindow:
    def test_event_at_recording_start_rejected(self):
        rec = recording_with_pulse()
        with pytest.raises(WindowError, match="gyro"):
            extract_window(rec, 0.01, 0.03125, 0.150)

    def test_window_length_and_relative_clock(self):
        rec = recording_with_pulse()
        win = extract_window(rec, 1.5, 0.03125, 0.150)
        span = win.gyro.end_time - win.gyro.start_time
        assert abs(span - 0.18125) <= 1.0 / rec.gyro.sample_rate
        assert win.gyro.start_time == pytest.approx(-0.03125, abs=1e-3)
        assert win.gyro.sample_rate == rec.gyro.sample_rate

    def test_windows_line_up_with_injected_impacts(self, config, clean_session_small):
        profile_events = clean_session_small.truth
        recs = {r.sensor_id: r for r in clean_session_small.headband}
        rec = recs["bt_back"]
        trig = magnitude(rec.trigger_accel)
        events = detect_impacts(trig, config.trigger.threshold,
                                config.trigger.min_duration, min_separation=0.2)
        assert len(events) == len(profile_events)
        for t0, truth in zip(events, profile_events):
            win = extract_window(rec, t0, 0.03125, 0.150)
            mag = magnitude(win.trigger_accel)
            onset = mag.times[mag.values > config.trigger.threshold][0]
            assert abs(onset) <= 2.0 / rec.trigger_accel.sample_rate
            assert abs(t0 - truth.t0) < 0.02


def pair_plain(hb_t0, ref_t0, max_offset):
    """``align_events`` on all-zero magnitude series, which give no lag, so
    each pair keeps its raw trigger-time difference."""
    zeros = TimeSeries1(-1.0, 1000.0, np.zeros(40_000))
    return align_events(hb_t0, ref_t0, max_offset, zeros,
                        [zeros] * len(ref_t0), 0.03125, 0.09375)


class TestAlignEvents:
    def test_identical_lists_fully_paired(self):
        times = [1.0, 2.0, 3.0]
        pairs = pair_plain(times, times, 0.5)
        assert [(i, j) for i, j, _ in pairs] == [(0, 0), (1, 1), (2, 2)]
        assert all(offset == 0.0 for _, _, offset in pairs)

    def test_uniform_shift_paired_with_offset(self):
        times = [1.5, 2.5, 3.5]
        pairs = pair_plain(times, [t - 0.5 for t in times], 1.0)
        assert len(pairs) == 3
        assert all(offset == pytest.approx(0.5) for _, _, offset in pairs)

    def test_pairing_symmetric_under_swap(self):
        rng = np.random.default_rng(4)
        a = [float(t) for t in np.sort(rng.uniform(0, 30, 8))]
        b = [float(t + rng.normal(0, 0.05)) for t in
             np.sort(rng.uniform(0, 30, 10))]
        pairs_ab = pair_plain(a, b, 0.4)
        pairs_ba = pair_plain(b, a, 0.4)
        assert pairs_ab
        assert {(i, j) for i, j, _ in pairs_ab} == \
            {(i, j) for j, i, _ in pairs_ba}

    def test_pairs_in_headband_order(self):
        pairs = pair_plain([3.0, 1.0, 2.0], [1.1, 2.1, 2.9], 0.5)
        assert [(i, j) for i, j, _ in pairs] == [(1, 0), (2, 1), (0, 2)]

    def test_out_of_tolerance_events_stay_unpaired(self):
        assert pair_plain([1.0], [3.0], 0.5) == []


class TestOffsetRefinement:
    def test_refine_offset_recovers_injected_lag(self):
        rate = 3200.0
        t = np.arange(int(0.125 * rate)) / rate - 0.03125
        shape = np.exp(-(((t - 0.004) / 0.006) ** 2)) * 120.0 + G_STANDARD
        a = TimeSeries1(t[0], rate, np.interp(t - 0.0025, t, shape))
        b = TimeSeries1(t[0], rate, shape)
        lag = refine_offset(a, b)
        assert lag == pytest.approx(0.0025, abs=1.0 / rate)

    def test_pair_offset_refined_from_late_trigger(self):
        rate = 3200.0
        t = np.arange(int(2.0 * rate)) / rate
        def bump(center):
            return np.exp(-(((t - center) / 0.004) ** 2)) * 120.0 + G_STANDARD
        ref = TimeSeries1(0.0, rate, bump(1.0))
        hb = TimeSeries1(0.0, rate, bump(1.05))
        # The headband trigger fired 2 ms late: raw difference 52 ms.
        (_, _, offset), = align_events([1.052], [1.0], 0.1, hb, [ref],
                                       0.03125, 0.09375)
        assert offset == pytest.approx(0.050, abs=0.5 / rate)

    @pytest.mark.parametrize("start, t0", [(0.0, 1.0), (0.1, 1.2345678),
                                           (-3.3, -2.0071), (12.5, 40.0 / 3.0)])
    def test_clip_matches_clip_of_shifted_clock(self, start, t0):
        rate = 3200.0
        ts = TimeSeries1(start, rate, np.arange(9600.0))
        shifted = TimeSeries1(ts.start_time - t0, rate, ts.values)
        lo, hi = -0.03125, 0.09375
        i0 = max(0, int(np.ceil((lo - shifted.start_time) * rate - 1e-9)))
        i1 = int(np.floor((hi - shifted.start_time) * rate + 1e-9))
        clip = _clip_scalar(ts, t0, lo, hi)
        assert repr(clip.start_time) == repr(shifted.start_time + i0 / rate)
        assert np.array_equal(clip.values, shifted.values[i0:i1 + 1])

    def test_clock_skew_recovered_on_full_session(self, config, skewed_session):
        sim = skewed_session
        recs = {r.sensor_id: r for r in sim.headband}
        trig = magnitude(recs["bt_back"].trigger_accel)
        hb_events = detect_impacts(trig, config.trigger.threshold,
                                   config.trigger.min_duration,
                                   min_separation=0.18125)
        ref_events = []
        ref_mag_parts = []
        for block in sim.reference_blocks:
            block_trig = magnitude(block.trigger_accel)
            ref_mag_parts.append(block_trig)
            found = detect_impacts(block_trig, config.trigger.threshold,
                                   config.trigger.min_duration)
            ref_events.append(found[0])
        assert len(hb_events) == len(ref_events) == 18

        pairs = align_events(hb_events, ref_events, 0.5, trig, ref_mag_parts,
                             config.window.pre, config.window.reference_post)
        assert [(i, j) for i, j, _ in pairs] == [(k, k) for k in range(18)]
        offsets = np.array([offset for _, _, offset in pairs])
        assert np.abs(offsets - 0.020).max() < 0.001


def stitched(series: list[TimeSeries1]) -> TimeSeries1:
    """The reference blocks on one stream, the gaps bridged with zeros, as
    alignment cut its windows from before each block was aligned alone."""
    series = sorted(series, key=lambda s: s.start_time)
    rate = series[0].sample_rate
    t0 = series[0].start_time
    t1 = max(s.end_time for s in series)
    n = int(round((t1 - t0) * rate)) + 1
    values = np.zeros(n)
    for s in series:
        i0 = int(round((s.start_time - t0) * rate))
        values[i0:i0 + len(s)] = s.values
    return TimeSeries1(t0, rate, values)


def stitched_offsets(pairs, hb_t0, ref_t0, hb_mag, ref_mags, pre,
                     post) -> list[float]:
    """Each pair's offset refined over the stitched stream of ``ref_mags``."""
    stream = stitched(ref_mags)
    out = []
    for i, j, _ in pairs:
        offset = hb_t0[i] - ref_t0[j]
        try:
            offset += refine_offset(
                _clip_scalar(hb_mag, hb_t0[i], -pre, post),
                _clip_scalar(stream, ref_t0[j], -pre, post))
        except WindowError:
            pass
        out.append(offset)
    return out


@pytest.fixture(scope="module")
def noisy_session_small(config):
    profile = standard_session_profile(seed=13, with_noise=True, n_per_tier=1)
    return simulate_session(profile, config, seed=3)


class TestPerBlockAlignment:
    """Each pair is aligned on its own reference block."""

    @pytest.mark.parametrize("session", ["clean_session_small",
                                         "noisy_session_small",
                                         "skewed_session"])
    def test_offsets_equal_the_stitched_stream_bit_for_bit(
            self, request, config, monkeypatch, session):
        sim = request.getfixturevalue(session)
        calls = []

        def spy(*args):
            calls.append((args, align_events(*args)))
            return calls[-1][1]

        monkeypatch.setattr(detect, "align_events", spy)
        detect_session(config, {r.sensor_id: r for r in sim.headband},
                       list(sim.reference_blocks), 0.5)
        ((hb_t0, ref_t0, _, hb_mag, ref_mags, pre, post), pairs), = calls
        assert len(pairs) == len(sim.profile.impacts)
        expected = stitched_offsets(pairs, hb_t0, ref_t0, hb_mag, ref_mags,
                                    pre, post)
        assert [offset.hex() for _, _, offset in pairs] == \
            [e.hex() for e in expected]

    def test_window_overhanging_its_block(self):
        """Each reference block, cut from 100 samples before 1 s or 2 s,
        triggers 15 samples after its start, so the [-31.25, +93.75] ms
        window around that trigger starts 85 samples before the block.  The stitched
        stream clamped the first block's window to the stream and filled the
        second's with bridged zeros, which moved its lag by one sample; each
        block alone gives both pairs the same lag."""
        rate, pre, post = 3200.0, 0.03125, 0.09375
        t = np.arange(int(3.0 * rate)) / rate

        def bumps(shift, extra=()):
            values = np.full_like(t, G_STANDARD)
            for t0, width, height in [
                    (c + d, w, h) for c in (1.0, 2.0) for d, w, h in
                    ((-0.025, 0.002, 40.0), (0.004, 0.004, 30.0))] + list(extra):
                values += np.exp(-(((t - shift - t0) / width) ** 2)) * height
            return TimeSeries1(0.0, rate, values)

        ref = bumps(0.0)
        # The headband also shows a small bump before its trigger.
        hb = bumps(0.003, [(c - 0.033, 0.002, 15.0) for c in (1.0, 2.0)])
        blocks = [ref.part(round(c * rate) - 100, round(c * rate) + 300)
                  for c in (1.0, 2.0)]
        ref_events = [detect_impacts(b, THREE_G, 0.003)[0] for b in blocks]
        assert [t0 - b.start_time for t0, b in zip(ref_events, blocks)] == \
            pytest.approx([15 / rate] * 2)
        hb_events = detect_impacts(hb, THREE_G, 0.003, min_separation=0.18)
        pairs = align_events(hb_events, ref_events, 0.5, hb, blocks, pre, post)
        raw = [hb_events[i] - ref_events[j] for i, j, _ in pairs]
        assert [round(r * rate, 6) for r in raw] == [10.0, 10.0]
        assert [offset for _, _, offset in pairs] == raw
        old = stitched_offsets(pairs, hb_events, ref_events, hb, blocks, pre,
                               post)
        assert [round((o - r) * rate, 6) for o, r in zip(old, raw)] == \
            [0.0, -1.0]


def full_scan_refine_offset(hb_mag, ref_mag, max_lag=0.010):
    """refine_offset as it was before the lag screen: every lag scored."""
    rate = max(hb_mag.sample_rate, ref_mag.sample_rate)
    lo = max(hb_mag.start_time, ref_mag.start_time)
    hi = min(hb_mag.end_time, ref_mag.end_time)
    n = int(np.floor((hi - lo) * rate)) + 1
    grid = lo + np.arange(n) / rate
    a = sample_on_grid(hb_mag, grid).values
    b = sample_on_grid(ref_mag, grid).values
    a = a - a.mean()
    b = b - b.mean()
    max_shift = max(1, int(round(max_lag * rate)))
    best_lag, best_rho = 0, -np.inf
    for s in range(-max_shift, max_shift + 1):
        if s >= 0:
            x, y = a[s:], b[:n - s]
        else:
            x, y = a[:n + s], b[-s:]
        denom = np.linalg.norm(x) * np.linalg.norm(y)
        rho = float(x @ y) / denom if denom > 0 else 0.0
        if rho > best_rho or (rho == best_rho and abs(s) < abs(best_lag)):
            best_rho, best_lag = rho, s
    return best_lag / rate


def refine_cases():
    """(id, headband series, reference series) pairs for the lag search."""
    rng = np.random.default_rng(77)
    rate = 3200.0
    t = np.arange(int(0.125 * rate)) / rate - 0.03125
    shape = np.exp(-(((t - 0.004) / 0.006) ** 2)) * 120.0 + G_STANDARD
    for lag in (-0.012, -0.0025, 0.0, 0.001, 0.0093, 0.02):
        noisy = np.interp(t - lag, t, shape) + rng.normal(scale=2.0, size=len(t))
        yield (f"pulse_lag_{lag}", TimeSeries1(t[0], rate, noisy),
               TimeSeries1(t[0], rate, shape))
    yield ("noise", TimeSeries1(t[0], rate, rng.normal(size=len(t))),
           TimeSeries1(t[0], rate, rng.normal(size=len(t))))
    # Different rates and partly overlapping supports: resampled first.
    t_hb = np.arange(int(0.125 * 1600.0)) / 1600.0 - 0.03
    yield ("mixed_rates",
           TimeSeries1(t_hb[0], 1600.0, np.interp(t_hb - 0.003, t, shape)),
           TimeSeries1(t[0], rate, shape))
    # Six samples against a +/-32 sample search: |s| >= n is scanned.
    yield ("short", TimeSeries1(0.0, rate, [1.0, 3.0, 2.0, 5.0, 4.0, 1.0]),
           TimeSeries1(0.0, rate, [2.0, 1.0, 4.0, 3.0, 1.0, 2.0]))
    # A pulse against copies one sample either side: +1 and -1 tie.
    ref = np.zeros(64)
    ref[32] = 1.0
    yield ("symmetric_tie", TimeSeries1(0.0, rate, np.roll(ref, 1) + np.roll(ref, -1)),
           TimeSeries1(0.0, rate, ref))
    # A Gaussian against its copies 10 samples either side: +10 and -10 tie
    # but for rounding, which the scorer's formula decides (CORA's distance
    # form picks +10, the dot-product form -10).
    gauss = np.exp(-0.5 * ((np.arange(81) - 40) / 4.5) ** 2)
    yield ("symmetric_pulse",
           TimeSeries1(0.0, rate, np.roll(gauss, 10) + np.roll(gauss, -10)),
           TimeSeries1(0.0, rate, gauss))
    yield ("constant", TimeSeries1(0.0, rate, np.full(64, G_STANDARD)),
           TimeSeries1(0.0, rate, shape[:64]))
    small = rng.normal(size=64)
    yield ("tiny_values", TimeSeries1(0.0, rate, small * 1e-105),
           TimeSeries1(0.0, rate, np.roll(small, 5) * 1e-105))


REFINE_CASES = list(refine_cases())


@pytest.mark.parametrize("case", REFINE_CASES, ids=[c[0] for c in REFINE_CASES])
def test_refine_offset_equals_full_lag_scan(case):
    _, hb, ref = case
    new = refine_offset(hb, ref)
    old = full_scan_refine_offset(hb, ref)
    assert new == old and repr(new) == repr(old)
