import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kinereco.core import (TimeSeries1, TimeSeries3, _grid_rate,
                           lagged_correlation, magnitude, median,
                           rotate_series, sample_on_grid, shared_grid,
                           validate_rotation, window_span)
from kinereco.detect import _clip_scalar, _excerpt
from kinereco.errors import ConfigError, DataError, WindowError
from kinereco.evaluate import _common_pair, _correlation, nrmse_windowed

from conftest import random_rotation, rotation_about


def series3(values, rate=100.0, start=0.0):
    return TimeSeries3(start, rate, np.asarray(values, dtype=float))


class TestRotateSeries:
    def test_identity_leaves_series_unchanged(self):
        s = series3([[1, 2, 3], [4, 5, 6]])
        out = rotate_series(s, np.eye(3))
        assert_allclose(out.samples, s.samples)
        assert out.start_time == s.start_time
        assert out.sample_rate == s.sample_rate

    def test_quarter_turn_about_z_permutes_axes(self):
        s = series3([[1, 0, 0]])
        out = rotate_series(s, rotation_about(2, np.pi / 2))
        assert_allclose(out.samples[0], [0, 1, 0], atol=1e-15)

    def test_norms_preserved_against_direct_multiply(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            R = random_rotation(rng)
            s = series3(rng.normal(size=(50, 3)))
            out = rotate_series(s, R)
            # oracle: plain per-sample matrix multiply
            expected = np.array([R @ v for v in s.samples])
            assert_allclose(out.samples, expected, atol=1e-14)
            assert_allclose(np.linalg.norm(out.samples, axis=1),
                            np.linalg.norm(s.samples, axis=1), rtol=0, atol=1e-12)

    def test_non_orthonormal_matrix_rejected(self):
        s = series3([[1, 0, 0]])
        with pytest.raises(ConfigError):
            rotate_series(s, np.eye(3) * 1.001)
        with pytest.raises(ConfigError):
            rotate_series(s, -np.eye(3))  # det -1

    def test_magnitude_invariant_under_rotation(self):
        rng = np.random.default_rng(3)
        s = series3(rng.normal(size=(64, 3)))
        R = random_rotation(rng)
        assert_allclose(magnitude(rotate_series(s, R)).values,
                        magnitude(s).values, atol=1e-12)


def old_clip_scalar(ts, t0, lo, hi):
    """The index rule of ``detect._clip_scalar`` before ``span``:
    ``(i0, i1, start time of the clip)``."""
    rate = ts.sample_rate
    start = ts.start_time - t0
    i0 = max(0, int(np.ceil((lo - start) * rate - 1e-9)))
    i1 = min(len(ts) - 1, int(np.floor((hi - start) * rate + 1e-9)))
    return i0, i1, start + i0 / rate


def old_excerpt(ts, t0, pre, post):
    """The inline cut of ``detect._excerpt`` before ``part``:
    ``(i_first, i_last, start time of the excerpt)``."""
    rate = ts.sample_rate
    i_first = int(np.floor((t0 - pre - ts.start_time) * rate + 1e-9))
    i_last = int(np.ceil((t0 + post - ts.start_time) * rate - 1e-9))
    return i_first, i_last, ts.start_time + i_first / rate - t0


def old_block_periods(rate, pre, post):
    """The block length of ``ingest.parse_reference_csv`` before
    ``window_span``, in sample periods."""
    return math.ceil(pre * rate - 1e-9) + math.ceil(post * rate - 1e-9)


def old_span_rows(start, rate, t0, pre, post):
    """The ``(lo, hi)`` data rows the windowed read parsed before
    ``window_span``: the span of ``pipeline.reconstruct_spans`` rounded out
    and widened by ``ingest._SPAN_MARGIN`` (2) rows."""
    a, b = t0 - pre, t0 + post
    return math.floor((a - start) * rate) - 2, math.ceil((b - start) * rate) + 3


def old_sample_on_grid(s, times):
    """``sample_on_grid`` with its two branches by series type."""
    src_t = s.times
    if isinstance(s, TimeSeries3):
        out = np.column_stack(
            [np.interp(times, src_t, s.samples[:, k]) for k in range(3)]
        )
        rate = _grid_rate(times)
        return TimeSeries3(times[0], rate, out)
    out = np.interp(times, src_t, s.values)
    return TimeSeries1(times[0], _grid_rate(times), out)


def old_clip_reference(ts, hb):
    """The index rule of ``pipeline.clip_reference_to``, which trimmed the
    reference before ``evaluate._common_pair`` did, before ``span``."""
    i0 = int(np.ceil((hb.start_time - ts.start_time) * ts.sample_rate - 1e-9))
    i1 = int(np.floor((hb.end_time - ts.start_time) * ts.sample_rate + 1e-9))
    i0 = max(i0, 0)
    i1 = min(i1, len(ts) - 1)
    return i0, i1, ts.start_time + i0 / ts.sample_rate


def old_nrmse_span(ref, lo, hi):
    """The index rule of ``evaluate.nrmse_windowed`` before ``span``."""
    i0 = int(np.ceil((lo - ref.start_time) * ref.sample_rate - 1e-9))
    i1 = int(np.floor((hi - ref.start_time) * ref.sample_rate + 1e-9))
    return i0, i1


def old_shared_grid(series, rate):
    """The shared-support grid of ``detect.refine_offset`` and
    ``pipeline._headband_trigger_series`` before ``shared_grid``."""
    lo = max(s.start_time for s in series)
    hi = min(s.end_time for s in series)
    n = int(np.floor((hi - lo) * rate)) + 1
    return lo + np.arange(n) / rate


#: Window edges as (sample index, offset in sample periods): on a sample,
#: inside and just outside the 1e-9-period slack, between samples, and
#: beyond either end of a 200-sample series.
EDGES = [(k, d) for k in (-7, 0, 1, 63, 198, 199, 205)
         for d in (0.0, 1e-9, -1e-9, 2e-9, -2e-9, 0.37)]
RATES = (1125.0, 1600.0, 3200.0)
N_SAMPLES = 200


def clock_cases():
    """(rate, series start, trigger time, lo edge, hi edge) combinations."""
    pairs = [(EDGES[i], EDGES[j]) for i in range(len(EDGES))
             for j in range(i, len(EDGES), 5)]
    for rate in RATES:
        for start, t0 in ((0.0, 0.0), (-0.03125, 0.0), (12.3456789, 12.4)):
            for lo_edge, hi_edge in pairs:
                yield rate, start, t0, lo_edge, hi_edge


def scalar_series(rate, start, n=N_SAMPLES):
    return TimeSeries1(start, rate, np.sin(np.arange(n) * 0.37) + 2.0)


class TestSampleClock:
    """``span`` and ``shared_grid`` against the inline copies they replace."""

    def test_span_matches_clip_scalar(self):
        # Shifted, then cut: the start is (start - t0) + i/rate.  The other
        # order rounds differently in some cases, so a swapped order fails
        # here.
        checked = orders_differ = 0
        for rate, start, t0, (k0, d0), (k1, d1) in clock_cases():
            ts = scalar_series(rate, start)
            rel = ts.start_time - t0
            lo, hi = rel + (k0 + d0) / rate, rel + (k1 + d1) / rate
            i0, i1, clip_start = old_clip_scalar(ts, t0, lo, hi)
            assert ts.span(lo - rel, hi - rel) == (i0, i1)
            if i1 - i0 < 4:
                with pytest.raises(WindowError):
                    _clip_scalar(ts, t0, lo, hi)
                continue
            clip = _clip_scalar(ts, t0, lo, hi)
            assert repr(clip.start_time) == repr(clip_start)
            assert clip.values.tobytes() == ts.values[i0:i1 + 1].tobytes()
            checked += 1
            orders_differ += clip_start != (start + i0 / rate) - t0
        assert checked > 100 and orders_differ > 10

    def test_part_matches_excerpt(self):
        # Cut, then shifted: the start is (start + i/rate) - t0.  On the
        # session clock (t0 = 12.4) the other order rounds differently in
        # some cases, so a swapped order fails here.
        checked = orders_differ = 0
        for rate, start, t0, (k0, d0), (k1, d1) in clock_cases():
            ts = TimeSeries3(start, rate, np.tile(
                scalar_series(rate, start).values[:, None], (1, 3)))
            pre = t0 - (start + (k0 + d0) / rate)
            post = start + (k1 + d1) / rate - t0
            i_first, i_last, rel_start = old_excerpt(ts, t0, pre, post)
            if i_first < 0 or i_last >= len(ts):
                with pytest.raises(WindowError):
                    _excerpt(ts, t0, pre, post, "s/gyro")
                continue
            cut = _excerpt(ts, t0, pre, post, "s/gyro")
            assert repr(cut.start_time) == repr(rel_start)
            assert cut.samples.tobytes() == \
                ts.samples[i_first:i_last + 1].tobytes()
            checked += 1
            orders_differ += rel_start != (start - t0) + i_first / rate
        assert checked > 100 and orders_differ > 10

    def test_span_matches_clip_reference(self):
        for rate, start, _, (k0, d0), (k1, d1) in clock_cases():
            ts = TimeSeries3(start, rate, np.tile(
                scalar_series(rate, start).values[:, None], (1, 3)))
            hb_start = start + (k0 + d0) / rate
            hb_end = start + (k1 + d1) / rate
            if hb_end <= hb_start:
                continue
            hb_rate = 1125.0
            hb = TimeSeries3(hb_start, hb_rate, np.zeros(
                (int(round((hb_end - hb_start) * hb_rate)) + 1, 3)))
            i0, i1, clip_start = old_clip_reference(ts, hb)
            assert ts.span(hb.start_time - ts.start_time,
                           hb.end_time - ts.start_time) == (i0, i1)
            if i1 <= i0 + 8:
                with pytest.raises(DataError, match="barely overlap"):
                    _common_pair(hb, ts)
                continue
            _, clipped = _common_pair(hb, ts)
            assert repr(clipped.start_time) == repr(clip_start)
            assert clipped.samples.tobytes() == \
                ts.samples[i0:i1 + 1].tobytes()

    def test_span_matches_nrmse_window(self):
        checked = 0
        for rate, start, _, (k0, d0), (k1, d1) in clock_cases():
            ref = scalar_series(rate, start)
            lo, hi = start + (k0 + d0) / rate, start + (k1 + d1) / rate
            center, window = (lo + hi) / 2.0, hi - lo
            lo, hi = center - window / 2.0, center + window / 2.0
            eps = 0.5 / rate * 1e-6
            if not (ref.start_time - eps <= lo < hi <= ref.end_time + eps):
                continue
            i0, i1 = old_nrmse_span(ref, lo, hi)
            assert ref.span(lo - ref.start_time, hi - ref.start_time) == (i0, i1)
            if i1 < i0:
                continue
            test = ref.with_values(ref.values * 1.1 - 0.05)
            err = test.values[i0:i1 + 1] - ref.values[i0:i1 + 1]
            peak = float(np.max(np.abs(ref.values)))
            rms_abs = float(np.sqrt(np.mean(err ** 2)))
            expected = (rms_abs / peak * 100.0, rms_abs,
                        float(err.mean()) / peak * 100.0)
            assert nrmse_windowed(ref, test, window, center) == expected
            checked += 1
        assert checked > 100

    def test_span_clamps_and_empty_overlap(self):
        ts = scalar_series(1600.0, 2.0)
        assert ts.span(-1.0, 10.0) == (0, N_SAMPLES - 1)
        i0, i1 = ts.span(1.0, 2.0)  # wholly after the last sample
        assert i1 < i0
        i0, i1 = ts.span(-2.0, -1.0)  # wholly before the first sample
        assert i1 < i0

    @pytest.mark.parametrize("n_series", [2, 5])
    def test_shared_grid_matches_old_grid(self, n_series):
        rng = np.random.default_rng(n_series)
        for _ in range(50):
            series = [scalar_series(float(rng.choice(RATES)),
                                    float(rng.uniform(-0.05, 0.05)),
                                    int(rng.integers(150, 400)))
                      for _ in range(n_series)]
            for rate in {series[0].sample_rate,
                         max(s.sample_rate for s in series)}:
                assert shared_grid(series, rate).tobytes() == \
                    old_shared_grid(series, rate).tobytes()

    def test_shared_grid_of_disjoint_series_is_empty(self):
        series = [scalar_series(1600.0, 0.0), scalar_series(1600.0, 1.0)]
        assert shared_grid(series, 1600.0).size == 0

    def test_series_keep_positional_construction_and_repr(self):
        s1 = TimeSeries1(0.5, 100.0, [1.0, 2.0])
        s3 = TimeSeries3(-0.25, 8.0, [[1.0, 2.0, 3.0]])
        assert (s1.start_time, s1.sample_rate) == (0.5, 100.0)
        assert (s3.start_time, s3.sample_rate) == (-0.25, 8.0)
        assert repr(s1) == ("TimeSeries1(start_time=0.5, sample_rate=100.0, "
                            "values=array([1., 2.]))")
        assert repr(s3) == ("TimeSeries3(start_time=-0.25, sample_rate=8.0, "
                            "samples=array([[1., 2., 3.]]))")
        assert [f.name for f in fields(s1)] == ["start_time", "sample_rate",
                                                "values"]
        assert [f.name for f in fields(s3)] == ["start_time", "sample_rate",
                                                "samples"]
        assert len(s1) == 2 and len(s3) == 1
        assert s1.end_time == 0.51 and s3.end_time == -0.25


#: ``(pre, post)`` of the default window and of two others, from the
#: window.pre_ms, reference_post_ms and headband_post_ms of a config.
WINDOWS = [(pre, post) for pre, posts in (
    (0.03125, (0.09375, 0.150)), (0.040, (0.060, 0.150)),
    (0.0313, (0.0938, 0.160))) for post in posts]


def window_cases():
    """``(rate, start, t0, pre, post)``: the edges of ``clock_cases`` as
    windows around their trigger, and the config windows around a trigger
    on a sample and off it by up to 2e-9 periods."""
    for rate, start, t0, (k0, d0), (k1, d1) in clock_cases():
        pre = t0 - (start + (k0 + d0) / rate)
        post = start + (k1 + d1) / rate - t0
        if pre + post > 0:
            yield rate, start, t0, pre, post
    for rate in RATES:
        for start in (0.0, 12.3456789):
            for k, d in EDGES:
                t0 = start + (k + d) / rate
                for pre, post in WINDOWS:
                    yield rate, start, t0, pre, post
                    yield rate, start, t0, pre + 0.002, post + 0.002


class TestWindowSpan:
    """``window_span`` against the three formulas it replaces."""

    def test_matches_excerpt(self):
        cases = list(window_cases())
        for rate, start, t0, pre, post in cases:
            ts = TimeSeries3(start, rate, np.zeros((N_SAMPLES, 3)))
            assert window_span(start, rate, t0, pre, post) == \
                old_excerpt(ts, t0, pre, post)[:2]
        assert len(cases) > 2000

    def test_block_length_matches_reference_block(self):
        checked = 0
        for rate, _, _, pre, post in window_cases():
            if pre < 0 or post < 0:
                continue
            i_first, i_last = window_span(0.0, rate, 0.0, pre, post)
            periods = old_block_periods(rate, pre, post)
            assert i_last - i_first == periods
            assert repr((i_last - i_first) / rate) == repr(periods / rate)
            checked += 1
        assert checked > 1000

    def test_rows_lie_inside_the_old_windowed_read(self):
        widest = 0
        for rate, start, t0, pre, post in window_cases():
            i_first, i_last = window_span(start, rate, t0, pre, post)
            lo, hi = old_span_rows(start, rate, t0, pre, post)
            assert lo <= i_first and i_last + 1 <= hi
            widest = max(widest, i_first - lo, hi - i_last - 1)
        # The margin was 2 rows beyond the outward-rounded span.
        assert widest == 3

    def test_default_window_at_the_device_rates(self):
        # 50 + 150 periods at 1600 Hz, exactly on the grid; 36 + 169 at
        # 1125 Hz, each end rounded out (35.16 and 168.75 periods).
        assert window_span(0.0, 1600.0, 0.0, 0.03125, 0.09375) == (-50, 150)
        assert window_span(1.0, 1125.0, 2.0, 0.03125, 0.150) == (1089, 1294)


class TestClockMethods:
    """``part``, ``shifted`` and the one body of ``sample_on_grid`` for
    both series types."""

    def test_part_and_shifted_keep_the_type(self):
        s1 = TimeSeries1(0.5, 8.0, np.arange(6.0))
        s3 = TimeSeries3(0.5, 8.0, np.arange(18.0).reshape(6, 3))
        for s in (s1, s3):
            part = s.part(2, 4)
            assert type(part) is type(s)
            assert (part.start_time, part.sample_rate) == (0.75, 8.0)
            assert part._data.tobytes() == s._data[2:5].tobytes()
            moved = s.shifted(-0.25)
            assert type(moved) is type(s)
            assert (moved.start_time, moved.sample_rate) == (0.25, 8.0)
            assert moved._data is s._data and not moved._data.flags.writeable
            assert type(s.shifted(np.float64(0.25)).start_time) is float

    @pytest.mark.parametrize("rate, grid_rate, start", [
        (1125.0, 1125.0, -0.03125), (3200.0, 1125.0, 12.3456789),
        (1600.0, 3200.0, 0.0)])
    def test_sample_on_grid_matches_typed_branches(self, rate, grid_rate,
                                                   start):
        rng = np.random.default_rng(int(rate + grid_rate))
        s3 = TimeSeries3(start, rate, rng.normal(size=(300, 3)))
        grid = shared_grid([s3], grid_rate)[3:-3]
        for s in (s3, s3.component(1), magnitude(s3)):
            new, old = sample_on_grid(s, grid), old_sample_on_grid(s, grid)
            assert type(new) is type(old)
            assert repr((new.start_time, new.sample_rate)) == \
                repr((old.start_time, old.sample_rate))
            assert new._data.shape == old._data.shape
            assert new._data.tobytes() == old._data.tobytes()


class TestMedian:
    """core.median gives np.median's bits without importing numpy.ma."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 99, 100, 1001])
    def test_bit_identical_to_np_median(self, n):
        rng = np.random.default_rng(n)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324, 1e300,
                         np.inf, -np.inf, 0.1, 0.2, 0.30000000000000004])
        cases = [rng.standard_normal(n),
                 rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
                 rng.choice(pool, n), rng.choice(pool[:4], n),
                 np.full(n, 1e308), 1.0 / 3200.0 + np.zeros(n)]
        with_nan = rng.standard_normal(n)
        with_nan[rng.integers(0, n)] = np.nan
        cases.append(with_nan)
        for x in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.median(x)
                got = median(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), x
            assert np.isnan(got) == np.isnan(x).any()


class TestMagnitude:
    def test_pythagorean_triple(self):
        assert magnitude(series3([[3, 4, 0]])).values[0] == pytest.approx(5.0)

    def test_zero_series(self):
        out = magnitude(series3(np.zeros((5, 3))))
        assert_allclose(out.values, 0.0)

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(7)
        s = series3(rng.normal(size=(40, 3)))
        oracle = np.sqrt((s.samples ** 2).sum(axis=1))
        assert_allclose(magnitude(s).values, oracle, atol=1e-12)


class TestSeriesTypes:
    def test_samples_are_read_only(self):
        s = series3([[1, 2, 3]])
        with pytest.raises(ValueError):
            s.samples[0, 0] = 9.0

    def test_non_finite_samples_rejected(self):
        with pytest.raises(DataError):
            series3([[np.nan, 0, 0]])
        with pytest.raises(DataError):
            TimeSeries1(0.0, 100.0, [np.inf])

    def test_bad_rate_rejected(self):
        with pytest.raises(DataError):
            series3([[0, 0, 0]], rate=0.0)

    def test_times_grid(self):
        s = series3(np.zeros((4, 3)), rate=8.0, start=-0.5)
        assert_allclose(s.times, [-0.5, -0.375, -0.25, -0.125])
        assert s.dt == 0.125

    def test_validate_rotation_accepts_proper_rotation(self):
        R = rotation_about(1, 0.3)
        assert_allclose(validate_rotation(R), R)


class TestLaggedCorrelation:
    @staticmethod
    def overlap_correlation(x, y, s):
        n = len(x)
        if s >= 0:
            return _correlation(x[:max(n - s, 0)], y[s:])
        return _correlation(x[min(-s, n):], y[:max(n + s, 0)])

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 97, 600])
    @pytest.mark.parametrize("max_shift", [1, 5, 150, 900])
    def test_matches_scalar_correlation(self, n, max_shift):
        rng = np.random.default_rng(n * 1000 + max_shift)
        x = rng.normal(size=n)
        y = np.roll(x, 2) + rng.normal(scale=0.3, size=n)
        y[: n // 3] = 0.0  # zero head: empty-energy overlaps on one side
        rho = lagged_correlation(x, y, max_shift)
        assert rho.shape == (2 * max_shift + 1,)
        expected = [self.overlap_correlation(x, y, s)
                    for s in range(-max_shift, max_shift + 1)]
        assert_allclose(rho, expected, rtol=0.0, atol=1e-12)

    def test_empty_and_zero_overlaps_are_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        rho = lagged_correlation(x, np.zeros(3), 5)
        assert (rho == 0.0).all()
        rho = lagged_correlation(x, np.array([0.0, 0.0, 4.0]), 5)
        shifts = np.arange(-5, 6)
        assert (rho[np.abs(shifts) >= 3] == 0.0).all()
        assert rho[shifts == 2][0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-105, 1e110])
    def test_untrusted_energies_are_nan(self, scale):
        x = np.array([1.0, -2.0, 0.5, 3.0]) * scale
        rho = lagged_correlation(x, x[::-1], 2)
        assert np.isnan(rho).all()
        rho = lagged_correlation(np.r_[1.0, 2.0, 1e-150], np.ones(3), 2)
        assert np.isnan(rho[0]) and not np.isnan(rho[1:]).any()
