from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kinereco.core import (TimeSeries1, TimeSeries3, lagged_correlation,
                           magnitude, rotate_series, shared_grid,
                           validate_rotation)
from kinereco.detect import _clip_scalar
from kinereco.errors import ConfigError, DataError, WindowError
from kinereco.evaluate import _correlation, nrmse_windowed
from kinereco.kinematics import ReferenceKinematics
from kinereco.pipeline import clip_reference_to

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


def old_clip_reference(ts, hb):
    """The index rule of ``pipeline.clip_reference_to`` before ``span``."""
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
            ref_kin = ReferenceKinematics(ts, ts, ts)
            kin = SimpleNamespace(omega_hf=hb)
            if i1 <= i0 + 8:
                with pytest.raises(DataError):
                    clip_reference_to(ref_kin, kin)
                continue
            clipped = clip_reference_to(ref_kin, kin)
            for part in (clipped.omega, clipped.alpha, clipped.a_point):
                assert repr(part.start_time) == repr(clip_start)
                assert part.samples.tobytes() == \
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
