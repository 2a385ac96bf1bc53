import numpy as np
import pytest
from numpy.testing import assert_allclose

from kinereco.core import (TimeSeries1, TimeSeries3, lagged_correlation,
                           magnitude, resample, rotate_series,
                           validate_rotation)
from kinereco.errors import ConfigError, DataError
from kinereco.evaluate import _correlation

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


class TestResample:
    def test_linear_ramp_exact_at_double_rate(self):
        t = np.arange(10) / 100.0
        s = series3(np.column_stack([t, 2 * t, -t]), rate=100.0)
        out = resample(s, 200.0)
        expected = out.times
        assert_allclose(out.samples[:, 0], expected, atol=1e-12)
        assert_allclose(out.samples[:, 1], 2 * expected, atol=1e-12)

    def test_constant_series_stays_constant(self):
        s = series3(np.tile([2.0, -1.0, 0.5], (7, 1)), rate=33.0)
        out = resample(s, 180.0)
        assert_allclose(out.samples, np.tile([2.0, -1.0, 0.5], (len(out), 1)))

    def test_sine_against_analytic_values(self):
        rate, f = 1125.0, 20.0
        t = np.arange(int(rate)) / rate
        s = series3(np.column_stack([np.sin(2 * np.pi * f * t)] * 3), rate=rate)
        out = resample(s, 3200.0)
        analytic = np.sin(2 * np.pi * f * out.times)
        # linear-interpolation midpoint bound: (2*pi*f/rate)^2 / 8 = 1.56e-3
        assert np.abs(out.samples[:, 0] - analytic).max() < 1.6e-3

    def test_idempotent_at_source_rate(self):
        rng = np.random.default_rng(0)
        s = series3(rng.normal(size=(31, 3)), rate=1125.0, start=0.37)
        out = resample(s, 1125.0)
        assert len(out) == len(s)
        assert np.array_equal(out.times, s.times)
        assert_allclose(out.samples, s.samples, atol=1e-12)

    def test_single_sample_rejected(self):
        s = series3([[1, 2, 3]])
        with pytest.raises(DataError):
            resample(s, 200.0)

    def test_no_extrapolation_beyond_support(self):
        s = series3(np.zeros((11, 3)), rate=100.0)  # spans 0.1 s
        out = resample(s, 64.0)
        assert out.end_time <= s.end_time + 1e-12

    def test_scalar_series_resampled_too(self):
        t = np.arange(20) / 100.0
        s = TimeSeries1(0.0, 100.0, 3.0 * t)
        out = resample(s, 250.0)
        assert_allclose(out.values, 3.0 * out.times, atol=1e-12)


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
