import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from kinereco.core import TimeSeries1, TimeSeries3
from kinereco.errors import DataError, DegenerateSignalError, WindowError
from kinereco.evaluate import (CoraScore, _correlation, bland_altman, cora_band,
                               cora_score, nrmse_windowed, paired_t_test,
                               peak_resultant)


def scalar(values, rate=3200.0, start=-0.03125):
    return TimeSeries1(start, rate, np.asarray(values, dtype=float))


def pulse_curve(rate=3200.0, n=400):
    """Impact-like half-sine pulse: non-periodic, single-peaked."""
    t = np.arange(n) / rate - 0.03125
    values = np.where((t >= 0) & (t <= 0.03),
                      np.sin(np.pi * t / 0.03), 0.0) * 7.5
    return scalar(values, rate)


class TestPeakResultant:
    def test_constant_vector(self):
        s = TimeSeries3(0.0, 100.0, np.tile([3.0, 4.0, 0.0], (5, 1)))
        value, t_peak = peak_resultant(s)
        assert value == pytest.approx(5.0)
        assert t_peak == pytest.approx(0.0)

    def test_single_axis_sine_peaks_at_quarter_period(self):
        rate, f, amp = 1000.0, 5.0, 2.5
        t = np.arange(1000) / rate
        samples = np.zeros((len(t), 3))
        samples[:, 1] = amp * np.sin(2 * np.pi * f * t)
        value, t_peak = peak_resultant(TimeSeries3(0.0, rate, samples))
        assert value == pytest.approx(amp, rel=1e-4)
        assert abs(t_peak - 1 / (4 * f)) <= 1 / rate

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(1)
        s = TimeSeries3(0.0, 100.0, rng.normal(size=(64, 3)))
        value, t_peak = peak_resultant(s)
        norms = [math.sqrt(v @ v) for v in s.samples]  # brute force
        assert value == pytest.approx(max(norms))
        assert t_peak == pytest.approx(np.argmax(norms) / 100.0)


class TestCoraScore:
    def test_identical_curves_score_exactly_one(self):
        ref = pulse_curve()
        score = cora_score(ref, ref)
        assert score.phase == 1.0
        assert score.magnitude == 1.0
        assert score.shape == 1.0
        assert score.total == 1.0
        assert score.band == "excellent"

    def test_double_amplitude_scores_five_sixths(self):
        ref = pulse_curve()
        test = ref.with_values(2.0 * ref.values)
        score = cora_score(ref, test)
        assert score.phase == 1.0
        assert score.shape == 1.0
        assert score.magnitude == pytest.approx(0.5, abs=1e-12)
        assert score.total == pytest.approx(5.0 / 6.0, abs=1e-9)

    def test_sign_flip_clamps_shape_to_zero(self):
        ref = pulse_curve()
        score = cora_score(ref, ref.with_values(-ref.values))
        assert score.shape == 0.0
        assert score.total <= 2.0 / 3.0

    def test_invariant_under_common_positive_scaling(self):
        rng = np.random.default_rng(6)
        ref = scalar(rng.normal(size=400))
        test = scalar(rng.normal(size=400))
        s1 = cora_score(ref, test)
        s2 = cora_score(ref.with_values(3.7 * ref.values),
                        test.with_values(3.7 * test.values))
        assert s1.total == pytest.approx(s2.total, abs=1e-12)

    def test_magnitude_subrating_symmetric(self):
        rng = np.random.default_rng(9)
        a = scalar(rng.normal(size=300))
        b = scalar(rng.normal(size=300) * 2.3)
        assert cora_score(a, b).magnitude == pytest.approx(
            cora_score(b, a).magnitude, abs=1e-12)

    def test_zero_variance_reference_rejected(self):
        flat = scalar(np.full(400, 2.0))
        with pytest.raises(DegenerateSignalError):
            cora_score(flat, pulse_curve())

    def test_clock_mismatch_rejected(self):
        ref = pulse_curve()
        other = TimeSeries1(0.0, ref.sample_rate, ref.values)
        with pytest.raises(DataError):
            cora_score(ref, other)

    def test_phase_penalized_for_shifted_copy(self):
        ref = pulse_curve()
        shift = 20  # samples
        shifted = ref.with_values(np.roll(ref.values, shift))
        score = cora_score(ref, shifted)
        assert score.shape > 0.99
        assert score.phase == pytest.approx(1.0 - shift / round(0.2 * len(ref)),
                                            abs=0.02)


class TestCoraBand:
    @pytest.mark.parametrize("total, band", [
        (0.87, "excellent"),
        (0.86, "good"),
        (0.66, "good"),
        (0.65, "fair"),
        (0.44, "fair"),
        (0.43, "marginal"),
        (0.26, "marginal"),
        (0.25, "unacceptable"),
    ])
    def test_band_boundaries(self, total, band):
        assert cora_band(total) == band


class TestBlandAltman:
    def test_identical_lists(self):
        report = bland_altman([4.0, 5.0, 6.0], [4.0, 5.0, 6.0])
        assert report.mean_bias == 0.0
        assert report.sd_bias == 0.0
        assert report.loa_low == 0.0 and report.loa_high == 0.0

    def test_hand_computed_fixture(self):
        report = bland_altman([5.0, 6.0, 7.0], [4.0, 4.0, 4.0])
        assert_allclose(report.bias, [1.0, 2.0, 3.0])
        assert report.mean_bias == pytest.approx(2.0, abs=1e-9)
        assert report.sd_bias == pytest.approx(1.0, abs=1e-9)
        assert report.loa_low == pytest.approx(0.04, abs=1e-9)
        assert report.loa_high == pytest.approx(3.96, abs=1e-9)
        assert report.loa_high - report.loa_low == pytest.approx(
            2 * 1.96 * report.sd_bias, abs=1e-9)
        assert_allclose(report.normalized_bias, [0.25, 0.5, 0.75])

    def test_antisymmetric_under_swap(self):
        rng = np.random.default_rng(44)
        a = rng.uniform(3, 9, size=10)
        b = rng.uniform(3, 9, size=10)
        fwd = bland_altman(a, b)
        rev = bland_altman(b, a)
        assert fwd.mean_bias == pytest.approx(-rev.mean_bias)
        assert fwd.sd_bias == pytest.approx(rev.sd_bias)

    def test_single_pair_rejected(self):
        with pytest.raises(DataError):
            bland_altman([1.0], [2.0])


class TestNrmseWindowed:
    def test_identical_curves_score_zero(self):
        ref = pulse_curve()
        nrms, rms, signed = nrmse_windowed(ref, ref)
        assert nrms == 0.0 and rms == 0.0 and signed == 0.0

    def test_constant_offset(self):
        ref = pulse_curve()
        c = 0.8
        test = ref.with_values(ref.values + c)
        nrms, rms, signed = nrmse_windowed(ref, test)
        peak = np.abs(ref.values).max()
        assert rms == pytest.approx(c, abs=1e-12)
        assert signed == pytest.approx(c / peak * 100.0, abs=1e-9)
        assert nrms == pytest.approx(c / peak * 100.0, abs=1e-9)

    def test_matches_bruteforce_window_computation(self):
        rng = np.random.default_rng(17)
        ref = pulse_curve()
        test = ref.with_values(ref.values + rng.normal(0, 0.3, len(ref)))
        window = 0.0244
        nrms, rms, signed = nrmse_windowed(ref, test, window=window)
        # brute force: explicit mask on the time grid
        _, t_peak = peak_resultant(ref)
        mask = (np.abs(ref.times - t_peak) <= window / 2 + 1e-12)
        err = test.values[mask] - ref.values[mask]
        assert rms == pytest.approx(np.sqrt(np.mean(err ** 2)), rel=1e-9)
        assert signed == pytest.approx(err.mean() / np.abs(ref.values).max()
                                       * 100.0, rel=1e-9)

    def test_window_outside_support_rejected(self):
        ref = pulse_curve()
        with pytest.raises(WindowError):
            nrmse_windowed(ref, ref, center=ref.end_time)

    def test_zero_reference_rejected(self):
        flat = scalar(np.zeros(400))
        with pytest.raises(DataError):
            nrmse_windowed(flat, flat)

    def test_window_between_samples_rejected(self):
        # 0.1 ms is a third of a sample period at 3200 Hz; centred half a
        # period off the grid, the window holds no sample.
        ref = pulse_curve()
        with pytest.raises(WindowError, match="holds no sample"):
            nrmse_windowed(ref, ref, window=0.0001, center=0.05 + 0.5 / 3200.0)


def t_sf_quadrature(t_value, df):
    """Survival function of the t-distribution via direct quadrature of the
    density (independent of scipy.stats.t internals)."""
    norm = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))

    def pdf(x):
        return norm * (1 + x * x / df) ** (-(df + 1) / 2)

    value, _ = quad(pdf, t_value, np.inf)
    return value


class TestPairedTTest:
    def test_equal_inputs_rejected_zero_variance(self):
        with pytest.raises(DataError):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_hand_fixture_against_quadrature_oracle(self):
        a = [1.0, 1.0, 1.0, 1.0, -1.0]
        b = [0.0, 0.0, 0.0, 0.0, 0.0]
        t, p, significant = paired_t_test(a, b)
        assert t == pytest.approx(1.5, abs=1e-12)
        assert p == pytest.approx(2 * t_sf_quadrature(1.5, 4), abs=1e-10)
        assert p == pytest.approx(0.208, abs=1e-3)
        assert significant is False

    def test_shifted_normals_significant(self):
        rng = np.random.default_rng(15)
        sigma = 1.3
        b = rng.normal(0.0, sigma, size=20)
        a = b + 2 * sigma + rng.normal(0, 0.1, size=20)
        t, p, significant = paired_t_test(a, b)
        assert p < 0.05 and significant

    def test_short_input_rejected(self):
        with pytest.raises(DataError):
            paired_t_test([1.0], [0.5])

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 40, 1000])
    def test_p_bit_identical_to_scipy_stats(self, n):
        """p is 2 * t.sf(|t|, n - 1), bit for bit, over t from 0 to beyond
        where the tail underflows."""
        from scipy.stats import t as t_distribution

        rng = np.random.default_rng(n)
        z = rng.normal(size=n)
        z = (z - z.mean()) / z.std(ddof=1)  # sample mean 0, sd 1
        b = rng.normal(size=n)
        shifts = np.concatenate([[0.0, 1e-300], np.geomspace(1e-6, 1e8, 60),
                                 -np.geomspace(1e-3, 1e3, 7)])
        for shift in shifts:
            t, p, significant = paired_t_test(b + z + shift, b)
            want = float(2.0 * t_distribution.sf(abs(t), n - 1))
            assert np.float64(p).tobytes() == np.float64(want).tobytes(), (
                n, shift, t, p, want)
            assert significant == (want < 0.05)


def full_scan_cora_score(ref, test, max_shift_fraction=0.2):
    """cora_score as it was before the lag screen: every shift scored."""
    r = ref.values
    y = test.values
    n = len(r)
    max_shift = max(1, int(round(max_shift_fraction * n)))
    best_shift, best_rho = 0, -np.inf
    for s in range(-max_shift, max_shift + 1):
        if s >= 0:
            rho = _correlation(r[:n - s], y[s:])
        else:
            rho = _correlation(r[-s:], y[:n + s])
        if rho > best_rho or (rho == best_rho and abs(s) < abs(best_shift)):
            best_rho, best_shift = rho, s
    phase = 1.0 - abs(best_shift) / max_shift
    shape = max(0.0, best_rho)
    peak_ref = float(np.max(np.abs(r)))
    peak_test = float(np.max(np.abs(y)))
    if max(peak_ref, peak_test) == 0.0:
        mag = 1.0
    elif min(peak_ref, peak_test) == 0.0:
        mag = 0.0
    else:
        mag = min(peak_ref, peak_test) / max(peak_ref, peak_test)
    total = (phase + mag + shape) / 3.0
    return CoraScore(phase=phase, magnitude=mag, shape=shape, total=total,
                     band=cora_band(total))


def cora_cases():
    """(id, ref values, test values) pairs covering the shift search."""
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4, 5, 7, 16, 41, 100, 257, 400, 600):
        yield f"noise_{n}", rng.normal(size=n), rng.normal(size=n)
        base = np.exp(-((np.arange(n) - n / 3) / (n / 8 + 1)) ** 2)
        lag = int(rng.integers(-n // 4, n // 4 + 1))
        noisy = np.roll(base, lag) * 0.8 + rng.normal(scale=0.05, size=n)
        yield f"shifted_pulse_{n}", base, noisy
    ref = pulse_curve().values
    yield "identical", ref, ref
    yield "c7_doubled", ref, 2.0 * ref
    yield "c7_flipped", ref, -ref
    yield "test_all_zero", ref, np.zeros_like(ref)
    tail = np.zeros(300)
    tail[:40] = np.sin(np.linspace(0.0, np.pi, 40))
    yield "zero_tails", tail, np.roll(tail, 25)
    yield "zero_tails_far", tail, np.roll(tail, 250)
    # A delta against two deltas one sample either side: +1 and -1 tie.
    yield "symmetric_tie", np.array([0.0, 0.0, 1.0, 0.0, 0.0]), \
        np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    # Geometric curves overlap a copy of themselves in one direction at every
    # shift: exact ties the screen rounds apart.
    for q, n in ((2.0, 10), (-0.5, 10), (0.75, 40), (1.5, 100), (1.25, 300)):
        geometric = q ** np.arange(n)
        yield f"geometric_{q}_{n}", geometric, geometric
    pulse = np.exp(-((np.arange(81) - 40.0) / 6.0) ** 2)
    yield "symmetric_pulse", pulse, np.roll(pulse, 10) + np.roll(pulse, -10)
    positive = 1.0 + rng.random(30)
    yield "anticorrelated", positive, -np.roll(positive, 4)
    yield "plateau", np.r_[np.zeros(20), np.ones(60), np.zeros(20)], np.ones(100)
    # Energies outside the screen's trusted range: every shift is scored.
    small = rng.normal(size=64)
    yield "tiny_values", small * 1e-105, np.roll(small, 3) * 1e-105
    yield "huge_values", small * 1e110, np.roll(small, 3) * 1e110
    yield "tiny_tail", np.r_[small, 1e-150], np.r_[1e-150, small]
    yield "subnormal_tail", np.r_[small, 1e-310], np.r_[1e-310, small]


CORA_CASES = list(cora_cases())


class TestCoraShiftScreen:
    @pytest.mark.parametrize("fraction", [0.05, 0.2, 1.0, 1.5])
    @pytest.mark.parametrize("case", CORA_CASES, ids=[c[0] for c in CORA_CASES])
    def test_equals_full_shift_scan(self, case, fraction):
        _, r, y = case
        ref, test = scalar(r), scalar(y)
        new = cora_score(ref, test, fraction)
        old = full_scan_cora_score(ref, test, fraction)
        for field in ("phase", "magnitude", "shape", "total", "band"):
            assert getattr(new, field) == getattr(old, field), field
        assert repr(new) == repr(old)  # also the sign of any zero

    @pytest.mark.parametrize("case", [c for c in CORA_CASES if len(c[1]) <= 41],
                             ids=[c[0] for c in CORA_CASES if len(c[1]) <= 41])
    def test_shift_bound_far_beyond_length(self, case):
        _, r, y = case
        ref, test = scalar(r), scalar(y)
        assert repr(cora_score(ref, test, 25.0)) == \
            repr(full_scan_cora_score(ref, test, 25.0))

    def test_huge_shift_bound_scores_empty_overlap(self):
        ref = scalar(1.0 + np.arange(10.0))
        score = cora_score(ref, ref.with_values(-ref.values), 1e5)
        # Every overlap is anticorrelated; the empty one at s = -10 wins.
        assert score.shape == 0.0
        assert score.phase == 1.0 - 10 / round(1e5 * 10)

    def test_identical_inputs_total_exactly_one(self):
        rng = np.random.default_rng(3)
        for n in (2, 50, 600):
            ref = scalar(rng.normal(size=n))
            for fraction in (0.05, 0.2, 1.0, 1.5):
                assert cora_score(ref, ref, fraction).total == 1.0
