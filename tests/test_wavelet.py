import numpy as np
import pytest
from numpy.testing import assert_allclose

from kinereco.core import TimeSeries1, TimeSeries3
from kinereco.errors import DataError, DegenerateSignalError
from kinereco.wavelet import (CUTOFF_CAP_HZ, MORLET_OMEGA0, CoefficientSlices,
                              Scalogram, _butter_section, _butter_zero_phase,
                              _filtfilt, butterworth_lowpass, cfc_filter, cwt,
                              frequency_grid, next_fast_len, normalized_slices,
                              resolve_cutoff, select_cutoff)


def scalar(values, rate, start=0.0):
    return TimeSeries1(start, rate, np.asarray(values, dtype=float))


def sine(freq, rate, duration, amp=1.0, start=0.0):
    t = start + np.arange(int(duration * rate)) / rate
    return TimeSeries1(start, rate, amp * np.sin(2 * np.pi * freq * t))


def band_energy(x: TimeSeries1, lo, hi):
    """FFT band-energy oracle, independent of the wavelet path."""
    spec = np.fft.rfft(x.values)
    freqs = np.fft.rfftfreq(len(x), d=x.dt)
    sel = (freqs >= lo) & (freqs <= hi)
    return float(np.sum(np.abs(spec[sel]) ** 2))


def lockin_amplitude(x: TimeSeries1, freq):
    """Amplitude of the component at `freq`, on the central half of the series."""
    n = len(x)
    seg = slice(n // 4, n - n // 4)
    t = x.times[seg]
    phasor = np.exp(-2j * np.pi * freq * t)
    return 2.0 * np.abs(np.mean(x.values[seg] * phasor))


class TestCwt:
    def test_pure_sine_peaks_at_its_frequency(self):
        x = sine(20.0, 1125.0, 2.0)
        sc = cwt(x)
        mean_coeffs = sc.coeffs.mean(axis=1)
        peak_freq = sc.freqs[np.argmax(mean_coeffs)]
        # within one grid step (12 voices/octave => ratio 2**(1/12))
        assert 2.0 ** (-1 / 12) * 20.0 <= peak_freq <= 2.0 ** (1 / 12) * 20.0

    def test_zero_series_gives_zero_coeffs(self):
        sc = cwt(scalar(np.zeros(256), 1125.0))
        assert_allclose(sc.coeffs, 0.0)

    def test_burst_energy_localized_in_time(self):
        rate = 1600.0
        t = np.arange(int(0.4 * rate)) / rate
        x = np.sin(2 * np.pi * 10.0 * t)
        burst = (t < 0.020) * np.sin(2 * np.pi * 150.0 * t)
        sc = cwt(scalar(x + burst, rate))
        band = (sc.freqs > 120.0) & (sc.freqs < 190.0)
        energy = (sc.coeffs[band] ** 2).sum(axis=0)
        early = energy[sc.times < 0.025].sum()
        assert early >= 0.8 * energy.sum()

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            cwt(scalar(np.ones(63), 1125.0))

    def test_grid_covers_required_span(self):
        freqs = frequency_grid(1125.0)
        assert freqs[0] == pytest.approx(2.0)
        assert freqs[-1] <= 1125.0 / 2 / 2.001
        assert np.all(np.diff(freqs) > 0)


def old_cwt(x: TimeSeries1) -> Scalogram:
    """``cwt`` before it took columns, frozen: the full transform it must
    still compute bit for bit."""
    from scipy.fft import fft, ifft
    from scipy.fft import next_fast_len as scipy_next_fast_len

    n = len(x)
    freqs = frequency_grid(x.sample_rate)
    padded = np.pad(x.values, n, mode="symmetric")
    nfft = scipy_next_fast_len(3 * n)
    spectrum = fft(padded, nfft)
    ang = 2.0 * np.pi * np.fft.fftfreq(nfft, d=x.dt)
    scales = MORLET_OMEGA0 / (2.0 * np.pi * freqs)
    arg = scales[:, None] * ang[None, :]
    filters = np.where(arg > 0.0, np.exp(-0.5 * (arg - MORLET_OMEGA0) ** 2), 0.0)
    transformed = ifft(spectrum[None, :] * filters, axis=1)
    coeffs = np.abs(transformed[:, n:2 * n])
    return Scalogram(times=x.times, freqs=freqs, coeffs=coeffs)


def random_signal(rng, n, rate):
    """Noise on a tone, with an impact-like burst somewhere in the series."""
    t = np.arange(n) / rate
    at = rng.uniform(0.0, t[-1])
    burst = np.exp(-((t - at) / 0.004) ** 2) * np.sin(2 * np.pi * rng.uniform(60, 300) * t)
    return TimeSeries1(rng.uniform(-0.1, 0.0), rate,
                       rng.normal(size=n) + np.sin(2 * np.pi * 12.0 * t)
                       + rng.uniform(0.0, 20.0) * burst)


class TestNextFastLen:
    def test_matches_scipy_for_every_target_to_120000(self):
        from scipy.fft import next_fast_len as scipy_next_fast_len

        got = [next_fast_len(n) for n in range(1, 120001)]
        assert got == [scipy_next_fast_len(n) for n in range(1, 120001)]


class TestCwtColumns:
    """``cwt(x, columns=c)`` computes those columns alone; ``cwt(x)`` is the
    full transform it always was."""

    def test_full_transform_is_the_old_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for n, rate in [(64, 1125.0), (205, 1125.0), (205, 1125.0),
                        (577, 3200.0), (1000, 1600.0), (2999, 3200.0)]:
            x = random_signal(rng, n, rate)
            new, old = cwt(x), old_cwt(x)
            for name in ("times", "freqs", "coeffs"):
                a, b = getattr(new, name), getattr(old, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_columns_match_the_full_transform(self):
        rng = np.random.default_rng(32)
        for rate in (1125.0, 3200.0):
            for n in rng.integers(64, 3001, size=12):
                x = random_signal(rng, int(n), rate)
                columns = tuple(int(i) for i in rng.integers(0, n, size=2))
                sc, full = cwt(x, columns=columns), cwt(x)
                assert sc.times.tobytes() == full.times[list(columns)].tobytes()
                assert sc.freqs.tobytes() == full.freqs.tobytes()
                want = full.coeffs[:, list(columns)]
                assert sc.coeffs.shape == want.shape
                assert np.abs(sc.coeffs - want).max() <= 1e-12 * want[:, 0].max()

    def test_columns_outside_the_series_rejected(self):
        x = sine(15.0, 1125.0, 0.2)
        for columns in [(0, len(x)), (-1, 3)]:
            with pytest.raises(DataError, match="outside the 225 samples"):
                cwt(x, columns=columns)


class TestNormalizedSlices:
    def test_start_slice_max_is_one(self):
        sc = cwt(sine(15.0, 1125.0, 1.0))
        slices = normalized_slices(sc, 0.2, 0.8)
        assert slices.at_start.max() == pytest.approx(1.0)

    def test_stationary_sine_slices_agree(self):
        sc = cwt(sine(25.0, 1125.0, 2.0))
        slices = normalized_slices(sc, 0.7, 1.3)
        assert np.abs(slices.at_start - slices.at_end).max() < 0.05

    def test_transient_creates_slice_difference(self):
        rate = 1600.0
        t = np.arange(int(0.5 * rate)) / rate
        x = np.sin(2 * np.pi * 10.0 * t) + (t < 0.02) * np.sin(2 * np.pi * 150.0 * t)
        sc = cwt(scalar(x, rate))
        slices = normalized_slices(sc, 0.0, 0.30)
        delta = slices.at_start - slices.at_end
        assert delta[sc.freqs > 15.0].max() > 0.1

    def test_zero_start_slice_rejected(self):
        sc = cwt(scalar(np.zeros(512), 1125.0))
        with pytest.raises(DegenerateSignalError):
            normalized_slices(sc, 0.0, 0.4)

    def test_time_outside_span_rejected(self):
        sc = cwt(sine(15.0, 1125.0, 0.5))
        with pytest.raises(DataError):
            normalized_slices(sc, -0.1, 0.3)


def slices_for(freqs, at_start, at_end):
    return CoefficientSlices(freqs=np.asarray(freqs, dtype=float),
                             at_start=np.asarray(at_start, dtype=float),
                             at_end=np.asarray(at_end, dtype=float))


class TestSelectCutoff:
    def test_noise_onset_above_signal_band(self):
        # f_ss = 50 (highest with end > 0.1), f_n = 100 (first delta > 0.1)
        freqs = [10.0, 20.0, 50.0, 100.0, 200.0, 300.0]
        at_end = [1.0, 0.8, 0.4, 0.05, 0.02, 0.01]
        at_start = [1.0, 0.85, 0.45, 0.30, 0.30, 0.25]
        result = select_cutoff(slices_for(freqs, at_start, at_end))
        assert result.f_ss == pytest.approx(50.0)
        assert result.f_n == pytest.approx(100.0)
        assert result.f0 == pytest.approx(100.0)

    def test_cap_applies_above_180(self):
        # f_ss = 190, f_n = 200 -> capped at 180
        freqs = [10.0, 100.0, 190.0, 200.0, 250.0]
        at_end = [1.0, 0.8, 0.2, 0.05, 0.01]
        at_start = [1.0, 0.8, 0.25, 0.30, 0.20]
        result = select_cutoff(slices_for(freqs, at_start, at_end))
        assert result.f_ss == pytest.approx(190.0)
        assert result.f_n == pytest.approx(200.0)
        assert result.f0 == pytest.approx(180.0)

    def test_no_transient_falls_back_to_cap(self):
        freqs = [10.0, 50.0, 100.0]
        flat = [1.0, 0.5, 0.05]
        result = select_cutoff(slices_for(freqs, flat, flat))
        assert result.f_n is None
        assert result.f0 == pytest.approx(CUTOFF_CAP_HZ)

    def test_resolve_cutoff_table(self):
        assert resolve_cutoff(50.0, 100.0) == pytest.approx(100.0)
        assert resolve_cutoff(190.0, 200.0) == pytest.approx(180.0)
        assert resolve_cutoff(None, None) == pytest.approx(180.0)
        assert resolve_cutoff(None, 60.0) == pytest.approx(60.0)
        assert resolve_cutoff(120.0, None) == pytest.approx(180.0)

    def test_never_exceeds_cap_on_random_slices(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            m = rng.integers(4, 40)
            freqs = np.sort(rng.uniform(2.0, 400.0, size=m))
            while np.any(np.diff(freqs) <= 0):
                freqs = np.sort(rng.uniform(2.0, 400.0, size=m))
            result = select_cutoff(slices_for(
                freqs, rng.uniform(0, 1.2, size=m), rng.uniform(0, 1.2, size=m)))
            assert result.f0 <= CUTOFF_CAP_HZ

    def test_invariant_under_input_scaling(self):
        # scaling the raw series scales all coefficients; normalized slices and
        # hence the cutoff are unchanged
        rate = 1600.0
        t = np.arange(int(0.4 * rate)) / rate
        x = np.sin(2 * np.pi * 12.0 * t) + (t < 0.02) * np.sin(2 * np.pi * 220.0 * t)
        results = []
        for k in (1.0, 7.3):
            sc = cwt(scalar(k * x, rate))
            results.append(select_cutoff(normalized_slices(sc, 0.0, 0.3)))
        assert results[0].f0 == pytest.approx(results[1].f0)


class TestButterworth:
    def test_dc_gain_unity(self):
        x = scalar(np.full(400, 3.7), 1000.0)
        out = butterworth_lowpass(x, 50.0)
        assert np.abs(out.values - 3.7).max() < 1e-9

    def test_per_pass_minus_3db_at_cutoff(self):
        rate, f0 = 4000.0, 100.0
        x = sine(f0, rate, 4.0)
        out = butterworth_lowpass(x, f0)
        ratio = lockin_amplitude(out, f0) / lockin_amplitude(x, f0)
        per_pass_db = 10.0 * np.log10(ratio)  # forward-backward doubles the dB
        assert -3.5 < per_pass_db < -2.5

    def test_40db_total_attenuation_at_4x_cutoff(self):
        rate, f0 = 4000.0, 100.0
        x = sine(4 * f0, rate, 4.0)
        out = butterworth_lowpass(x, f0)
        ratio = lockin_amplitude(out, 4 * f0) / lockin_amplitude(x, 4 * f0)
        assert 20.0 * np.log10(ratio) <= -40.0

    def test_cutoff_at_or_above_nyquist_rejected(self):
        x = sine(10.0, 1000.0, 1.0)
        with pytest.raises(DataError):
            butterworth_lowpass(x, 500.0)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        rate = 2000.0
        a = scalar(rng.normal(size=1000), rate)
        b = scalar(rng.normal(size=1000), rate)
        combo = scalar(2.0 * a.values - 0.5 * b.values, rate)
        lhs = butterworth_lowpass(combo, 120.0).values
        rhs = (2.0 * butterworth_lowpass(a, 120.0).values
               - 0.5 * butterworth_lowpass(b, 120.0).values)
        assert np.abs(lhs - rhs).max() < 1e-9


class TestFilterMatchesScipy:
    """The numpy design and Python biquad give scipy.signal's floats bit for
    bit: ``butter(2, ..., output="sos")``, ``sosfilt_zi`` and
    ``sosfiltfilt``.  scipy.signal is imported here only."""

    @staticmethod
    def workload_designs():
        """The (rate, cutoff) pairs the pipeline filters with: the CFC design
        frequencies (clamped below Nyquist), the accelerometer prefilter and
        every adaptive cutoff the frequency grid and the cap allow."""
        designs = []
        for rate in (1125.0, 1600.0, 3200.0, 10000.0, 20000.0):
            nyquist = rate / 2.0
            cutoffs = [2.0775 * 155.0, 2.0775 * 1000.0, 2.0, 180.0, 260.0]
            cutoffs = [c if c < nyquist else 0.995 * nyquist for c in cutoffs]
            grid = frequency_grid(rate)
            cutoffs += [0.995 * nyquist, *grid[grid < CUTOFF_CAP_HZ]]
            designs += [(rate, float(c)) for c in cutoffs]
        return designs

    @staticmethod
    def random_designs(n):
        """Rates from 100 Hz to 40 kHz; cutoffs uniform over (0, Nyquist) for
        half of them and log-uniform from 1e-6 x Nyquist for the rest."""
        rng = np.random.default_rng(1996)
        rates = rng.uniform(100.0, 40000.0, n)
        fractions = np.where(np.arange(n) % 2 == 0, rng.uniform(0.0, 1.0, n),
                             10.0 ** rng.uniform(-6.0, 0.0, n))
        fractions = fractions[(fractions > 0.0) & (fractions < 1.0)]
        return [(float(r), float(f * r / 2.0)) for r, f in zip(rates, fractions)]

    def test_design_and_initial_state(self):
        from scipy import signal

        designs = self.workload_designs() + self.random_designs(2100)
        assert len(designs) >= 2000 + 5
        for rate, cutoff in designs:
            sos = signal.butter(2, cutoff, fs=rate, output="sos")
            (b0, b1, b2, a1, a2), zi = _butter_section(cutoff, rate)
            ours = np.array([[b0, b1, b2, 1.0, a1, a2]])
            assert ours.tobytes() == sos.tobytes(), (rate, cutoff)
            assert np.array([zi]).tobytes() == signal.sosfilt_zi(sos).tobytes(), \
                (rate, cutoff)

    def test_forward_backward_filter(self):
        from scipy import signal

        rng = np.random.default_rng(44)
        for run in range(120):
            n = 10 + run % 7 if run < 14 else int(rng.integers(10, 5001))
            rate = float(rng.uniform(500.0, 20000.0))
            cutoff = float(rng.uniform(0.001, 0.999) * rate / 2.0)
            scale = 10.0 ** rng.uniform(-4.0, 4.0)
            sos = signal.butter(2, cutoff, fs=rate, output="sos")
            if run % 2:
                x = scale * rng.normal(size=(n, 3))
                ours = butterworth_lowpass(TimeSeries3(0.0, rate, x), cutoff).samples
            else:
                x = scale * rng.normal(size=n)
                ours = butterworth_lowpass(TimeSeries1(0.0, rate, x), cutoff).values
            theirs = np.ascontiguousarray(signal.sosfiltfilt(sos, x, axis=0))
            assert ours.tobytes() == theirs.tobytes(), (run, n, rate, cutoff)


def old_butter_zero_phase(ts, cutoff):
    """The filtering in ``_butter_zero_phase`` with its two branches by
    series type."""
    coef, zi = _butter_section(cutoff, ts.sample_rate)
    if isinstance(ts, TimeSeries3):
        return ts.with_samples(np.array(
            [_filtfilt(coef, zi, col) for col in ts.samples.T]).T)
    return ts.with_values(np.array(_filtfilt(coef, zi, ts.values)))


class TestZeroPhaseBody:
    @pytest.mark.parametrize("n, rate, cutoff", [
        (10, 1125.0, 180.0), (205, 1125.0, 63.5), (401, 3200.0, 322.0125)])
    def test_matches_typed_branches(self, n, rate, cutoff):
        rng = np.random.default_rng(n)
        s3 = TimeSeries3(-0.03125, rate, rng.normal(size=(n, 3)) * 30.0)
        for s in (s3, s3.component(0)):
            new = _butter_zero_phase(s, cutoff)
            old = old_butter_zero_phase(s, cutoff)
            assert type(new) is type(old)
            assert (new.start_time, new.sample_rate) == (old.start_time,
                                                         old.sample_rate)
            assert new._data.shape == old._data.shape
            assert new._data.tobytes() == old._data.tobytes()

    def test_design_is_cached_and_a_bad_cutoff_raises_every_time(self):
        assert _butter_section(123.4, 1125.0) is _butter_section(123.4, 1125.0)
        s = TimeSeries1(0.0, 3200.0, np.ones(20))
        for _ in range(2):
            with pytest.raises(DataError, match="cutoff 2.0775e-09 Hz is too low "):
                cfc_filter(s, 1e-9)

    def test_singular_design_is_a_data_error(self):
        s = TimeSeries1(0.0, 3200.0, np.ones(20))
        with pytest.raises(np.linalg.LinAlgError):
            _butter_section(2.0775e-9, 3200.0)
        with pytest.raises(DataError, match="cutoff 2.0775e-09 Hz is too low "
                                            "to design a filter at 3200 Hz"):
            cfc_filter(s, 1e-9)


class TestFilterLength:
    @pytest.mark.parametrize("make", [
        lambda n: TimeSeries1(0.0, 1000.0, np.ones(n)),
        lambda n: TimeSeries3(0.0, 1000.0, np.ones((n, 3)))], ids=["1d", "3d"])
    def test_nine_samples_rejected_ten_filtered(self, make):
        with pytest.raises(DataError, match="at least 10 samples, got 9"):
            butterworth_lowpass(make(9), 100.0)
        with pytest.raises(DataError, match="at least 10 samples, got 9"):
            cfc_filter(make(9), 60.0)
        assert len(butterworth_lowpass(make(10), 100.0)) == 10
        assert len(cfc_filter(make(10), 60.0)) == 10


class TestCfcFilter:
    @pytest.mark.parametrize("cfc, rate, target", [(1000.0, 20000.0, 1650.0),
                                                   (155.0, 8000.0, 255.75)])
    def test_minus_3db_crossing_near_165_percent_of_class(self, cfc, rate, target):
        # frequency-response sweep oracle: locate the amplitude-ratio crossing
        sweep = np.linspace(0.6 * target, 1.5 * target, 41)
        ratios = []
        for f in sweep:
            x = sine(f, rate, 1.0)
            out = cfc_filter(x, cfc)
            ratios.append(lockin_amplitude(out, f) / lockin_amplitude(x, f))
        crossing = np.interp(-1 / np.sqrt(2), -np.asarray(ratios), sweep)
        assert abs(crossing - target) / target < 0.05

    def test_dc_gain_unity(self):
        x = scalar(np.full(500, -1.25), 20000.0)
        out = cfc_filter(x, 1000.0)
        assert np.abs(out.values + 1.25).max() < 1e-9

    def test_low_rate_warns_but_filters(self):
        x = sine(30.0, 3200.0, 1.0)
        with pytest.warns(UserWarning):
            out = cfc_filter(x, 1000.0)
        assert len(out) == len(x)

    def test_nonpositive_class_rejected(self):
        with pytest.raises(DataError):
            cfc_filter(sine(5.0, 1000.0, 1.0), 0.0)

    def test_nan_class_rejected(self):
        with pytest.raises(DataError, match="cutoff nan Hz"):
            cfc_filter(sine(5.0, 1000.0, 1.0), float("nan"))

    def test_matches_classical_channel_class_recursion(self):
        # independent oracle: the textbook two-pass difference-equation form
        # of the channel-class filter, run directly on the samples
        def classical(data, cfc, dt):
            wd = 2.0 * np.pi * cfc * 2.0775
            wa = np.sin(wd * dt / 2.0) / np.cos(wd * dt / 2.0)
            a0 = wa ** 2 / (1.0 + np.sqrt(2.0) * wa + wa ** 2)
            a1, a2 = 2.0 * a0, a0
            b1 = -2.0 * (wa ** 2 - 1.0) / (1.0 + np.sqrt(2.0) * wa + wa ** 2)
            b2 = (-1.0 + np.sqrt(2.0) * wa - wa ** 2) / (
                1.0 + np.sqrt(2.0) * wa + wa ** 2)

            def one_pass(x):
                y = np.empty_like(x)
                y[0] = a0 * x[0]
                y[1] = a0 * x[1] + a1 * x[0] + b1 * y[0]
                for i in range(2, len(x)):
                    y[i] = (a0 * x[i] + a1 * x[i - 1] + a2 * x[i - 2]
                            + b1 * y[i - 1] + b2 * y[i - 2])
                return y

            return one_pass(one_pass(data)[::-1])[::-1]

        rng = np.random.default_rng(20)
        rate, cfc = 10000.0, 180.0
        x = scalar(rng.normal(size=4000), rate)
        ours = cfc_filter(x, cfc).values
        oracle = classical(x.values.copy(), cfc, 1.0 / rate)
        # compare away from the ends (the two implementations pad differently)
        n = len(x)
        core_slice = slice(n // 8, n - n // 8)
        scale = np.abs(oracle[core_slice]).max()
        assert np.abs(ours[core_slice] - oracle[core_slice]).max() / scale < 0.01


class TestCwtAmplitudeFairness:
    def test_equal_tones_give_equal_coefficients(self):
        # the threshold logic compares coefficients across frequency, so a
        # unit-amplitude tone must register equally wherever it sits
        rate = 1600.0
        peaks = []
        for f in (8.0, 30.0, 110.0, 300.0):
            sc = cwt(sine(f, rate, 3.0))
            mid = sc.coeffs[:, len(sc.times) // 2]
            peaks.append(mid.max())
        peaks = np.asarray(peaks)
        assert peaks.max() / peaks.min() < 1.05
        assert np.all(np.abs(peaks - 0.5) < 0.05)
