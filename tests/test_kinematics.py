import numpy as np
import pytest
from numpy.testing import assert_allclose

from kinereco import cli, kinematics, pipeline
from kinereco.core import TimeSeries1, TimeSeries3, rotate_series
from kinereco.errors import (ConfigError, DataError, DegenerateSignalError,
                             WindowError)
from kinereco.kinematics import (CONDITION_LIMIT, _skew, a3g1_solve,
                                 adaptive_filter, average_angular_velocity,
                                 five_point_derivative)
from kinereco.synth import HarmonicComponent, MotionProfile
from kinereco.wavelet import (Scalogram, butterworth_lowpass, cwt,
                              normalized_slices, select_cutoff, slice_index)

from conftest import random_rotation
from test_wavelet import old_cwt

RATE = 1125.0
POSITIONS = [np.array([-0.064, -0.059, 0.015]),
             np.array([-0.064, 0.059, 0.015]),
             np.array([-0.090, 0.000, 0.015])]
REF_POINT = np.array([0.075, 0.0, -0.035])


def series(samples, rate=RATE, start=0.0):
    return TimeSeries3(start, rate, np.asarray(samples, dtype=float))


def random_motion(rng, n_components=3):
    """Band-limited random motion with exact analytic derivatives."""
    axes = []
    for _ in range(3):
        comps = [HarmonicComponent(
            amplitude=float(rng.uniform(0.5, 8.0)),
            freq_hz=float(rng.uniform(2.0, 40.0)),
            phase=float(rng.uniform(0, 2 * np.pi)),
            center_s=float(rng.uniform(0.05, 0.15)),
            width_s=float(rng.uniform(0.03, 0.3)),
        ) for _ in range(n_components)]
        axes.append(tuple(comps))
    q_axes = []
    for _ in range(3):
        comps = [HarmonicComponent(
            amplitude=float(rng.uniform(5.0, 150.0)),
            freq_hz=float(rng.uniform(0.0, 30.0)),
            phase=float(rng.uniform(0, 2 * np.pi)),
            center_s=float(rng.uniform(0.05, 0.15)),
            width_s=float(rng.uniform(0.01, 0.2)),
        ) for _ in range(2)]
        q_axes.append(tuple(comps))
    return MotionProfile(tuple(axes), tuple(q_axes))


def forward_sensors(motion, times, positions, gravity=(0.0, 0.0, 0.0)):
    """Exact rigid-body forward model: the independent oracle for the solve."""
    return [series(motion.acceleration_at(times, r, gravity)) for r in positions]


class TestAverageAngularVelocity:
    def test_mean_of_identical_series_is_identity(self):
        s = series(np.random.default_rng(0).normal(size=(32, 3)))
        out = average_angular_velocity([s] * 5)
        assert_allclose(out.samples, s.samples)

    def test_two_series_mean(self):
        a = series([[1.0, 0, 0]] * 4)
        b = series([[3.0, 0, 0]] * 4)
        assert_allclose(average_angular_velocity([a, b]).samples[:, 0], 2.0)

    def test_noise_reduction_close_to_sqrt5(self):
        rng = np.random.default_rng(31)
        t = np.arange(1000) / RATE
        clean = np.column_stack([np.sin(2 * np.pi * 7 * t)] * 3)
        sigma = 0.4
        ratios = []
        for _ in range(100):
            copies = [series(clean + rng.normal(scale=sigma, size=clean.shape))
                      for _ in range(5)]
            avg = average_angular_velocity(copies)
            residual_sd = (avg.samples - clean).std()
            ratios.append(residual_sd / sigma)
        ratios = np.asarray(ratios)
        assert ratios.max() < 0.6
        assert abs(ratios.mean() - 1 / np.sqrt(5)) < 0.05

    def test_mismatched_clocks_rejected(self):
        a = series(np.zeros((8, 3)))
        b = series(np.zeros((8, 3)), start=0.5)
        with pytest.raises(DataError):
            average_angular_velocity([a, b])

    def test_commutes_with_rotation(self):
        rng = np.random.default_rng(12)
        R = random_rotation(rng)
        streams = [series(rng.normal(size=(16, 3))) for _ in range(5)]
        lhs = rotate_series(average_angular_velocity(streams), R)
        rhs = average_angular_velocity([rotate_series(s, R) for s in streams])
        assert_allclose(lhs.samples, rhs.samples, atol=1e-12)


class TestFivePointDerivative:
    def test_constant_gives_zero(self):
        out = five_point_derivative(series(np.full((10, 3), 4.2)))
        assert_allclose(out.samples, 0.0, atol=1e-12)

    def test_quartic_exact_at_interior(self):
        t = 1.0 + np.arange(200) / RATE
        s = series(np.column_stack([t ** 4] * 3))
        out = five_point_derivative(s)
        expected = 4.0 * t ** 3
        rel = np.abs(out.samples[2:-2, 0] - expected[2:-2]) / expected[2:-2]
        assert rel.max() < 1e-8

    def test_sine_matches_analytic_derivative(self):
        t = np.arange(1125) / RATE
        s = series(np.column_stack([np.sin(2 * np.pi * 10 * t)] * 3))
        out = five_point_derivative(s)
        expected = 2 * np.pi * 10 * np.cos(2 * np.pi * 10 * t)
        err = np.abs(out.samples[2:-2, 0] - expected[2:-2])
        assert err.max() / np.abs(expected).max() < 1e-4

    def test_short_series_rejected(self):
        with pytest.raises(DataError):
            five_point_derivative(series(np.zeros((4, 3))))

    def test_scalar_series_supported(self):
        t = np.arange(100) / RATE
        s = TimeSeries1(0.0, RATE, t ** 2)
        out = five_point_derivative(s)
        assert_allclose(out.values[2:-2], 2 * t[2:-2], atol=1e-9)


def old_five_point_derivative(x):
    """``five_point_derivative`` with its two branches by series type."""
    dt = x.dt
    values = x.samples if isinstance(x, TimeSeries3) else x.values[:, None]
    d = np.empty_like(values)
    d[2:-2] = (-values[4:] + 8.0 * values[3:-1]
               - 8.0 * values[1:-3] + values[:-4]) / (12.0 * dt)
    for i in (0, 1):
        d[i] = (-3.0 * values[i] + 4.0 * values[i + 1] - values[i + 2]) / (2.0 * dt)
    for i in (-1, -2):
        d[i] = (3.0 * values[i] - 4.0 * values[i - 1] + values[i - 2]) / (2.0 * dt)
    if isinstance(x, TimeSeries3):
        return x.with_samples(d)
    return x.with_values(d[:, 0])


@pytest.mark.parametrize("n", [5, 6, 200])
def test_five_point_derivative_matches_typed_branches(n):
    rng = np.random.default_rng(n)
    s3 = series(rng.normal(size=(n, 3)) * 50.0, start=-0.03125)
    for s in (s3, s3.component(2)):
        new, old = five_point_derivative(s), old_five_point_derivative(s)
        assert type(new) is type(old)
        assert (new.start_time, new.sample_rate) == (old.start_time,
                                                     old.sample_rate)
        assert new._data.tobytes() == old._data.tobytes()


class OldA3g1Geometry:
    """The per-call geometry object ``a3g1_solve`` used to build."""

    def __init__(self, r1, r2, r3):
        self.positions = [np.asarray(r, dtype=np.float64) for r in (r1, r2, r3)]
        blocks = [np.hstack([-_skew(r), np.eye(3)]) for r in self.positions]
        self.design = np.vstack(blocks)
        svals = np.linalg.svd(self.design, compute_uv=False)
        if svals[-1] < 1e-12 * svals[0]:
            raise ConfigError("rank-deficient")
        self.condition = svals[0] / svals[-1]
        if self.condition > CONDITION_LIMIT:
            self._pinv = np.linalg.pinv(self.design)
            self._cho = None
        else:
            from scipy.linalg import cho_factor

            self._pinv = None
            self._cho = cho_factor(self.design.T @ self.design)

    def solve(self, rhs):
        if self._pinv is not None:
            return self._pinv @ rhs
        from scipy.linalg import cho_solve

        return cho_solve(self._cho, self.design.T @ rhs)


def old_a3g1_solve(accels, omega, positions, ref_point):
    """``a3g1_solve`` as it was with :class:`OldA3g1Geometry`."""
    n = len(omega)
    geometry = OldA3g1Geometry(*positions)
    r4 = np.asarray(ref_point, dtype=np.float64)
    w = omega.samples
    rhs = np.empty((9, n))
    for i, (acc, r) in enumerate(zip(accels, geometry.positions)):
        centripetal = np.cross(w, np.cross(w, np.broadcast_to(r, (n, 3))))
        rhs[3 * i:3 * i + 3] = (acc.samples - centripetal).T
    u = geometry.solve(rhs)
    residual = np.linalg.norm(geometry.design @ u - rhs, axis=0)
    alpha, q = u[:3].T, u[3:].T
    a_point = (np.cross(alpha, np.broadcast_to(r4, (n, 3)))
               + np.cross(w, np.cross(w, np.broadcast_to(r4, (n, 3))))
               + q)
    clock = dict(start_time=omega.start_time, sample_rate=omega.sample_rate)
    return (TimeSeries3(samples=alpha, **clock),
            TimeSeries3(samples=q, **clock),
            TimeSeries3(samples=a_point, **clock),
            TimeSeries1(values=residual, **clock)), geometry.condition


#: A triangle with sides of about 1e-8 m: conditioned beyond
#: CONDITION_LIMIT, so the solve takes the pseudo-inverse.
TINY_TRIANGLE = [np.array([0.0, 0.0, 0.0]), np.array([1e-8, 0.0, 0.0]),
                 np.array([0.0, 1.2e-8, 1e-9])]


@pytest.mark.parametrize("positions, pinv", [(POSITIONS, False),
                                             (TINY_TRIANGLE, True)],
                         ids=["cholesky", "pseudo_inverse"])
def test_a3g1_solve_matches_geometry_object(positions, pinv, caplog):
    rng = np.random.default_rng(21)
    motion = random_motion(rng)
    times = -0.03125 + np.arange(240) / RATE
    omega = series(motion.omega_at(times), start=-0.03125)
    accels = [series(s.samples + rng.normal(size=s.samples.shape),
                     start=-0.03125)
              for s in forward_sensors(motion, times, positions)]
    old, condition = old_a3g1_solve(accels, omega, positions, REF_POINT)
    assert (condition > CONDITION_LIMIT) == pinv
    new = a3g1_solve(accels, omega, positions, REF_POINT)
    assert ("pseudo-inverse" in caplog.text) == pinv
    for a, b in zip(new, old):
        assert type(a) is type(b)
        assert (a.start_time, a.sample_rate) == (b.start_time, b.sample_rate)
        assert a._data.tobytes() == b._data.tobytes()


class TestA3g1Solve:
    def test_pure_translation_recovered(self):
        n = 50
        accel = np.tile([1.5, -2.0, 9.0], (n, 1))
        accels = [series(accel) for _ in range(3)]
        omega = series(np.zeros((n, 3)))
        alpha, q, a4, residual = a3g1_solve(accels, omega, POSITIONS, REF_POINT)
        assert_allclose(alpha.samples, 0.0, atol=1e-10)
        assert_allclose(q.samples, accel, atol=1e-10)
        assert_allclose(a4.samples, accel, atol=1e-10)
        assert residual.values.max() < 1e-10

    def test_steady_spin_centripetal_only(self):
        n, w = 40, 5.0
        omega = series(np.tile([0.0, 0.0, w], (n, 1)))
        accels = []
        for r in POSITIONS:
            centripetal = np.cross([0, 0, w], np.cross([0, 0, w], r))
            accels.append(series(np.tile(centripetal, (n, 1))))
        alpha, q, a4, residual = a3g1_solve(accels, omega, POSITIONS, REF_POINT)
        assert_allclose(alpha.samples, 0.0, atol=1e-9)
        assert_allclose(q.samples, 0.0, atol=1e-9)
        expected_a4 = np.cross([0, 0, w], np.cross([0, 0, w], REF_POINT))
        assert_allclose(a4.samples, np.tile(expected_a4, (n, 1)), atol=1e-9)

    def test_forward_inverse_closure_on_synthetic_maneuver(self):
        rng = np.random.default_rng(77)
        motion = random_motion(rng)
        times = np.arange(int(0.2 * RATE)) / RATE
        accels = forward_sensors(motion, times, POSITIONS)
        omega = series(motion.omega_at(times))
        alpha, q, a4, residual = a3g1_solve(accels, omega, POSITIONS, REF_POINT)
        alpha_true = motion.alpha_at(times)
        q_true = motion.q_at(times)
        scale_a = np.abs(alpha_true).max()
        scale_q = np.abs(q_true).max()
        assert np.abs(alpha.samples - alpha_true).max() / scale_a < 1e-6
        assert np.abs(q.samples - q_true).max() / scale_q < 1e-6
        assert residual.values.max() < 1e-9
        a4_true = motion.acceleration_at(times, REF_POINT)
        assert np.abs(a4.samples - a4_true).max() / np.abs(a4_true).max() < 1e-6

    def test_gravity_shifts_q_only(self):
        rng = np.random.default_rng(13)
        motion = random_motion(rng)
        times = np.arange(120) / RATE
        omega = series(motion.omega_at(times))
        g = np.array([0.3, -9.8, 1.1])
        plain = forward_sensors(motion, times, POSITIONS)
        lifted = [series(s.samples + g) for s in plain]
        alpha0, q0, _, _ = a3g1_solve(plain, omega, POSITIONS, REF_POINT)
        alpha1, q1, _, _ = a3g1_solve(lifted, omega, POSITIONS, REF_POINT)
        assert np.abs(alpha1.samples - alpha0.samples).max() < 1e-9
        assert_allclose(q1.samples - q0.samples, np.tile(g, (len(times), 1)),
                        atol=1e-9)

    def test_frame_covariance_under_rotation(self):
        rng = np.random.default_rng(14)
        motion = random_motion(rng)
        times = np.arange(100) / RATE
        R = random_rotation(rng)
        omega = series(motion.omega_at(times))
        accels = forward_sensors(motion, times, POSITIONS)
        alpha0, q0, a40, _ = a3g1_solve(accels, omega, POSITIONS, REF_POINT)
        alpha1, q1, a41, _ = a3g1_solve(
            [rotate_series(s, R) for s in accels], rotate_series(omega, R),
            [R @ r for r in POSITIONS], R @ REF_POINT)
        assert np.abs(alpha1.samples - alpha0.samples @ R.T).max() < 1e-9
        assert np.abs(q1.samples - q0.samples @ R.T).max() < 1e-9
        assert np.abs(a41.samples - a40.samples @ R.T).max() < 1e-9

    def test_collinear_geometry_rejected(self):
        bad = [np.array([0.00, 0.0, 0.0]), np.array([0.03, 0.0, 0.0]),
               np.array([0.07, 0.0, 0.0])]
        with pytest.raises(ConfigError, match="collinear|rank"):
            a3g1_solve([series(np.zeros((10, 3)))] * 3, series(np.zeros((10, 3))),
                       bad, REF_POINT)

    def test_mismatched_clock_rejected(self):
        omega = series(np.zeros((10, 3)))
        accels = [series(np.zeros((10, 3))) for _ in range(2)]
        accels.append(series(np.zeros((10, 3)), start=1.0))
        with pytest.raises(DataError):
            a3g1_solve(accels, omega, POSITIONS, REF_POINT)


class TestAdaptiveFilter:
    def window_series(self, values, rate=1600.0):
        return TimeSeries3(-0.03125, rate, values)

    def test_clean_sine_passes_through(self):
        # Slices away from the window edges: a stationary tone shows no
        # transient, the cutoff falls back to the cap, the tone is untouched.
        rate = 1600.0
        t = -0.6 + np.arange(int(1.6 * rate)) / rate
        samples = np.zeros((len(t), 3))
        samples[:, 0] = np.sin(2 * np.pi * 5.0 * t)
        out, cutoff = adaptive_filter(TimeSeries3(-0.6, rate, samples))
        assert cutoff.f_n is None
        nrmse = np.sqrt(np.mean((out.samples[:, 0] - samples[:, 0]) ** 2))
        assert nrmse / np.abs(samples[:, 0]).max() < 0.02

    def test_burst_energy_removed(self):
        rate = 1600.0
        t = -0.03125 + np.arange(int(0.213 * rate)) / rate
        sine = np.sin(2 * np.pi * 10.0 * t)
        burst = np.where((t >= 0) & (t < 0.020),
                         np.sin(2 * np.pi * 300.0 * t), 0.0)
        samples = np.zeros((len(t), 3))
        samples[:, 0] = sine + burst
        out, cutoff = adaptive_filter(self.window_series(samples, rate))
        spec_in = np.abs(np.fft.rfft(samples[:, 0]))
        spec_out = np.abs(np.fft.rfft(out.samples[:, 0]))
        freqs = np.fft.rfftfreq(len(t), d=1 / rate)
        band = (freqs > 250) & (freqs < 350)
        assert (spec_out[band] ** 2).sum() <= 0.1 * (spec_in[band] ** 2).sum()
        assert cutoff.f0 <= 180.0

    def test_all_zero_signal_rejected(self):
        rate = 1600.0
        samples = np.zeros((int(0.213 * rate), 3))
        with pytest.raises(DegenerateSignalError):
            adaptive_filter(self.window_series(samples, rate))

    def test_window_must_cover_analysis_span(self):
        rate = 1600.0
        samples = np.ones((int(0.1 * rate), 3))
        with pytest.raises(WindowError):
            adaptive_filter(self.window_series(samples, rate))

    def test_single_gyro_variant_matches_on_noiseless_data(
            self, config, clean_session_small):
        # noiseless rigid-body data: every gyro reads the same field, so the
        # single-gyro A3G1 variant must agree with the averaged one
        from dataclasses import replace
        from kinereco.detect import extract_window
        from kinereco.pipeline import _WINDOW_PAD_S as pad
        from kinereco.core import magnitude
        from kinereco.detect import detect_impacts
        from kinereco.kinematics import reconstruct_headband_event

        sim = clean_session_small
        recs = {r.sensor_id: r for r in sim.headband}
        trig = magnitude(recs["bt_back"].trigger_accel)
        t0 = detect_impacts(trig, config.trigger.threshold,
                            config.trigger.min_duration, min_separation=0.2)[0]
        excerpts = {sid: extract_window(rec, t0, config.window.pre + pad,
                                        config.window.headband_post + pad)
                    for sid, rec in recs.items()}
        averaged = reconstruct_headband_event(excerpts, config, "a3g1")
        single = reconstruct_headband_event(
            excerpts, replace(config, a3g1_gyro="bt_back"), "a3g1")
        scale = np.abs(averaged.alpha_a3g1.samples).max()
        diff = np.abs(single.alpha_a3g1.samples - averaged.alpha_a3g1.samples)
        assert diff.max() / scale < 0.02

    def test_alpha_methods_agree_on_band_limited_motion(self):
        # noiseless, band-limited below f0/2: stencil and algebraic methods
        # must track each other within 5% RMS
        rng = np.random.default_rng(99)
        motion = random_motion(rng)
        times = np.arange(int(0.3 * RATE)) / RATE
        omega = series(motion.omega_at(times))
        accels = forward_sensors(motion, times, POSITIONS)
        alpha_a3g1, _, _, _ = a3g1_solve(accels, omega, POSITIONS, REF_POINT)
        alpha_diff = five_point_derivative(omega)
        num = np.sqrt(np.mean((alpha_diff.samples - alpha_a3g1.samples) ** 2))
        den = np.sqrt(np.mean(alpha_a3g1.samples ** 2))
        assert num / den < 0.05


def old_adaptive_filter(omega_h, coeff_threshold=0.1, cap_hz=180.0,
                        end_time=0.150):
    """``adaptive_filter`` before it read two scalogram columns, frozen: a
    full scalogram per axis."""
    best = None
    for axis in range(3):
        comp = omega_h.component(axis)
        if not comp.values.any():
            continue
        sc = old_cwt(comp)
        try:
            slices = normalized_slices(sc, 0.0, end_time)
        except DegenerateSignalError:
            continue
        result = select_cutoff(slices, threshold=coeff_threshold, cap=cap_hz)
        if best is None or result.f0 > best.f0:
            best = result
    if best is None:
        raise DegenerateSignalError("angular velocity is identically zero")
    return butterworth_lowpass(omega_h, best.f0), best


def assert_same_filter(omega_h, tuning):
    out, result = adaptive_filter(omega_h, **tuning)
    old_out, old_result = old_adaptive_filter(omega_h, **tuning)
    assert (result.f0, result.f_ss, result.f_n) == (
        old_result.f0, old_result.f_ss, old_result.f_n)
    assert out._data.tobytes() == old_out._data.tobytes()


def impact_window(rate=1125.0, seed=4):
    """An averaged gyro window as reconstruct cuts it: a burst at t = 0 on a
    slow head motion, on one axis.  Returns the window and the columns of
    t = 0 and t = 150 ms."""
    rng = np.random.default_rng(seed)
    t = -0.022 + np.arange(int(0.2 * rate)) / rate
    samples = np.zeros((len(t), 3))
    samples[:, 1] = (3.0 * np.sin(2 * np.pi * 8.0 * t)
                     + 2.0 * np.exp(-(t / 0.003) ** 2) * np.sin(2 * np.pi * 220.0 * t)
                     + 0.05 * rng.normal(size=len(t)))
    window = TimeSeries3(float(t[0]), rate, samples)
    times = window.times
    return window, (slice_index(times, 0.0), slice_index(times, 0.150))


class TestAdaptiveFilterColumns:
    """The cutoff from two scalogram columns is the full scalogram's cutoff,
    and the filtered series is the old one bit for bit."""

    def test_every_bench_pair_is_the_full_transforms(self, bench, monkeypatch,
                                                     cwt_calls):
        config, session, events = bench
        pairs = cli._read_events_csv(events)
        windows = pipeline.reconstruct_windows(config, pairs)
        hb_recs, ref_blocks = cli._load_session(
            config, session, pipeline.reconstruct_channels(config, "both"),
            windows)
        inputs, real = [], kinematics.adaptive_filter
        monkeypatch.setattr(kinematics, "adaptive_filter", lambda omega_h, **kw: (
            inputs.append((omega_h, kw)), real(omega_h, **kw))[1])
        for row in pairs:
            pipeline.reconstruct_pair(config, hb_recs, ref_blocks, row)
        assert len(inputs) == len(pairs)
        # Every axis of every pair is decided from its two columns.
        assert cwt_calls and None not in cwt_calls
        for omega_h, tuning in inputs:
            assert_same_filter(omega_h, tuning)

    @pytest.mark.parametrize("compared", ["difference", "at_end"])
    def test_a_threshold_on_a_slice_value_takes_the_full_path(self, compared,
                                                               cwt_calls):
        omega_h, columns = impact_window()
        comp = omega_h.component(1)
        full = normalized_slices(old_cwt(comp), 0.0, 0.150)
        sc = cwt(comp, columns=columns)
        cols = normalized_slices(sc, *sc.times)

        def values(slices):
            if compared == "difference":
                return slices.at_start - slices.at_end
            return slices.at_end

        # A value the two paths round apart, so that only the screen's
        # margin, not an exact tie, sends it to the full scalogram.
        apart = np.flatnonzero(values(full) != values(cols))
        assert apart.size
        tuning = dict(coeff_threshold=float(values(full)[apart[0]]))
        assert_same_filter(omega_h, tuning)
        assert cwt_calls == [columns, None]

    def test_a_zero_start_column_takes_the_full_path(self, monkeypatch,
                                                     cwt_calls):
        real = kinematics.cwt

        def zero_columns(x, columns=None):
            sc = real(x, columns)
            if columns is None:
                return sc
            return Scalogram(sc.times, sc.freqs, np.zeros_like(sc.coeffs))

        monkeypatch.setattr(kinematics, "cwt", zero_columns)
        omega_h, columns = impact_window()
        assert_same_filter(omega_h, {})
        assert cwt_calls == [columns, None]

    # A slice time just outside the window is a window that does not cover
    # [0, end_time]: the old filter let it through to normalized_slices.
    def test_a_start_just_after_zero_raises_window_error(self):
        window, _ = impact_window()
        late = TimeSeries3(5e-10, window.sample_rate, window.samples)
        with pytest.raises(WindowError, match=r"coverage of \[0, 0.15\] s"):
            adaptive_filter(late)
        with pytest.raises(DataError, match="t_start=0.000000 s outside"):
            old_adaptive_filter(late)

    def test_an_end_just_short_of_end_time_raises_window_error(self):
        window, _ = impact_window()
        end_time = window.end_time + 5e-10
        with pytest.raises(WindowError, match="coverage of"):
            adaptive_filter(window, end_time=end_time)
        with pytest.raises(DataError, match="t_end=.* s outside"):
            old_adaptive_filter(window, end_time=end_time)
