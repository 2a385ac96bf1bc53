"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kinereco.cli import main
from kinereco.core import TimeSeries1, TimeSeries3, rotate_series
from kinereco.evaluate import bland_altman, cora_band, cora_score
from kinereco.kinematics import (a3g1_solve, adaptive_filter,
                                 average_angular_velocity,
                                 five_point_derivative)
from kinereco.synth import (config_to_json_dict, dump_profile,
                            standard_session_profile)
from kinereco.wavelet import (butterworth_lowpass, cfc_filter, resolve_cutoff,
                              select_cutoff)

from conftest import random_rotation
from test_evaluate import pulse_curve
from test_kinematics import POSITIONS, REF_POINT, forward_sensors, random_motion
from test_wavelet import lockin_amplitude, sine, slices_for


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{number} {name}: FAIL")
        raise
    print(f"[acceptance] C{number} {name}: PASS")


RATE = 1125.0


def test_c1_a3g1_closure_and_runtime():
    with criterion(1, "A3G1 closure on randomized noiseless profiles"):
        rng = np.random.default_rng(1001)
        times = np.arange(int(0.2 * RATE)) / RATE  # 200 ms @ 1125 Hz
        cases = []
        for _ in range(100):
            motion = random_motion(rng)
            cases.append((
                forward_sensors(motion, times, POSITIONS),
                TimeSeries3(0.0, RATE, motion.omega_at(times)),
                motion.omega_alpha_at(times)[1],
                motion.q_at(times),
            ))
        worst_alpha = worst_q = worst_residual = 0.0
        started = time.perf_counter()
        solutions = [a3g1_solve(accels, omega, POSITIONS, REF_POINT)
                     for accels, omega, _, _ in cases]
        elapsed = time.perf_counter() - started
        for (alpha, q, _, residual), (_, _, alpha_true, q_true) in zip(
                solutions, cases):
            worst_alpha = max(worst_alpha,
                              np.abs(alpha.samples - alpha_true).max()
                              / np.abs(alpha_true).max())
            worst_q = max(worst_q, np.abs(q.samples - q_true).max()
                          / np.abs(q_true).max())
            worst_residual = max(worst_residual, residual.values.max())
        assert worst_alpha < 1e-6, f"alpha relative error {worst_alpha:.2e}"
        assert worst_q < 1e-6, f"q relative error {worst_q:.2e}"
        assert worst_residual < 1e-9, f"residual {worst_residual:.2e}"
        assert elapsed < 1.0, f"100-event solve took {elapsed:.2f} s"


def test_c2_gravity_and_frame_invariants():
    with criterion(2, "gravity equivalence and rotation covariance"):
        rng = np.random.default_rng(1002)
        times = np.arange(int(0.2 * RATE)) / RATE
        motion = random_motion(rng)
        omega = TimeSeries3(0.0, RATE, motion.omega_at(times))
        accels = forward_sensors(motion, times, POSITIONS)
        g = np.array([1.2, -9.80665, 3.4])
        lifted = [TimeSeries3(0.0, RATE, s.samples + g) for s in accels]
        alpha0, q0, a40, _ = a3g1_solve(accels, omega, POSITIONS, REF_POINT)
        alpha1, q1, _, _ = a3g1_solve(lifted, omega, POSITIONS, REF_POINT)
        assert np.abs(alpha1.samples - alpha0.samples).max() < 1e-9
        assert np.abs(q1.samples - (q0.samples + g)).max() < 1e-9

        R = random_rotation(rng)
        alpha2, q2, a42, _ = a3g1_solve(
            [rotate_series(s, R) for s in accels], rotate_series(omega, R),
            [R @ r for r in POSITIONS], R @ REF_POINT)
        assert np.abs(alpha2.samples - alpha0.samples @ R.T).max() < 1e-9
        assert np.abs(q2.samples - q0.samples @ R.T).max() < 1e-9
        assert np.abs(a42.samples - a40.samples @ R.T).max() < 1e-9


def test_c3_stencil_exactness():
    with criterion(3, "five-point stencil exactness"):
        t = 1.0 + np.arange(400) / RATE
        quartic = TimeSeries3(t[0], RATE, np.column_stack([t ** 4] * 3))
        d = five_point_derivative(quartic)
        rel = np.abs(d.samples[2:-2, 0] - 4 * t[2:-2] ** 3) / (4 * t[2:-2] ** 3)
        assert rel.max() < 1e-8, f"quartic relative error {rel.max():.2e}"

        t = np.arange(1125) / RATE
        s = TimeSeries3(0.0, RATE, np.column_stack(
            [np.sin(2 * np.pi * 10 * t)] * 3))
        d = five_point_derivative(s)
        expected = 2 * np.pi * 10 * np.cos(2 * np.pi * 10 * t)
        err = np.abs(d.samples[2:-2, 0] - expected[2:-2]).max()
        assert err / np.abs(expected).max() < 1e-4


def test_c4_cutoff_selection_semantics():
    with criterion(4, "Eq.-2 cutoff semantics and 180 Hz cap"):
        assert resolve_cutoff(50.0, 100.0) == pytest.approx(100.0)
        assert resolve_cutoff(190.0, 200.0) == pytest.approx(180.0)
        # through the slice-based path as well
        freqs = [10.0, 50.0, 100.0, 190.0, 200.0, 250.0]
        r1 = select_cutoff(slices_for(freqs,
                                      [1.0, 0.45, 0.30, 0.02, 0.02, 0.01],
                                      [1.0, 0.40, 0.05, 0.01, 0.01, 0.0]))
        assert (r1.f_ss, r1.f_n, r1.f0) == (pytest.approx(50.0),
                                            pytest.approx(100.0),
                                            pytest.approx(100.0))
        r2 = select_cutoff(slices_for(freqs,
                                      [1.0, 0.8, 0.6, 0.3, 0.32, 0.2],
                                      [1.0, 0.8, 0.6, 0.2, 0.05, 0.0]))
        assert r2.f_ss == pytest.approx(190.0)
        assert r2.f_n == pytest.approx(200.0)
        assert r2.f0 == pytest.approx(180.0)

        rng = np.random.default_rng(1004)
        for _ in range(1000):
            m = int(rng.integers(4, 32))
            freqs = np.unique(rng.uniform(2.0, 500.0, size=m))
            result = select_cutoff(slices_for(freqs,
                                              rng.uniform(0, 1.5, len(freqs)),
                                              rng.uniform(0, 1.5, len(freqs))))
            assert result.f0 <= 180.0


def test_c5_adaptive_denoising():
    with criterion(5, "adaptive denoising of a transient burst"):
        rate = 1600.0
        t = -0.03125 + np.arange(int(0.213 * rate)) / rate
        clean = np.sin(2 * np.pi * 10.0 * t)
        in_burst = (t >= 0) & (t < 0.020)
        burst = np.where(in_burst, np.sin(2 * np.pi * 300.0 * t), 0.0)
        # SNR 0 dB inside the burst: equal sine and burst power there
        signal_power = np.mean(clean[in_burst] ** 2)
        burst_power = np.mean(burst[in_burst] ** 2)
        burst *= np.sqrt(signal_power / burst_power)
        samples = np.zeros((len(t), 3))
        samples[:, 0] = clean + burst
        filtered, cutoff = adaptive_filter(TimeSeries3(-0.03125, rate, samples))
        assert 10.0 <= cutoff.f0 <= 180.0

        tail = t > 0.030
        err = filtered.samples[tail, 0] - clean[tail]
        nrmse = np.sqrt(np.mean(err ** 2)) / np.abs(clean).max()
        assert nrmse < 0.05, f"tail NRMSE {nrmse:.3f}"

        freqs = np.fft.rfftfreq(len(t), d=1 / rate)
        band = (freqs >= 250.0) & (freqs <= 350.0)
        spec_in = np.abs(np.fft.rfft(samples[:, 0])) ** 2
        spec_out = np.abs(np.fft.rfft(filtered.samples[:, 0])) ** 2
        reduction = 1.0 - spec_out[band].sum() / spec_in[band].sum()
        assert reduction >= 0.9, f"burst band energy reduction {reduction:.3f}"


def test_c6_filter_responses():
    with criterion(6, "Butterworth and CFC frequency responses"):
        rate, f0 = 4000.0, 100.0
        x = sine(f0, rate, 4.0)
        per_pass_db = 10.0 * np.log10(
            lockin_amplitude(butterworth_lowpass(x, f0), f0)
            / lockin_amplitude(x, f0))
        assert -3.5 <= per_pass_db <= -2.5, f"{per_pass_db:.2f} dB at cutoff"
        x4 = sine(4 * f0, rate, 4.0)
        total_db = 20.0 * np.log10(
            lockin_amplitude(butterworth_lowpass(x4, f0), 4 * f0)
            / lockin_amplitude(x4, 4 * f0))
        assert total_db <= -40.0, f"{total_db:.2f} dB at 4x cutoff"

        for cfc, rate, target in ((1000.0, 20000.0, 1650.0),
                                  (155.0, 8000.0, 256.0)):
            sweep = np.linspace(0.6 * target, 1.5 * target, 41)
            ratios = [lockin_amplitude(cfc_filter(sine(f, rate, 1.0), cfc), f)
                      / lockin_amplitude(sine(f, rate, 1.0), f) for f in sweep]
            crossing = np.interp(-1 / np.sqrt(2), -np.asarray(ratios), sweep)
            assert abs(crossing - target) / target < 0.05, \
                f"CFC {cfc}: -3 dB at {crossing:.0f} Hz vs {target} Hz"

        dc = TimeSeries1(0.0, 4000.0, np.full(2000, 1.0))
        assert np.abs(butterworth_lowpass(dc, 100.0).values - 1.0).max() < 1e-9
        assert np.abs(cfc_filter(dc, 155.0).values - 1.0).max() < 1e-9


def test_c7_cora_fixtures_and_banding():
    with criterion(7, "CORA fixtures and biofidelity banding"):
        ref = pulse_curve()
        assert cora_score(ref, ref).total == 1.0
        doubled = cora_score(ref, ref.with_values(2.0 * ref.values))
        assert doubled.total == pytest.approx(5.0 / 6.0, abs=1e-9)
        flipped = cora_score(ref, ref.with_values(-ref.values))
        assert flipped.shape == 0.0
        for total, band in ((0.87, "excellent"), (0.66, "good"),
                            (0.44, "fair"), (0.26, "marginal"),
                            (0.25, "unacceptable")):
            assert cora_band(total) == band, f"{total} -> {cora_band(total)}"


def test_c8_bland_altman_fixture():
    with criterion(8, "Bland-Altman hand fixture"):
        report = bland_altman([5.0, 6.0, 7.0], [4.0, 4.0, 4.0])
        assert report.mean_bias == pytest.approx(2.0, abs=1e-9)
        assert report.sd_bias == pytest.approx(1.0, abs=1e-9)
        assert report.loa_low == pytest.approx(0.04, abs=1e-9)
        assert report.loa_high == pytest.approx(3.96, abs=1e-9)


def test_c9_averaging_noise_reduction():
    with criterion(9, "five-sensor averaging noise reduction"):
        rng = np.random.default_rng(1009)
        t = np.arange(1000) / RATE
        clean = np.column_stack([np.sin(2 * np.pi * 7 * t)] * 3)
        sigma = 0.5
        ratios = []
        for _ in range(100):
            copies = [TimeSeries3(0.0, RATE,
                                  clean + rng.normal(scale=sigma,
                                                     size=clean.shape))
                      for _ in range(5)]
            avg = average_angular_velocity(copies)
            ratios.append((avg.samples - clean).std() / sigma)
        assert max(ratios) < 0.6, f"worst residual ratio {max(ratios):.3f}"


@pytest.fixture(scope="module")
def full_run(tmp_path_factory, config):
    root = tmp_path_factory.mktemp("acceptance_e2e")
    profile = standard_session_profile(seed=2024, with_noise=False)
    profile_path = dump_profile(profile, root / "profile.json")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config_to_json_dict(config)))
    session = root / "session"
    events = root / "events.csv"
    kin = root / "kin"
    report1 = root / "report1.json"
    report2 = root / "report2.json"
    started = time.perf_counter()
    assert main(["simulate", "--profile", str(profile_path), "--config",
                 str(config_path), "--out", str(session), "--seed", "6"]) == 0
    assert main(["detect", "--config", str(config_path), "--in", str(session),
                 "--out", str(events)]) == 0
    assert main(["reconstruct", "--config", str(config_path), "--in",
                 str(session), "--events", str(events), "--out", str(kin),
                 "--alpha-method", "both"]) == 0
    assert main(["evaluate", "--config", str(config_path), "--hb", str(kin),
                 "--ref", str(kin), "--pairs", str(events), "--out",
                 str(report1)]) == 0
    elapsed = time.perf_counter() - started
    assert main(["evaluate", "--config", str(config_path), "--hb", str(kin),
                 "--ref", str(kin), "--pairs", str(events), "--out",
                 str(report2)]) == 0
    return dict(root=root, session=session, report1=report1, report2=report2,
                elapsed=elapsed, profile=profile)


def test_c10_end_to_end_session(full_run):
    with criterion(10, "end-to-end 18-event session"):
        assert full_run["elapsed"] < 30.0, f"pipeline took {full_run['elapsed']:.1f} s"
        report = json.loads(full_run["report1"].read_text())
        assert report["n_events"] == 18

        # determinism: identical inputs and flags give identical bytes
        assert (full_run["report1"].read_bytes()
                == full_run["report2"].read_bytes())

        truth = json.loads((full_run["session"] / "truth.json").read_text())
        truth_by_id = {i + 1: ev for i, ev in enumerate(truth["events"])}
        prv = [ev["prv_rad_s"] for ev in truth["events"]]
        pra = [ev["pra_rad_s2"] for ev in truth["events"]]
        pla = [ev["pla_m_s2"] for ev in truth["events"]]
        assert min(prv) >= 4.0 and max(prv) <= 10.0, "PRV outside 4-10 rad/s"
        assert min(pra) >= 610.0 and max(pra) <= 3200.0, "PRA outside range"
        assert min(pla) >= 120.0 and max(pla) <= 340.0, "PLA outside range"

        for ev in report["events"]:
            t = truth_by_id[ev["pair_id"]]
            prv_err = abs(ev["peaks"]["angular_velocity"]["headband"]
                          - t["prv_rad_s"]) / t["prv_rad_s"]
            pla_err = abs(ev["peaks"]["linear_acceleration"]["headband"]
                          - t["pla_m_s2"]) / t["pla_m_s2"]
            pra_err = abs(ev["peaks"]["angular_acceleration_a3g1"]["headband"]
                          - t["pra_rad_s2"]) / t["pra_rad_s2"]
            assert prv_err < 0.05, f"event {ev['pair_id']}: PRV err {prv_err:.3f}"
            assert pla_err < 0.05, f"event {ev['pair_id']}: PLA err {pla_err:.3f}"
            assert pra_err < 0.10, f"event {ev['pair_id']}: PRA err {pra_err:.3f}"
