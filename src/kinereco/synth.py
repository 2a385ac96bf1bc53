"""Rigid-body motion and sensor simulator.

The motion model is deliberately restricted to closed-form differentiable
primitives: each angular-velocity or origin-acceleration axis is a sum of
Gaussian-windowed sinusoids, so the angular acceleration is available as the
exact analytic derivative (no numerics in the oracle).  Sensor channels are
generated by forward application of the rigid-body acceleration relation

    a_i(t) = alpha(t) x r_i + omega(t) x (omega(t) x r_i) + q(t) + g

rotated into each sensor's frame, optionally with seeded white noise and an
impact-locked transient burst that mimics local headband deformation.

A standard 18-impact session generator reproduces the three field intensity
tiers (throw-in / goal-kick / corner-kick, six each); peak levels land inside
the observed field ranges (PRV 4-10 rad/s, PRA 610-3200 rad/s^2, PLA
120-340 m/s^2), used as realism bounds rather than exact targets.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import TimeSeries3, magnitude
from .detect import detect_impacts, extract_window as _extract_window
from .errors import DataError
from .ingest import (G_STANDARD, ChannelSpec, ImuRecording, SensorSpec,
                     SessionConfig, write_imu_csv)

__all__ = [
    "HarmonicComponent",
    "MotionProfile",
    "NoiseSpec",
    "PlannedImpact",
    "SessionProfile",
    "SimulatedSession",
    "simulate_sensors",
    "simulate_session",
    "write_session",
    "standard_session_profile",
    "example_session_config",
    "load_profile",
    "dump_profile",
]

#: Default gravity as specific force on a static upright head (head frame z up).
DEFAULT_GRAVITY = (0.0, 0.0, G_STANDARD)


@dataclass(frozen=True)
class HarmonicComponent:
    """One Gaussian-windowed sinusoid: A * env(t) * sin(2*pi*f*(t-c) + phi)
    with env = exp(-((t-c)/w)^2), or env = 1 when width is None."""

    amplitude: float
    freq_hz: float
    phase: float = 0.0
    center_s: float = 0.0
    width_s: float | None = None

    def value(self, t: np.ndarray) -> np.ndarray:
        tau = t - self.center_s
        osc = np.sin(2.0 * np.pi * self.freq_hz * tau + self.phase)
        if self.width_s is None:
            return self.amplitude * osc
        env = np.exp(-((tau / self.width_s) ** 2))
        return self.amplitude * env * osc

    def derivative(self, t: np.ndarray) -> np.ndarray:
        tau = t - self.center_s
        w = 2.0 * np.pi * self.freq_hz
        osc = np.sin(w * tau + self.phase)
        dosc = w * np.cos(w * tau + self.phase)
        if self.width_s is None:
            return self.amplitude * dosc
        env = np.exp(-((tau / self.width_s) ** 2))
        denv = -2.0 * tau / self.width_s ** 2 * env
        return self.amplitude * (denv * osc + env * dosc)


#: exp(-x**2) underflows to exactly 0.0 once |x| > sqrt(745.2) ~ 27.3, so a
#: windowed term is exactly +-0.0 beyond this many widths from its center.
_ENVELOPE_SUPPORT = 28.0


def _axis_eval(components, t, deriv=False):
    """Sum of the components (or of their derivatives) at ``t``.

    A windowed term is evaluated only within its envelope's support; outside
    it the term is +-0.0, and adding that leaves the sum bit for bit the same.
    """
    out = np.zeros_like(t)
    for c in components:
        term = c.derivative if deriv else c.value
        if c.width_s is None:
            out += term(t)
            continue
        live = np.flatnonzero(
            np.abs(t - c.center_s) <= _ENVELOPE_SUPPORT * abs(c.width_s))
        out[live] += term(t[live])
    return out


@dataclass(frozen=True)
class MotionProfile:
    """Parametric rigid-body motion: omega(t) and q(t) per axis.

    ``alpha_at`` is the exact analytic derivative of ``omega_at`` by
    construction (only closed-form primitives are allowed).
    """

    omega_components: tuple[tuple[HarmonicComponent, ...], ...]
    q_components: tuple[tuple[HarmonicComponent, ...], ...]

    def omega_at(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.column_stack([_axis_eval(self.omega_components[k], t)
                                for k in range(3)])

    def alpha_at(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.column_stack([_axis_eval(self.omega_components[k], t, deriv=True)
                                for k in range(3)])

    def q_at(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.column_stack([_axis_eval(self.q_components[k], t)
                                for k in range(3)])

    def acceleration_at(self, t: np.ndarray, position, gravity=(0, 0, 0)) -> np.ndarray:
        """Translational acceleration at a head-frame point, gravity included."""
        t = np.asarray(t, dtype=np.float64)
        return _rigid_acceleration(self.omega_at(t), self.alpha_at(t),
                                   self.q_at(t), position, gravity)


def _rigid_acceleration(omega, alpha, q, position, gravity) -> np.ndarray:
    """alpha x r + omega x (omega x r) + q + g, row by row."""
    r_b = np.broadcast_to(np.asarray(position, dtype=np.float64), (len(omega), 3))
    return (np.cross(alpha, r_b) + np.cross(omega, np.cross(omega, r_b))
            + q + np.asarray(gravity, dtype=np.float64))


@dataclass(frozen=True)
class BurstSpec:
    """Impact-locked transient: decaying sinusoids in a band around
    ``center_hz``, scaled per sensor to mimic uneven headband coupling."""

    gyro_amplitude: float = 0.0       # rad/s
    accel_amplitude: float = 0.0      # m/s^2
    center_hz: float = 300.0
    bandwidth_hz: float = 140.0
    duration_s: float = 0.015
    n_tones: int = 3


@dataclass(frozen=True)
class NoiseSpec:
    """Per-channel white noise plus the impact transient burst."""

    gyro_sigma: float = 0.0           # rad/s
    accel_sigma: float = 0.0          # m/s^2
    burst: BurstSpec = field(default_factory=BurstSpec)
    per_sensor_scale: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.gyro_sigma < 0 or self.accel_sigma < 0:
            raise DataError("noise sigmas must be non-negative")
        if self.burst.duration_s < 0:
            raise DataError("burst duration must be non-negative")

    def scale_for(self, sensor_id: str) -> float:
        return float(self.per_sensor_scale.get(sensor_id, 1.0))

    @property
    def silent(self) -> bool:
        return (self.gyro_sigma == 0.0 and self.accel_sigma == 0.0
                and self.burst.gyro_amplitude == 0.0
                and self.burst.accel_amplitude == 0.0)


@dataclass(frozen=True)
class PlannedImpact:
    time_s: float
    label: str


@dataclass(frozen=True)
class SessionProfile:
    """A full synthetic session: motion, impact schedule, noise, clocks."""

    motion: MotionProfile
    impacts: tuple[PlannedImpact, ...]
    duration_s: float
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    gravity: tuple[float, float, float] = DEFAULT_GRAVITY
    reference_clock_offset_s: float = 0.0


@dataclass(frozen=True)
class TruthEvent:
    """Analytic ground truth for one impact, over the comparison window."""

    t0: float
    label: str
    prv: float
    pra: float
    pla: float


@dataclass(frozen=True)
class SimulatedSession:
    headband: tuple[ImuRecording, ...]
    reference_blocks: tuple[ImuRecording, ...]
    truth: tuple[TruthEvent, ...]
    profile: SessionProfile


#: exp(-x) underflows to exactly 0.0 once x > 745.2.
_BURST_SUPPORT = 750.0


def _burst_waveform(t_rel: np.ndarray, burst: BurstSpec, amplitude: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Sum of decaying in-band tones starting at t_rel = 0.

    Tones are evaluated only while the decay has not underflowed: beyond
    ``_BURST_SUPPORT`` time constants exp(-t/tau) is exactly 0.0.
    """
    if amplitude == 0.0 or burst.duration_s == 0.0:
        return np.zeros_like(t_rel)
    tau = burst.duration_s / 3.0
    live = np.flatnonzero((t_rel >= 0.0) & (t_rel <= _BURST_SUPPORT * tau))
    t = t_rel[live]
    decay = np.exp(-t / tau)
    tones = np.zeros_like(t)
    for _ in range(burst.n_tones):
        f = rng.uniform(burst.center_hz - burst.bandwidth_hz / 2.0,
                        burst.center_hz + burst.bandwidth_hz / 2.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        tones += decay * np.sin(2.0 * np.pi * f * t + phi)
    out = np.zeros_like(t_rel)
    out[live] = tones
    return amplitude / burst.n_tones * out


def _channel_noise(times: np.ndarray, sigma: float, burst_amp: float,
                   noise: NoiseSpec, impact_times, rng) -> np.ndarray:
    out = np.zeros((len(times), 3))
    if sigma > 0.0:
        out += rng.normal(scale=sigma, size=out.shape)
    if burst_amp > 0.0:
        for t_imp in impact_times:
            t_rel = times - t_imp
            for axis in range(3):
                out[:, axis] += _burst_waveform(t_rel, noise.burst, burst_amp, rng)
    return out


def simulate_sensors(motion: MotionProfile, specs: list[SensorSpec],
                     noise: NoiseSpec, duration: float, *,
                     gravity=DEFAULT_GRAVITY, seed: int = 0,
                     impact_times=(), clock_offset: float = 0.0,
                     ) -> list[ImuRecording]:
    """Generate continuous recordings for the given sensors.

    Gyro channels read ``R_i^T omega(t)``; accelerometer channels read
    ``R_i^T (alpha x r_i + omega x (omega x r_i) + q + g)``, each sampled at
    the channel's own rate.  ``clock_offset`` shifts the device clock:
    a sample stamped t was taken at physical time t + clock_offset.

    Noise is deterministic for a given seed, independent of which other
    sensors are simulated.
    """
    def stamps_at(rate):
        return np.arange(int(math.floor(duration * rate)) + 1) / rate

    @functools.cache
    def on_grid(evaluate, rate):
        # Motion is shared by every channel sampled at the same rate.
        return evaluate(stamps_at(rate) + clock_offset)

    recordings = []
    for i_spec, spec in enumerate(specs):
        channels: dict[str, TimeSeries3 | None] = {
            "gyro": None, "accel_low": None, "accel_high": None}
        for i_ch, kind in enumerate(("gyro", "accel_low", "accel_high")):
            ch = spec.channel(kind)
            if ch is None:
                continue
            stamps = stamps_at(ch.rate)
            omega = on_grid(motion.omega_at, ch.rate)
            if kind == "gyro":
                head = omega
                sigma, burst_amp = noise.gyro_sigma, noise.burst.gyro_amplitude
            else:
                head = _rigid_acceleration(
                    omega, on_grid(motion.alpha_at, ch.rate),
                    on_grid(motion.q_at, ch.rate), spec.position, gravity)
                sigma, burst_amp = noise.accel_sigma, noise.burst.accel_amplitude
            sensor_frame = head @ spec.orientation  # == (R^T @ head^T)^T
            scale = noise.scale_for(spec.id)
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(i_spec, i_ch)))
            local_impacts = [t - clock_offset for t in impact_times]
            sensor_frame = sensor_frame + _channel_noise(
                stamps, sigma, burst_amp * scale, noise, local_impacts, rng)
            channels[kind] = TimeSeries3(0.0, ch.rate, sensor_frame)
        recordings.append(ImuRecording(spec.id, channels["gyro"],
                                       channels["accel_low"], channels["accel_high"]))
    return recordings


def _shift_recording(rec: ImuRecording, offset: float) -> ImuRecording:
    def shift(ts):
        return None if ts is None else ts.shifted(offset)
    return ImuRecording(rec.sensor_id, shift(rec.gyro), shift(rec.accel_low),
                        shift(rec.accel_high))


def _truth_events(profile: SessionProfile, config: SessionConfig) -> tuple[TruthEvent, ...]:
    """Analytic peaks over [-31.25, +93.75] ms around each planned impact."""
    pre = config.window.pre
    post = config.window.reference_post
    events = []
    for imp in profile.impacts:
        t = imp.time_s + np.linspace(-pre, post, 4001)
        w = profile.motion.omega_at(t)
        alpha = profile.motion.alpha_at(t)
        a4 = _rigid_acceleration(w, alpha, profile.motion.q_at(t),
                                 config.reference_point, profile.gravity)
        events.append(TruthEvent(
            t0=imp.time_s,
            label=imp.label,
            prv=float(np.linalg.norm(w, axis=1).max()),
            pra=float(np.linalg.norm(alpha, axis=1).max()),
            pla=float(np.linalg.norm(a4, axis=1).max()),
        ))
    return tuple(events)


def simulate_session(profile: SessionProfile, config: SessionConfig,
                     seed: int = 0) -> SimulatedSession:
    """Simulate the whole session: continuous headband recordings plus
    per-event reference blocks cut by the reference device's own trigger."""
    impact_times = [imp.time_s for imp in profile.impacts]
    headband = simulate_sensors(
        profile.motion, list(config.headband_sensors), profile.noise,
        profile.duration_s, gravity=profile.gravity, seed=seed,
        impact_times=impact_times,
    )

    blocks: list[ImuRecording] = []
    ref_spec = config.reference_sensor
    if ref_spec is not None:
        clean = NoiseSpec(gyro_sigma=min(profile.noise.gyro_sigma, 0.02),
                          accel_sigma=min(profile.noise.accel_sigma, 0.3))
        offset = profile.reference_clock_offset_s
        ref_rec = simulate_sensors(
            profile.motion, [ref_spec], clean, profile.duration_s,
            gravity=profile.gravity, seed=seed + 1,
            impact_times=impact_times, clock_offset=offset,
        )[0]
        trig = magnitude(ref_rec.trigger_accel)
        # Dead time: the longer (headband) processing window, so post-impact
        # ringing cannot re-trigger a second block inside one event.
        dead_time = config.window.pre + config.window.headband_post
        events = detect_impacts(trig, config.trigger.threshold,
                                config.trigger.min_duration,
                                min_separation=dead_time)
        for ev in events:
            rel = _extract_window(ref_rec, ev, config.window.pre,
                                  config.window.reference_post)
            blocks.append(_shift_recording(rel, ev.t0))

    return SimulatedSession(
        headband=tuple(headband),
        reference_blocks=tuple(blocks),
        truth=_truth_events(profile, config),
        profile=profile,
    )


def write_session(recordings, config: SessionConfig, path,
                  header_comments: tuple[str, ...] = ()) -> list[Path]:
    """Write recordings in the exact formats the ingest module reads.

    Headband recordings land in ``<id>.csv`` (+ ``<id>_high.csv`` companion
    when the high-g channel runs its own clock); reference recordings are
    written one block per file as ``<id>_ev###.csv``.  The configuration is
    copied to ``config.json``.
    """
    recordings = list(recordings)
    if not recordings:
        raise DataError("no recordings to write")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    by_sensor: dict[str, list[ImuRecording]] = {}
    for rec in recordings:
        by_sensor.setdefault(rec.sensor_id, []).append(rec)
    for sensor_id, recs in by_sensor.items():
        spec = config.sensor(sensor_id)
        if spec is None:
            raise DataError(f"recording {sensor_id!r} has no sensor in the config")
        if spec.role == "reference":
            recs = sorted(recs, key=lambda r: r.gyro.start_time)
            for k, rec in enumerate(recs, start=1):
                written.append(write_imu_csv(out / f"{sensor_id}_ev{k:03d}.csv",
                                             rec, header_comments))
        else:
            if len(recs) != 1:
                raise DataError(
                    f"headband sensor {sensor_id!r} has {len(recs)} recordings; "
                    "expected one continuous stream"
                )
            written.append(write_imu_csv(out / f"{sensor_id}.csv", recs[0],
                                         header_comments))
    cfg_path = out / "config.json"
    payload = config_to_json_dict(config)
    stamp = _manifest_stamp(header_comments)
    if stamp:
        payload["manifest_sha256"] = stamp
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(cfg_path)
    return written


def _manifest_stamp(header_comments) -> str | None:
    for comment in header_comments:
        if comment.startswith("manifest_sha256="):
            return comment.split("=", 1)[1]
    return None


def write_simulated_session(sim: SimulatedSession, config: SessionConfig,
                            path, header_comments: tuple[str, ...] = ()) -> list[Path]:
    """write_session plus the ground-truth sidecars (labels.csv, truth.json)."""
    out = Path(path)
    written = write_session(list(sim.headband) + list(sim.reference_blocks),
                            config, out, header_comments)
    labels_path = out / "labels.csv"
    with open(labels_path, "w", encoding="utf-8", newline="\n") as fh:
        for comment in header_comments:
            fh.write(f"# {comment}\n")
        fh.write("time_s,label\n")
        for imp in sim.profile.impacts:
            fh.write(f"{imp.time_s:.6f},{imp.label}\n")
    written.append(labels_path)
    truth_path = out / "truth.json"
    payload = {
        "gravity": list(sim.profile.gravity),
        "reference_clock_offset_s": sim.profile.reference_clock_offset_s,
        "events": [
            {"t0_s": ev.t0, "label": ev.label, "prv_rad_s": ev.prv,
             "pra_rad_s2": ev.pra, "pla_m_s2": ev.pla}
            for ev in sim.truth
        ],
    }
    stamp = _manifest_stamp(header_comments)
    if stamp:
        payload["manifest_sha256"] = stamp
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(truth_path)
    return written


# ---------------------------------------------------------------------------
# Standard profiles and example configuration


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


#: Intensity tiers: angular amplitude (rad/s), ring frequency (Hz), origin
#: pulse amplitude (m/s^2).  The post-impact ring carries the angular
#: acceleration; its envelope (center +90 ms, width 58 ms) keeps it out of
#: the pre-trigger span (so the 3 g rule fires on the contact pulse) while
#: still present at the 150 ms steady-state slice, which is what lets the
#: adaptive filter classify it as signal rather than transient noise.
_TIERS = {
    "throw_in": dict(w=4.6, f=26.0, qa=150.0),
    "goal_kick": dict(w=6.1, f=33.0, qa=175.0),
    "corner_kick": dict(w=7.4, f=44.0, qa=195.0),
}

_RING_CENTER_S = 0.090
_RING_WIDTH_S = 0.058


def _event_components(t0: float, tier: dict, jitter: np.random.Generator,
                      ) -> tuple[list[list[HarmonicComponent]], list[list[HarmonicComponent]]]:
    """Per-event motion: post-impact ring plus the contact pulse."""
    w = tier["w"] * jitter.uniform(0.97, 1.03)
    f = tier["f"] * jitter.uniform(0.97, 1.03)
    qa = tier["qa"] * jitter.uniform(0.95, 1.05)
    # Rotation mostly sagittal (about y), with small off-axis fractions.
    frac_x = jitter.uniform(-0.20, 0.20)
    frac_z = jitter.uniform(-0.15, 0.15)
    omega = [[], [], []]
    for axis, frac in ((0, frac_x), (1, 1.0), (2, frac_z)):
        a = w * frac
        if a == 0.0:
            continue
        omega[axis].append(
            HarmonicComponent(a, f, phase=0.0, center_s=t0 + _RING_CENTER_S,
                              width_s=_RING_WIDTH_S)
        )
    # Ball contact: backward pulse with small vertical component, then a
    # short oscillatory follow-through.
    direction = np.array([-1.0, jitter.uniform(-0.15, 0.15),
                          jitter.uniform(-0.35, -0.15)])
    direction /= np.linalg.norm(direction)
    q = [[], [], []]
    for axis in range(3):
        amp = qa * direction[axis]
        if amp == 0.0:
            continue
        q[axis] += [
            HarmonicComponent(amp, 0.0, phase=math.pi / 2.0,
                              center_s=t0 + 0.002, width_s=0.004),
            HarmonicComponent(0.18 * amp, 20.0, phase=0.0,
                              center_s=t0 + 0.012, width_s=0.012),
        ]
    return omega, q


#: Continuous head sway over the whole session (active player motion):
#: undamped low-frequency tones, stationary by construction so the slice
#: comparison sees them identically at both analysis times.
_SWAY = {
    0: ((0.30, 0.7), (0.18, 1.9)),
    1: ((0.45, 0.6), (0.25, 1.3)),
    2: ((0.20, 0.9), (0.12, 2.1)),
}


def standard_session_profile(seed: int = 2024, with_noise: bool = True,
                             reference_clock_offset_s: float = 0.0,
                             n_per_tier: int = 6,
                             spacing_s: float = 1.0) -> SessionProfile:
    """The bundled field-like session: three tiers, six headers each."""
    jitter = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(99,)))
    omega: list[list[HarmonicComponent]] = [[], [], []]
    q: list[list[HarmonicComponent]] = [[], [], []]
    for axis, tones in _SWAY.items():
        for amp, freq in tones:
            omega[axis].append(HarmonicComponent(
                amp, freq, phase=float(jitter.uniform(0.0, 2.0 * np.pi))))
    impacts = []
    t0 = spacing_s
    for label in ("throw_in", "goal_kick", "corner_kick"):
        for _ in range(n_per_tier):
            ev_omega, ev_q = _event_components(t0, _TIERS[label], jitter)
            for axis in range(3):
                omega[axis] += ev_omega[axis]
                q[axis] += ev_q[axis]
            impacts.append(PlannedImpact(time_s=t0, label=label))
            t0 += spacing_s
    noise = NoiseSpec()
    if with_noise:
        noise = NoiseSpec(
            gyro_sigma=0.04,
            accel_sigma=0.6,
            burst=BurstSpec(gyro_amplitude=2.5, accel_amplitude=25.0,
                            center_hz=300.0, bandwidth_hz=140.0,
                            duration_s=0.015),
            per_sensor_scale={},
        )
    return SessionProfile(
        motion=MotionProfile(
            omega_components=tuple(tuple(c) for c in omega),
            q_components=tuple(tuple(c) for c in q),
        ),
        impacts=tuple(impacts),
        duration_s=t0 + 0.5,
        noise=noise,
        gravity=DEFAULT_GRAVITY,
        reference_clock_offset_s=reference_clock_offset_s,
    )


def example_session_config() -> SessionConfig:
    """Illustrative 5-IMU + mouthpiece geometry (not the field hardware)."""
    bt_channels = (
        ChannelSpec("gyro", 1125.0, "2000 deg/s"),
        ChannelSpec("accel_low", 1125.0, "16 g"),
        ChannelSpec("accel_high", 1600.0, "200 g"),
    )
    radius, height = 0.09, 0.015
    sensors = []
    names = ("bt_right_outer", "bt_right_inner", "bt_back",
             "bt_left_inner", "bt_left_outer")
    azimuths = (-140.0, -160.0, 180.0, 160.0, 140.0)
    for name, az_deg, tilt_deg in zip(names, azimuths, (8, 4, 0, -4, -8)):
        az = math.radians(az_deg)
        position = np.array([radius * math.cos(az), radius * math.sin(az), height])
        orientation = _rot_z(az + math.pi) @ _rot_x(math.radians(tilt_deg))
        sensors.append(SensorSpec(name, "headband", position, orientation,
                                  bt_channels))
    ref_point = np.array([0.075, 0.0, -0.035])
    sensors.append(SensorSpec(
        "mouthpiece", "reference", ref_point,
        _rot_x(math.radians(6.0)) @ _rot_z(math.radians(2.0)),
        (ChannelSpec("gyro", 3200.0, "2000 deg/s"),
         ChannelSpec("accel_high", 3200.0, "200 g")),
    ))
    return SessionConfig(
        sensors=tuple(sensors),
        reference_point=ref_point,
        a3g1_sensor_ids=("bt_right_outer", "bt_left_outer", "bt_back"),
        name="synthetic-field-session",
    )


# ---------------------------------------------------------------------------
# JSON (de)serialization of profiles and configurations


def _component_to_json(c: HarmonicComponent) -> dict:
    return {"amplitude": c.amplitude, "freq_hz": c.freq_hz, "phase": c.phase,
            "center_s": c.center_s, "width_s": c.width_s}


def profile_to_json_dict(profile: SessionProfile) -> dict:
    return {
        "duration_s": profile.duration_s,
        "gravity": list(profile.gravity),
        "reference_clock_offset_s": profile.reference_clock_offset_s,
        "impacts": [{"time_s": i.time_s, "label": i.label}
                    for i in profile.impacts],
        "noise": {
            "gyro_sigma": profile.noise.gyro_sigma,
            "accel_sigma": profile.noise.accel_sigma,
            "per_sensor_scale": dict(profile.noise.per_sensor_scale),
            "burst": {
                "gyro_amplitude": profile.noise.burst.gyro_amplitude,
                "accel_amplitude": profile.noise.burst.accel_amplitude,
                "center_hz": profile.noise.burst.center_hz,
                "bandwidth_hz": profile.noise.burst.bandwidth_hz,
                "duration_s": profile.noise.burst.duration_s,
                "n_tones": profile.noise.burst.n_tones,
            },
        },
        "omega_components": [[_component_to_json(c) for c in axis]
                             for axis in profile.motion.omega_components],
        "q_components": [[_component_to_json(c) for c in axis]
                         for axis in profile.motion.q_components],
    }


def dump_profile(profile: SessionProfile, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_json_dict(profile), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_profile(path) -> SessionProfile:
    """Load a session profile from its JSON form (inverse of dump_profile)."""
    from .errors import FormatError

    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    try:
        def axis_components(entries):
            return tuple(HarmonicComponent(
                amplitude=float(e["amplitude"]), freq_hz=float(e["freq_hz"]),
                phase=float(e.get("phase", 0.0)),
                center_s=float(e.get("center_s", 0.0)),
                width_s=None if e.get("width_s") is None else float(e["width_s"]),
            ) for e in entries)

        noise_raw = raw.get("noise", {})
        burst_raw = noise_raw.get("burst", {})
        return SessionProfile(
            motion=MotionProfile(
                omega_components=tuple(axis_components(a)
                                       for a in raw["omega_components"]),
                q_components=tuple(axis_components(a)
                                   for a in raw["q_components"]),
            ),
            impacts=tuple(PlannedImpact(float(i["time_s"]), str(i["label"]))
                          for i in raw["impacts"]),
            duration_s=float(raw["duration_s"]),
            noise=NoiseSpec(
                gyro_sigma=float(noise_raw.get("gyro_sigma", 0.0)),
                accel_sigma=float(noise_raw.get("accel_sigma", 0.0)),
                burst=BurstSpec(
                    gyro_amplitude=float(burst_raw.get("gyro_amplitude", 0.0)),
                    accel_amplitude=float(burst_raw.get("accel_amplitude", 0.0)),
                    center_hz=float(burst_raw.get("center_hz", 300.0)),
                    bandwidth_hz=float(burst_raw.get("bandwidth_hz", 140.0)),
                    duration_s=float(burst_raw.get("duration_s", 0.015)),
                    n_tones=int(burst_raw.get("n_tones", 3)),
                ),
                per_sensor_scale={str(k): float(v) for k, v in
                                  noise_raw.get("per_sensor_scale", {}).items()},
            ),
            gravity=tuple(float(g) for g in raw.get("gravity", DEFAULT_GRAVITY)),
            reference_clock_offset_s=float(raw.get("reference_clock_offset_s", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed profile ({exc!r})") from None


def config_to_json_dict(config: SessionConfig) -> dict:
    return {
        "name": config.name,
        "reference_point_m": [float(x) for x in config.reference_point],
        "a3g1_sensors": list(config.a3g1_sensor_ids),
        "a3g1_channel": config.a3g1_channel,
        "a3g1_gyro": config.a3g1_gyro,
        "trigger": {"threshold_g": config.trigger.threshold_g,
                    "min_duration_ms": config.trigger.min_duration_ms},
        "filter": {
            "end_time_ms": config.filter.end_time_ms,
            "reference_end_time_ms": config.filter.reference_end_time_ms,
            "coeff_threshold": config.filter.coeff_threshold,
            "max_cutoff_hz": config.filter.max_cutoff_hz,
            "accel_prefilter_hz": config.filter.accel_prefilter_hz,
        },
        "cfc": {"trans": config.cfc.trans, "ang_vel": config.cfc.ang_vel},
        "window": {
            "pre_ms": config.window.pre_ms,
            "headband_post_ms": config.window.headband_post_ms,
            "reference_post_ms": config.window.reference_post_ms,
        },
        "column_map": config.column_map,
        "sensors": [
            {
                "id": s.id,
                "role": s.role,
                "position_m": [float(x) for x in s.position],
                "orientation_row_major": [float(x) for x in s.orientation.ravel()],
                "channels": {
                    c.kind: {"rate_hz": c.rate, "range": c.range_label}
                    for c in s.channels
                },
            }
            for s in config.sensors
        ],
    }
