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
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import TimeSeries3, magnitude, window_span
from .detect import detect_impacts, extract_window as _extract_window
from .errors import DataError, FormatError, WindowError
from .ingest import (CHANNEL_KINDS, G_STANDARD, Block, Count, ImuRecording,
                     ListOf, MapOf, Number, SensorSpec, SessionConfig, Text,
                     Vector, block_field, check_fields, check_keys,
                     imu_csv_files, json_field, load_json, load_session_config, output_dir,
                     session_csv, to_json, write_imu_csv, write_json,
                     write_table)
from .twoproc import run_in_two

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

#: A profile stores its numbers as floats, since truth.json and labels.csv
#: print them.
_ANY, _AT_LEAST_0, _ABOVE_0 = (Number(sign, as_float=True)
                               for sign in ("", ">= 0", "> 0"))


@dataclass(frozen=True)
class HarmonicComponent:
    """One Gaussian-windowed sinusoid: A * env(t) * sin(2*pi*f*(t-c) + phi)
    with env = exp(-((t-c)/w)^2), or env = 1 when width is None."""

    amplitude: float = json_field(_ANY)
    freq_hz: float = json_field(_ANY)
    phase: float = json_field(_ANY, default=0.0)
    center_s: float = json_field(_ANY, default=0.0)
    width_s: float | None = json_field(_ABOVE_0, default=None)
    _error = FormatError

    def __post_init__(self):
        # Stored as floats, as a loaded component's are.  A component built
        # in the library is not checked: its envelope is even in width_s, so
        # a negative width is a model too.
        for f in fields(self):
            if (value := getattr(self, f.name)) is not None:
                object.__setattr__(self, f.name, float(value))

    def value(self, t: np.ndarray) -> np.ndarray:
        tau = t - self.center_s
        osc = np.sin(2.0 * np.pi * self.freq_hz * tau + self.phase)
        if self.width_s is None:
            return self.amplitude * osc
        env = np.exp(-((tau / self.width_s) ** 2))
        return self.amplitude * env * osc

    def value_and_derivative(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(value(t), d/dt value(t))``, the value bit for bit, with the
        sine, the cosine and the envelope computed once."""
        tau = t - self.center_s
        w = 2.0 * np.pi * self.freq_hz
        arg = w * tau + self.phase
        osc = np.sin(arg)
        dosc = w * np.cos(arg)
        if self.width_s is None:
            return self.amplitude * osc, self.amplitude * dosc
        env = np.exp(-((tau / self.width_s) ** 2))
        denv = -2.0 * tau / self.width_s ** 2 * env
        return (self.amplitude * env * osc,
                self.amplitude * (denv * osc + env * dosc))


#: exp(-x**2) underflows to exactly 0.0 once |x| > sqrt(745.2) ~ 27.3, so a
#: windowed term is exactly +-0.0 beyond this many widths from its center.
_ENVELOPE_SUPPORT = 28.0


def _axis_eval(components, t):
    """Sum of the components at ``t``."""
    return _axis_sums(components, t, lambda c, x: (c.value(x),), 1)[0]


def _axis_sums(components, t, term, n: int) -> list:
    """The ``n`` sums over the components of the ``n`` arrays that
    ``term(c, x)`` returns, at ``t``.

    A windowed term is evaluated only within its envelope's support, the
    samples where ``abs(t - c) <= reach`` holds; outside it the term is
    +-0.0, and adding that leaves the sum bit for bit the same.  ``fl(t - c)``
    is monotone in ``t``, so in sorted ``t`` the support is one slice
    (:func:`_support`), and a component whose support misses the ends of
    ``t`` is skipped.  Unsorted ``t`` (or ``t`` holding NaN) is evaluated in
    its ``argsort`` order, which puts NaN last, and the sums are put back in
    its own order.
    """
    if not len(t):
        return [np.zeros_like(t) for _ in range(n)]
    order = None
    if not np.all(t[1:] >= t[:-1]):
        order = np.argsort(t, kind="stable")
        t = t[order]
    outs = [np.zeros_like(t) for _ in range(n)]
    t_min, t_max = t.item(0), t.item(-1)
    for c in components:
        if c.width_s is None:
            for out, part in zip(outs, term(c, t)):
                out += part
            continue
        reach = _ENVELOPE_SUPPORT * abs(c.width_s)
        if not (t_max - c.center_s < -reach or t_min - c.center_s > reach):
            lo, hi = _support(t, c.center_s, reach)
            for out, part in zip(outs, term(c, t[lo:hi])):
                out[lo:hi] += part
    if order is None:
        return outs
    unsorted = [np.empty_like(out) for out in outs]
    for back, out in zip(unsorted, outs):
        back[order] = out
    return unsorted


def _support(t, center: float, reach: float) -> tuple[int, int]:
    """``(lo, hi)`` such that ``t[lo:hi]`` are the samples of sorted ``t``
    (NaN last) where ``abs(t - center) <= reach``.

    The samples where ``fl(t - center)`` lies in ``[-reach, reach]`` form
    one run, which ``searchsorted`` finds up to the rounding of ``center -+
    reach``; each end is then moved, outward and inward, by the mask's own
    arithmetic, a run of equal stamps at a time.
    """
    def inside(i):
        return abs(t.item(i) - center) <= reach

    lo = int(t.searchsorted(center - reach))
    hi = int(t.searchsorted(center + reach, side="right"))
    while lo > 0 and inside(lo - 1):
        lo = int(t.searchsorted(t[lo - 1]))
    while lo < hi and not inside(lo):
        lo = int(t.searchsorted(t[lo], side="right"))
    while hi < len(t) and inside(hi):
        hi = int(t.searchsorted(t[hi], side="right"))
    while hi > lo and not inside(hi - 1):
        hi = int(t.searchsorted(t[hi - 1]))
    return lo, hi


#: One list of components per axis.
_AXES = ListOf(ListOf(Block(HarmonicComponent)), 3)


@dataclass(frozen=True)
class MotionProfile:
    """Parametric rigid-body motion: omega(t) and q(t) per axis.

    The alpha of ``omega_alpha_at`` is the exact analytic derivative of
    omega by construction (only closed-form primitives are allowed).
    """

    omega_components: tuple[tuple[HarmonicComponent, ...], ...] = json_field(
        _AXES)
    q_components: tuple[tuple[HarmonicComponent, ...], ...] = json_field(_AXES)
    _error = FormatError

    def omega_at(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.column_stack([_axis_eval(self.omega_components[k], t)
                                for k in range(3)])

    def omega_alpha_at(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(omega, alpha)`` at ``t``: ``omega_at(t)`` bit for bit, and its
        derivative, with each term's sine, cosine and envelope computed once
        for both."""
        t = np.asarray(t, dtype=np.float64)
        axes = [_axis_sums(self.omega_components[k], t,
                           HarmonicComponent.value_and_derivative, 2)
                for k in range(3)]
        return tuple(np.column_stack(sums) for sums in zip(*axes))

    def q_at(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.column_stack([_axis_eval(self.q_components[k], t)
                                for k in range(3)])


def _rigid_acceleration(omega, alpha, q, position, gravity) -> np.ndarray:
    """alpha x r + omega x (omega x r) + q + g, row by row."""
    r_b = np.broadcast_to(np.asarray(position, dtype=np.float64), (len(omega), 3))
    return (np.cross(alpha, r_b) + np.cross(omega, np.cross(omega, r_b))
            + q + np.asarray(gravity, dtype=np.float64))


#: The most tones a burst may have; each costs a sine over the burst's
#: samples for every axis of every headband channel and impact.
MAX_BURST_TONES = 1000


@dataclass(frozen=True)
class BurstSpec:
    """Impact-locked transient: decaying sinusoids in a band around
    ``center_hz``, scaled per sensor to mimic uneven headband coupling.

    The :class:`NoiseSpec` that holds a burst checks it, so that a burst
    can be built before its noise."""

    gyro_amplitude: float = json_field(_AT_LEAST_0, default=0.0)   # rad/s
    accel_amplitude: float = json_field(_AT_LEAST_0, default=0.0)  # m/s^2
    center_hz: float = json_field(_ABOVE_0, default=300.0)
    bandwidth_hz: float = json_field(_AT_LEAST_0, default=140.0)
    duration_s: float = json_field(_AT_LEAST_0, default=0.015)
    n_tones: int = json_field(Count(1, MAX_BURST_TONES), default=3)
    _error = DataError


@dataclass(frozen=True)
class NoiseSpec:
    """Per-channel white noise plus the impact transient burst."""

    gyro_sigma: float = json_field(_AT_LEAST_0, default=0.0)    # rad/s
    accel_sigma: float = json_field(_AT_LEAST_0, default=0.0)   # m/s^2
    burst: BurstSpec = block_field(BurstSpec)
    # Headband sensor ids, which simulate_session checks against its config.
    per_sensor_scale: dict[str, float] = json_field(MapOf(_AT_LEAST_0),
                                                    default_factory=dict)
    _error = DataError

    def __post_init__(self):
        check_fields(self, "noise.")
        check_fields(self.burst, "noise.burst.")

    def scale_for(self, sensor_id: str) -> float:
        return self.per_sensor_scale.get(sensor_id, 1.0)


@dataclass(frozen=True)
class PlannedImpact:
    time_s: float = json_field(_ANY)
    label: str = json_field(Text())
    _error = FormatError

    def __post_init__(self):
        check_fields(self, "impact ")
        # Labels are written unquoted into labels.csv and events.csv.
        if any(c in self.label for c in ",\r\n"):
            raise DataError(f"impact label {self.label!r} contains a comma or "
                            "a line break")


@dataclass(frozen=True, kw_only=True)
class SessionProfile:
    """A full synthetic session: motion, impact schedule, noise, clocks.
    In JSON the motion's two keys lie in the profile's root."""

    duration_s: float = json_field(_ABOVE_0)
    gravity: tuple[float, float, float] = json_field(
        Vector(3, as_tuple=True), default=DEFAULT_GRAVITY)
    reference_clock_offset_s: float = json_field(_ANY, default=0.0)
    impacts: tuple[PlannedImpact, ...] = json_field(ListOf(Block(PlannedImpact)))
    noise: NoiseSpec = block_field(NoiseSpec)
    motion: MotionProfile = json_field(Block(MotionProfile, inline=True))
    _error = FormatError

    def __post_init__(self):
        check_fields(self, "")


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
    """A simulated session, whose recordings are built when first read.

    ``headband_jobs`` holds one function per headband sensor of ``config``,
    in its order, that builds the sensor's continuous recording, and
    ``reference_job`` one that builds the reference device's blocks (None
    without a reference sensor).  They read only what
    :func:`simulate_session` left in this process, so each gives the same
    recordings in any process forked after it: :func:`write_session`, the
    one writer of a session, builds each sensor in the process that writes
    it.  ``headband``, ``reference_blocks`` and ``truth`` are built
    in this process when first read, and kept.
    """

    profile: SessionProfile
    config: SessionConfig
    headband_jobs: tuple[Callable[[], ImuRecording], ...]
    reference_job: Callable[[], tuple[ImuRecording, ...]] | None = None

    @functools.cached_property
    def headband(self) -> tuple[ImuRecording, ...]:
        return tuple(build() for build in self.headband_jobs)

    @functools.cached_property
    def reference_blocks(self) -> tuple[ImuRecording, ...]:
        return () if self.reference_job is None else self.reference_job()

    @functools.cached_property
    def truth(self) -> tuple[TruthEvent, ...]:
        return _truth_events(self.profile, self.config)


#: exp(-x) underflows to exactly 0.0 once x > 745.2, so a burst is exactly
#: +-0.0 beyond this many time constants.  On nonzero noise it drops below
#: half an ulp long before (about 45 time constants for the bundled profile).
_BURST_SUPPORT = 750.0

#: A term c with |c| < 2**-54 * |b| is below half an ulp of b, so b + c == b
#: under round-to-nearest.  A burst's term is at most |amplitude| * decay up
#: to a few roundings, and this bound leaves a 4x margin for them.
_BELOW_HALF_ULP = 2.0 ** -56

#: The envelope |amplitude| * decay is floored here, so a sample is skipped
#: only on a base above 2**-944: there every rounding in the burst is
#: relative, as the bound above assumes, and none is the absolute rounding of
#: a subnormal.
_ENVELOPE_FLOOR = 2.0 ** -1000

#: The base below which a burst is evaluated over its whole support: on a
#: base of at most this, 2**-56 times it is at most the envelope's floor, so
#: the skip rule may keep a sample at any decay.
_BASE_FLOOR = _ENVELOPE_FLOOR / _BELOW_HALF_ULP

#: The tone values one burst evaluates at once: each batch of tones is one
#: sine over at most this many cells (512 KiB of temporaries).
_TONE_CELLS = 1 << 16


def _burst_waveform(t_rel: np.ndarray, base: np.ndarray, burst: BurstSpec,
                    amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Decaying in-band tones starting at t_rel = 0, to be added to ``base``.

    ``base`` has one row per sample of ``t_rel``; each of its columns gets its
    own tones, drawn column after column.  The draws are per tone, one
    frequency and one phase each (``rng.uniform`` of them, as ``low + (high
    - low) * rng.random()``), all in one call, so the generator's state does
    not depend on how many samples are evaluated.

    A column's tones are evaluated only where they can change ``base +
    burst``; elsewhere its burst is +-0.0:

    - within ``_BURST_SUPPORT`` time constants, beyond which exp(-t/tau) is
      exactly 0.0;
    - where |amplitude| * exp(-t/tau) is not below ``_BELOW_HALF_ULP`` times
      the base, so the burst there is not below half an ulp of the base.

    The tones are summed one after another, as one sine per tone would sum
    them, from batches of at most ``_TONE_CELLS`` values.
    """
    out = np.zeros_like(base)
    if amplitude == 0.0 or burst.duration_s == 0.0:
        return out
    tau = burst.duration_s / 3.0
    live = np.flatnonzero((t_rel >= 0.0) & (t_rel <= _BURST_SUPPORT * tau))
    t = t_rel[live]
    decay = np.exp(-t / tau)
    envelope = np.maximum(abs(amplitude) * decay, _ENVELOPE_FLOOR)
    low = burst.center_hz - burst.bandwidth_hz / 2.0
    high = burst.center_hz + burst.bandwidth_hz / 2.0
    draws = rng.random(2 * burst.n_tones * base.shape[1]).reshape(
        base.shape[1], burst.n_tones, 2)
    omegas = 2.0 * np.pi * (low + (high - low) * draws[..., 0])
    phases = 2.0 * np.pi * draws[..., 1]
    for column in range(base.shape[1]):
        keep = np.flatnonzero(
            envelope >= _BELOW_HALF_ULP * np.abs(base[live, column]))
        t_keep, decay_keep = t[keep], decay[keep]
        tones = np.zeros_like(t_keep)
        step = max(_TONE_CELLS // max(len(t_keep), 1), 1)
        for first in range(0, burst.n_tones, step):
            batch = slice(first, first + step)
            for sine in np.sin(omegas[column, batch, None] * t_keep
                               + phases[column, batch, None]):
                tones += decay_keep * sine
        out[live[keep], column] = tones
    return amplitude / burst.n_tones * out


def _burst_head(amplitude: float, tau: float, base_floor: float) -> float:
    """How long after its impact a burst of ``amplitude`` and time constant
    ``tau`` can move a sample of a base whose magnitude is at least
    ``base_floor``: its whole support where that is at most ``_BASE_FLOOR``
    (or NaN), and otherwise the time its envelope takes to fall to
    ``_BELOW_HALF_ULP * base_floor``, one time constant more for the
    roundings of the decay."""
    support = _BURST_SUPPORT * tau
    if not base_floor > _BASE_FLOOR:
        return support
    head = tau * (math.log(abs(amplitude))
                  - math.log(_BELOW_HALF_ULP * base_floor) + 1.0)
    return min(max(head, 0.0), support)


def _channel_noise(times: np.ndarray, sigma: float, burst_amp: float,
                   noise: NoiseSpec, impact_times, rng) -> np.ndarray:
    out = np.zeros((len(times), 3))
    if sigma > 0.0:
        out += rng.normal(scale=sigma, size=out.shape)
    if burst_amp > 0.0:
        tau = noise.burst.duration_s / 3.0
        # A lower bound of |out|: the noise's, then lowered over the rows
        # each burst writes.
        base_floor = float(np.abs(out).min(initial=np.inf))
        for t_imp in impact_times:
            # ``times`` is sorted, so the burst's samples lie in one window;
            # widened by a sample each side, _burst_waveform's own mask still
            # decides which of them are live.  Beyond the window's head no
            # sample passes its skip rule, and its burst there is +-0.0,
            # which leaves a nonzero base as it is.
            head = _burst_head(burst_amp, tau, base_floor)
            lo = max(int(np.searchsorted(times, t_imp)) - 1, 0)
            hi = int(np.searchsorted(times, t_imp + head, side="right")) + 1
            window = out[lo:hi]
            window += _burst_waveform(times[lo:hi] - t_imp, window,
                                      noise.burst, burst_amp, rng)
            base_floor = float(np.abs(window).min(initial=base_floor))
    return out


#: The most samples :func:`simulate_sensors` makes for one channel: over
#: 8 h at 3200 Hz, and 2.4 GB for the three axes of one channel.
MAX_CHANNEL_SAMPLES = 10 ** 8


def _check_sample_ceiling(specs, duration: float) -> None:
    for spec in specs:
        for ch in spec.channels:
            # floor(duration * rate) + 1 samples, at most the ceiling.
            if not duration * ch.rate < MAX_CHANNEL_SAMPLES:
                raise DataError(
                    f"sensor {spec.id!r} {ch.kind}: {duration:g} s at "
                    f"{ch.rate:g} Hz is above the ceiling of "
                    f"{MAX_CHANNEL_SAMPLES:.0e} samples per channel")


def _channel_samples(spec: SensorSpec, duration: float) -> int:
    """The samples of every channel of ``spec`` over ``duration``."""
    return sum(int(math.floor(duration * ch.rate)) + 1 for ch in spec.channels)


def _stamps(duration: float, rate: float) -> np.ndarray:
    """The sample stamps of a channel at ``rate`` over ``duration``."""
    return np.arange(int(math.floor(duration * rate)) + 1) / rate


def _channel_stream(seed: int, i_spec: int, i_ch: int) -> np.random.Generator:
    """The noise stream of channel ``CHANNEL_KINDS[i_ch]`` of the sensor
    ``i_spec``."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(i_spec, i_ch)))


def _motion_grids(motion: MotionProfile, t: np.ndarray, accel: bool) -> list:
    """The motion at ``t`` that the channels sampled there read: omega, and
    with ``accel`` also alpha and q (omega and alpha in one pass)."""
    if not accel:
        return [motion.omega_at(t)]
    return [*motion.omega_alpha_at(t), motion.q_at(t)]


def _reading(kind: str, grids: list, spec: SensorSpec, gravity) -> np.ndarray:
    """The noiseless reading of ``spec``'s channel ``kind`` from the
    :func:`_motion_grids` ``grids``: ``R^T omega`` for the gyro, ``R^T
    (alpha x r + omega x (omega x r) + q + g)`` for an accelerometer, one
    row per sample."""
    if kind == "gyro":
        head = grids[0]
    else:
        head = _rigid_acceleration(*grids, spec.position, gravity)
    return head @ spec.orientation  # == (R^T @ head^T)^T


def simulate_sensors(motion: MotionProfile, specs: list[SensorSpec],
                     noise: NoiseSpec, duration: float, *,
                     gravity=DEFAULT_GRAVITY, seed: int = 0,
                     impact_times=(), clock_offset: float = 0.0,
                     ) -> list[Callable[[], ImuRecording]]:
    """One function per sensor of ``specs``, in order, that builds the
    sensor's continuous recording: ``[build() for build in
    simulate_sensors(...)]`` are the recordings.

    Gyro channels read ``R_i^T omega(t)``; accelerometer channels read
    ``R_i^T (alpha x r_i + omega x (omega x r_i) + q + g)``, each sampled at
    the channel's own rate.  ``clock_offset`` shifts the device clock:
    a sample stamped t was taken at physical time t + clock_offset.

    The motion is evaluated before this returns, once on each channel
    rate's grid (omega, and alpha and q where an accelerometer samples at
    that rate, omega and alpha then in one pass), and every function builds
    its channels from those grids.
    A function so gives the same recording whenever it runs, in this
    process or in one forked after this returns.

    Noise is deterministic for a given seed.  Each channel draws from its own
    stream, keyed by the sensor's index in ``specs``: simulating ``specs[1:2]``
    alone gives ``specs[1]`` different noise than simulating ``specs[:2]``.
    """
    _check_sample_ceiling(specs, duration)
    accel_rates = {ch.rate for spec in specs for ch in spec.channels
                   if ch.kind != "gyro"}

    @functools.cache
    def on_grid(rate):
        # Motion is shared by every channel sampled at the same rate.
        return _motion_grids(motion, _stamps(duration, rate) + clock_offset,
                             rate in accel_rates)

    local_impacts = [t - clock_offset for t in impact_times]

    def build(i_spec: int, spec: SensorSpec) -> ImuRecording:
        channels: dict[str, TimeSeries3 | None] = dict.fromkeys(CHANNEL_KINDS)
        # A channel's index in CHANNEL_KINDS keys its noise stream.
        for i_ch, kind in enumerate(CHANNEL_KINDS):
            ch = spec.channel(kind)
            if ch is None:
                continue
            if kind == "gyro":
                sigma, burst_amp = noise.gyro_sigma, noise.burst.gyro_amplitude
            else:
                sigma, burst_amp = noise.accel_sigma, noise.burst.accel_amplitude
            channels[kind] = TimeSeries3(0.0, ch.rate, _reading(
                kind, on_grid(ch.rate), spec, gravity) + _channel_noise(
                    _stamps(duration, ch.rate), sigma,
                    burst_amp * noise.scale_for(spec.id), noise, local_impacts,
                    _channel_stream(seed, i_spec, i_ch)))
        return ImuRecording(spec.id, **channels)

    for spec in specs:
        for ch in spec.channels:
            on_grid(ch.rate)
    return [functools.partial(build, i, spec) for i, spec in enumerate(specs)]


#: The stamps of each impact's truth window.
_TRUTH_STAMPS = 4001


def _truth_peaks(profile: SessionProfile, config: SessionConfig) -> np.ndarray:
    """The analytic PRV, PRA and PLA of each planned impact, one row each,
    over the reference window, ``pre`` before to ``reference_post`` after
    the impact."""
    pre = config.window.pre
    post = config.window.reference_post
    peaks = np.empty((len(profile.impacts), 3))
    for row, imp in zip(peaks, profile.impacts):
        t = imp.time_s + np.linspace(-pre, post, _TRUTH_STAMPS)
        w, alpha = profile.motion.omega_alpha_at(t)
        a4 = _rigid_acceleration(w, alpha, profile.motion.q_at(t),
                                 config.reference_point, profile.gravity)
        row[:] = [np.linalg.norm(x, axis=1).max() for x in (w, alpha, a4)]
    return peaks


def _truth_events(profile: SessionProfile, config: SessionConfig) -> tuple[TruthEvent, ...]:
    """:func:`_truth_peaks` of each planned impact, with its time and label."""
    return tuple(TruthEvent(imp.time_s, imp.label, *peaks)
                 for imp, peaks in zip(profile.impacts,
                                       _truth_peaks(profile, config).tolist()))


def simulate_session(profile: SessionProfile, config: SessionConfig,
                     seed: int = 0) -> SimulatedSession:
    """Simulate the whole session: continuous headband recordings plus
    per-event reference blocks cut by the reference device's own trigger.

    Every channel's sample ceiling is checked here, and the headband motion
    is evaluated here on each channel rate's grid; each sensor's recordings
    are built by its job of the returned :class:`SimulatedSession`.  The
    reference job evaluates the motion on its own grid, which only it reads,
    and only on the rows where its trigger can fire (:func:`_reference_blocks`).
    """
    # A scale of any other sensor would be read by no channel.
    check_keys(profile.noise.per_sensor_scale,
               [spec.id for spec in config.headband_sensors],
               "noise.per_sensor_scale", DataError)
    ref_spec = config.reference_sensor
    _check_sample_ceiling(
        [*config.headband_sensors, *([ref_spec] if ref_spec else [])],
        profile.duration_s)
    headband = simulate_sensors(
        profile.motion, list(config.headband_sensors), profile.noise,
        profile.duration_s, gravity=profile.gravity, seed=seed,
        impact_times=[imp.time_s for imp in profile.impacts],
    )
    reference = None
    if ref_spec is not None:
        reference = functools.partial(_reference_blocks, profile, config, seed)
    return SimulatedSession(profile, config, tuple(headband), reference)


#: The reach of a windowed component in the reference trigger's screen, in
#: widths: beyond it the component's envelope is below exp(-9) ~ 1.2e-4.
_SCREEN_REACH = 3.0

#: The relative margin the screen keeps between its bound and the trigger
#: threshold, for the roundings of the motion, the rotation and the
#: resultant (each a few ulps of the terms the bound sums).
_SCREEN_MARGIN = 1e-6


def _reference_blocks(profile: SessionProfile, config: SessionConfig,
                      seed: int) -> tuple[ImuRecording, ...]:
    """The reference device's blocks: its recording over the whole session,
    on its own clock and with its own clean noise, cut around each of its
    own triggers.

    The recording is the one :func:`simulate_sensors` gives the reference
    sensor alone with the clean noise and ``seed + 1``.  Its noise is drawn
    over the whole session, but where the screen of :func:`_trigger_rows`
    holds, its motion is evaluated only on the rows that screen picks: the
    trigger can fire only within them, and they hold every block of a
    trigger up to the roundings of their widening.  Where a block leaves
    them anyway, or where the screen fails, the whole session is evaluated.
    """
    spec = config.reference_sensor
    clean = NoiseSpec(gyro_sigma=min(profile.noise.gyro_sigma, 0.02),
                      accel_sigma=min(profile.noise.accel_sigma, 0.3))
    noises = {}
    for i_ch, kind in enumerate(CHANNEL_KINDS):
        if (ch := spec.channel(kind)) is not None:
            sigma = clean.gyro_sigma if kind == "gyro" else clean.accel_sigma
            noises[kind] = _channel_noise(
                _stamps(profile.duration_s, ch.rate), sigma, 0.0, clean, (),
                _channel_stream(seed + 1, 0, i_ch))
    rows = _trigger_rows(profile, config, noises)
    blocks = None if rows is None else _cut_blocks(profile, config, noises,
                                                   rows)
    if blocks is None:
        whole = {spec.channel(kind).rate: np.ones(len(noise), dtype=bool)
                 for kind, noise in noises.items()}
        blocks = _cut_blocks(profile, config, noises, whole)
    return blocks


def _screen_bound(motion: MotionProfile, position,
                  gravity) -> tuple[list, float]:
    """``(spans, bound)``: each windowed component's reach, ``_SCREEN_REACH``
    widths each side of its center, as ``(start, end)`` in physical time,
    and a bound of |alpha x r + omega x (omega x r) + q + g| at ``r =
    position`` at any time outside every span.

    Outside its span a windowed term is at most ``|A| e^-k^2`` (k the reach
    in widths) and its derivative at most ``|A| e^-k^2 (2 pi |f| + 2 k /
    |w|)``; an unwindowed term is at most ``|A|``, and its derivative
    ``2 pi |f| |A|``.  Each axis sums its terms' bounds, and |omega|,
    |alpha| and |q| are at most the norms of their axes' bounds."""
    tail = math.exp(-_SCREEN_REACH ** 2)
    spans = []
    sums = {}
    for key in ("omega_components", "q_components"):
        value, slope = [0.0] * 3, [0.0] * 3
        for k, axis in enumerate(getattr(motion, key)):
            for c in axis:
                a, w = abs(c.amplitude), 2.0 * math.pi * abs(c.freq_hz)
                if c.width_s is None:
                    value[k] += a
                    slope[k] += w * a
                    continue
                width = abs(c.width_s)
                reach = _SCREEN_REACH * width
                spans.append((c.center_s - reach, c.center_s + reach))
                value[k] += a * tail
                slope[k] += a * tail * (w + 2.0 * _SCREEN_REACH / width)
        sums[key] = math.hypot(*value), math.hypot(*slope)
    (omega, alpha), (q, _) = sums["omega_components"], sums["q_components"]
    r, g = math.hypot(*position), math.hypot(*gravity)
    return spans, g + alpha * r + omega * omega * r + q


def _trigger_rows(profile: SessionProfile, config: SessionConfig,
                  noises: dict) -> dict | None:
    """A mask per reference channel rate of the rows on which the reference
    motion is evaluated; or None where the screen fails and the whole
    session is.

    The screen bounds the trigger channel's resultant outside the spans S of
    :func:`_screen_bound`: that bound, through the rotation, plus the largest
    noise the channel drew.  Where it is below the trigger threshold, by
    ``_SCREEN_MARGIN``, the trigger fires only in S; the rows are S's, a
    sample wider each side, widened by ``pre`` before and ``reference_post``
    after, and two samples more, on every channel rate."""
    spec = config.reference_sensor
    kind = "accel_high" if "accel_high" in noises else "accel_low"
    if kind not in noises:
        return None
    spans, head = _screen_bound(profile.motion, spec.position, profile.gravity)
    bound = (head * float(np.linalg.norm(spec.orientation, 2))
             + math.sqrt(3.0) * float(np.abs(noises[kind]).max(initial=0.0)))
    if not bound * (1.0 + _SCREEN_MARGIN) < config.trigger.threshold:
        return None
    duration = profile.duration_s
    stamps = _stamps(duration, spec.channel(kind).rate)
    t = stamps + profile.reference_clock_offset_s
    starts, ends = np.array(spans, dtype=np.float64).reshape(-1, 2).T
    lo = np.maximum(t.searchsorted(starts) - 1, 0)
    hi = np.minimum(t.searchsorted(ends, side="right") + 1, len(t))
    lo, hi = lo[lo < hi], hi[lo < hi]
    first = stamps[lo] - config.window.pre
    last = stamps[hi - 1] + config.window.reference_post
    rows = {}
    for rate in {spec.channel(k).rate for k in noises}:
        grid = _stamps(duration, rate)
        mask = rows[rate] = np.zeros(len(grid), dtype=bool)
        for a, b in zip(np.maximum(grid.searchsorted(first) - 2, 0).tolist(),
                        (grid.searchsorted(last, side="right") + 2).tolist()):
            mask[a:b] = True
    return rows


def _cut_blocks(profile: SessionProfile, config: SessionConfig,
                noises: dict, rows: dict) -> tuple[ImuRecording, ...] | None:
    """The reference blocks of the recording whose motion is evaluated on
    the ``rows`` masks (:func:`_trigger_rows`), and 0 elsewhere; or None
    where a block leaves them.  The trigger runs on the resultant of that
    recording, exact on the rows and 0 elsewhere."""
    spec = config.reference_sensor
    accel_rates = {spec.channel(kind).rate for kind in noises
                   if kind != "gyro"}
    index = {rate: np.flatnonzero(mask) for rate, mask in rows.items()}
    grids = {rate: _motion_grids(
        profile.motion,
        _stamps(profile.duration_s, rate)[index[rate]]
        + profile.reference_clock_offset_s, rate in accel_rates)
        for rate in rows}
    channels = {}
    for kind, noise in noises.items():
        rate = spec.channel(kind).rate
        samples = np.zeros(noise.shape)
        samples[index[rate]] = (_reading(kind, grids[rate], spec,
                                         profile.gravity)
                                + noise[index[rate]])
        channels[kind] = TimeSeries3(0.0, rate, samples)
    ref_rec = ImuRecording(spec.id, **channels)
    trig = magnitude(ref_rec.trigger_accel)
    # Dead time: the longer (headband) processing window, so post-impact
    # ringing cannot re-trigger a second block inside one event.
    dead_time = config.window.pre + config.window.headband_post
    pre, post = config.window.pre, config.window.reference_post
    blocks = []
    for t0 in detect_impacts(trig, config.trigger.threshold,
                             config.trigger.min_duration,
                             min_separation=dead_time):
        try:
            rel = _extract_window(ref_rec, t0, pre, post)
        except WindowError:
            gyro = ref_rec.gyro
            raise DataError(
                f"reference sensor {ref_rec.sensor_id!r}: the block of its "
                f"trigger at {t0:.4f} s spans [{t0 - pre:.4f}, "
                f"{t0 + post:.4f}] s, outside its recording "
                f"[{gyro.start_time:.4f}, {gyro.end_time:.4f}] s") from None
        for ch in spec.channels:
            first, last = window_span(0.0, ch.rate, t0, pre, post)
            if not rows[ch.rate][first:last + 1].all():
                return None
        blocks.append(rel.map(lambda kind, ts: ts.shifted(t0)))
    return tuple(blocks)


def write_session(sim: SimulatedSession, path,
                  header_comments: tuple[str, ...] = ()) -> None:
    """Write the simulated session ``sim`` in the exact formats the ingest
    module reads: its sensors, each built in the process that writes it,
    ``sim.config`` copied to config.json, then the ground-truth sidecars
    labels.csv and truth.json.

    A headband sensor lands in ``<id>.csv`` (+ ``<id>_high.csv`` companion
    when the high-g channel runs its own clock); the reference sensor's
    blocks are written one block per file as ``<id>_ev###.csv``.

    The jobs run in two processes by :func:`kinereco.twoproc.run_in_two`,
    each with a cost known before any job runs: one job for the ground
    truth, then one per sensor (:func:`_sensor_job`).

    - A headband sensor's job builds its recording and writes its files,
      and the reference job builds the blocks and writes them.  The cost is
      the samples the job simulates plus the cells it writes, which take
      about as long each: four per sample of a headband channel (one
      simulated, three written; the time column is left out).  The
      reference job costs two per sample of its channels: it draws their
      noise over the whole session, and evaluates the motion only on the
      rows its trigger screen keeps (:func:`_trigger_rows`, 44 % of them on
      the bundled 18-impact profile), which are known only once it has
      drawn the noise; its blocks hold 12 % (47 ms for the 124 802 samples
      of the bundled 18-impact profile's two 3200 Hz channels).
    - The truth job computes the analytic peaks of every impact
      (:func:`_truth_peaks`) and returns them as a table, which a child
      hands back through shared memory; this process writes the sidecars
      from it.  Its cost is three per stamp of the truth windows
      (``_TRUTH_STAMPS`` per impact): evaluating omega, alpha and q on a
      stamp takes about three quarters of the time a headband channel's
      sample takes to simulate and write (44 ms for the 72 018 stamps of
      the bundled 18-impact profile, against 58 ms for a headband sensor's
      75 077 samples).  Run after the join, it would add its whole time to
      the write.

    On the bundled profiles and config, and on the benchmark's, the split
    puts the truth and the reference job in the second process with two of
    the five headband sensors, and the other three here.  The reference
    job's arrays (about 12 MB at its peak on the bundled profile, its noise
    and its channels over the whole session among them) so stay out of this
    process.

    Each sensor is built by the same job and each file written by the same
    :func:`write_imu_csv` call in either process, so every byte is the one a
    single process writes.  The outcome is the serial loop's, over the
    sensors in the order above (the headband sensors in the config's order,
    then the reference): every sensor that can be built is, and every file
    that can be written is, then the error of the earliest failure is
    raised and no config.json or sidecar is written.  A truth job that
    fails hands back None, and the peaks are then computed again after
    labels.csv, which raises their error where one process writing in
    order raises it.
    """
    out = output_dir(path)
    config, duration = sim.config, sim.profile.duration_s
    # (cost per sample, sensor, its build function)
    sensors = [(4, spec, build) for spec, build in
               zip(config.headband_sensors, sim.headband_jobs)]
    if sim.reference_job is not None:
        sensors.append((2, config.reference_sensor, sim.reference_job))
    jobs = [(3 * _TRUTH_STAMPS * len(sim.profile.impacts),
             functools.partial(_truth_job, sim.profile, config)),
            *((weight * _channel_samples(spec, duration),
               functools.partial(_sensor_job, out, spec, build,
                                 header_comments))
              for weight, spec, build in sensors)]
    truth = run_in_two(jobs)[0]
    payload = config_to_json_dict(config)
    stamp = _manifest_stamp(header_comments)
    if stamp:
        payload["manifest_sha256"] = stamp
    write_json(out / "config.json", payload)
    _write_sidecars(sim, out, truth, header_comments)


def _sensor_job(out: Path, spec: SensorSpec, build, header_comments) -> None:
    """Build the sensor ``spec`` by ``build`` (a headband recording, or the
    reference's blocks) and write every CSV file of it in ``out``, each
    whether or not an earlier one failed, then raise the error of the
    earliest that failed."""
    built = build()
    if spec.role == "reference":
        targets = [(session_csv(spec.id, k), block)
                   for k, block in enumerate(built, start=1)]
    else:
        targets = [(session_csv(spec.id), built)]
    errors = []
    for target, rec in targets:
        for file, kinds in imu_csv_files(out / target, rec):
            try:
                write_imu_csv(file, rec, kinds, header_comments)
            except Exception as exc:
                errors.append(exc)
    if errors:
        raise errors[0]


def _manifest_stamp(header_comments) -> str | None:
    for comment in header_comments:
        if comment.startswith("manifest_sha256="):
            return comment.split("=", 1)[1]
    return None


def write_simulated_session(sim: SimulatedSession, path,
                            header_comments: tuple[str, ...] = ()) -> None:
    """:func:`write_session` of ``sim``, the call ``kinereco simulate``
    makes."""
    write_session(sim, path, header_comments)


def _write_sidecars(sim: SimulatedSession, out: Path, truth,
                    header_comments) -> None:
    """Write labels.csv, then truth.json with the peaks of the table
    ``truth`` the truth job returned, or, where it returned None, with the
    peaks computed here."""
    impacts = sim.profile.impacts
    write_table(out / "labels.csv", ("time_s", "label"),
                (np.array([imp.time_s for imp in impacts]),
                 [imp.label for imp in impacts]), header_comments, "%.6f")
    peaks = _truth_peaks(sim.profile, sim.config) if truth is None else truth[0]
    payload = {
        "gravity": list(sim.profile.gravity),
        "reference_clock_offset_s": sim.profile.reference_clock_offset_s,
        "events": [
            {"t0_s": imp.time_s, "label": imp.label, "prv_rad_s": prv,
             "pra_rad_s2": pra, "pla_m_s2": pla}
            for imp, (prv, pra, pla) in zip(impacts, peaks.tolist())
        ],
    }
    stamp = _manifest_stamp(header_comments)
    if stamp:
        payload["manifest_sha256"] = stamp
    write_json(out / "truth.json", payload)


def _truth_job(profile: SessionProfile, config: SessionConfig):
    """:func:`_truth_peaks` as a table for :func:`run_in_two`, or None
    where they raise (:func:`write_session`)."""
    try:
        peaks = _truth_peaks(profile, config)
    except Exception:
        return None
    return peaks, None, len(peaks)


# ---------------------------------------------------------------------------
# Standard profiles and example configuration


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
    """Illustrative 5-IMU + mouthpiece geometry (not the field hardware):
    the bundled ``profiles/field_config.json``, whose geometry
    ``docs/formats.md`` describes."""
    return load_session_config(
        Path(__file__).with_name("profiles") / "field_config.json")


# ---------------------------------------------------------------------------
# JSON (de)serialization of profiles and configurations


def dump_profile(profile: SessionProfile, path) -> Path:
    path = Path(path)
    write_json(path, to_json(profile))
    return path


def load_profile(path) -> SessionProfile:
    """Load a session profile from its JSON form (inverse of
    :func:`dump_profile`), by :func:`~kinereco.ingest.load_json`.

    Absent optional fields take the dataclass defaults; each field must
    pass its kind, whose error class is the block's: a noise field fails as
    a :class:`DataError`, any other field as a :class:`FormatError`, each
    naming the file and the field.
    """
    return load_json(path, SessionProfile, "the profile")


def config_to_json_dict(config: SessionConfig) -> dict:
    return to_json(config)
