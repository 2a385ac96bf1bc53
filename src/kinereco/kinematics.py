"""Head kinematics reconstruction.

Three stages, per impact window:

1. Angular velocity: the gyro streams are rotated to the head frame, put on
   one clock, and averaged sample-by-sample to suppress local headband
   deformation; the average is then low-passed at the wavelet-selected
   adaptive cutoff (zero phase).
2. Angular acceleration: either the five-point-stencil derivative of the
   filtered angular velocity, or the algebraic solve below.
3. Algebraic (A3G1) reconstruction: with three non-collinear accelerometers
   at positions r_i, every sample satisfies

       a_i = alpha x r_i + omega x (omega x r_i) + q        (i = 1..3)

   which is linear in the 6 unknowns (alpha, q) once omega is known from the
   gyro.  The 9x6 least-squares system is solved per sample, and the
   translational acceleration is propagated to the point of interest r_4.
   Gravity is not subtracted: it folds into q (the specific force at the
   head-frame origin) and provably leaves alpha untouched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries1, TimeSeries3, rotate_series, same_clock, sample_on_grid
from .detect import ImpactWindow
from .errors import ConfigError, DataError, DegenerateSignalError, WindowError
from .ingest import SessionConfig
from .wavelet import CutoffResult, butterworth_lowpass, cfc_filter, cwt, \
    normalized_slices, select_cutoff

__all__ = [
    "KinematicsSet",
    "ReferenceKinematics",
    "average_angular_velocity",
    "adaptive_filter",
    "five_point_derivative",
    "A3g1Geometry",
    "a3g1_solve",
    "reconstruct_headband_event",
    "reconstruct_reference_event",
]

log = logging.getLogger(__name__)

#: Conditioning limit above which the solver falls back to a pseudo-inverse.
CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class KinematicsSet:
    """Everything reconstructed from the headband for one impact.

    All series share the impact-relative clock and rate.  ``alpha_a3g1``,
    ``a_ref_point``, ``q`` and ``a3g1_residual`` are None when the algebraic
    method was not run.  ``q`` is the specific force at the head-frame origin
    and includes gravity.
    """

    omega_h: TimeSeries3
    omega_hf: TimeSeries3
    alpha_diff: TimeSeries3 | None
    alpha_a3g1: TimeSeries3 | None
    a_ref_point: TimeSeries3 | None
    q: TimeSeries3 | None
    f0: float
    a3g1_residual: TimeSeries1 | None


@dataclass(frozen=True)
class ReferenceKinematics:
    """Reference-device post-processing output for one impact window."""

    omega: TimeSeries3
    alpha: TimeSeries3
    a_point: TimeSeries3


def average_angular_velocity(gyros: list[TimeSeries3]) -> TimeSeries3:
    """Per-sample arithmetic mean of N angular-velocity series.

    All series must already be in the head frame and on a common clock
    (same start time, rate and length); raises :class:`DataError` otherwise.
    """
    if not gyros:
        raise DataError("no gyro series to average")
    first = gyros[0]
    for s in gyros[1:]:
        if not same_clock(s, first):
            raise DataError("gyro series are not on a common clock")
    mean = np.mean([s.samples for s in gyros], axis=0)
    return first.with_samples(mean)


def adaptive_filter(omega_h: TimeSeries3, coeff_threshold: float = 0.1,
                    cap_hz: float = 180.0, end_time: float = 0.150,
                    ) -> tuple[TimeSeries3, CutoffResult]:
    """Wavelet-adaptive low-pass of the averaged angular velocity.

    Every non-degenerate component gets its own scalogram and cutoff from the
    slices at t = 0 and t = ``end_time``; a single cutoff (the max over the
    component cutoffs, never above ``cap_hz``) is then applied to all three
    axes with the zero-phase 4th-order Butterworth.

    Raises
    ------
    WindowError
        If the window does not cover [0, end_time].
    DegenerateSignalError
        If the signal is identically zero on all axes.
    """
    if omega_h.start_time > 1e-9 or omega_h.end_time < end_time - 1e-9:
        raise WindowError(
            f"adaptive filter needs coverage of [0, {end_time:g}] s, got "
            f"[{omega_h.start_time:g}, {omega_h.end_time:g}] s"
        )
    best: CutoffResult | None = None
    for axis in range(3):
        comp = omega_h.component(axis)
        if not comp.values.any():
            continue
        sc = cwt(comp)
        try:
            slices = normalized_slices(sc, 0.0, end_time)
        except DegenerateSignalError:
            continue
        result = select_cutoff(slices, threshold=coeff_threshold, cap=cap_hz)
        if best is None or result.f0 > best.f0:
            best = result
    if best is None:
        raise DegenerateSignalError("angular velocity is identically zero")
    filtered = butterworth_lowpass(omega_h, best.f0)
    return filtered, best


def five_point_derivative(x: TimeSeries3 | TimeSeries1):
    """Time derivative via the five-point central stencil.

    Interior samples use (-x[i+2] + 8 x[i+1] - 8 x[i-1] + x[i-2]) / (12 dt)
    (exact for quartics); the first and last two samples fall back to
    one-sided second-order stencils.

    Raises
    ------
    DataError
        If the series has fewer than 5 samples.
    """
    if len(x) < 5:
        raise DataError(f"five-point stencil needs >= 5 samples, got {len(x)}")
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


def _skew(r: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -r[2], r[1]],
                     [r[2], 0.0, -r[0]],
                     [-r[1], r[0], 0.0]])


class A3g1Geometry:
    """Time-invariant part of the algebraic solve, which depends only on the
    three accelerometer positions; :func:`a3g1_solve` builds one per call.

    Builds the 9x6 design matrix from the three accelerometer positions and
    prepares either a Cholesky factor of the normal equations or, when the
    conditioning exceeds :data:`CONDITION_LIMIT`, a pseudo-inverse.

    Raises
    ------
    ConfigError
        When the three positions are (numerically) collinear.
    """

    def __init__(self, r1, r2, r3):
        self.positions = [np.asarray(r, dtype=np.float64) for r in (r1, r2, r3)]
        blocks = [np.hstack([-_skew(r), np.eye(3)]) for r in self.positions]
        self.design = np.vstack(blocks)  # (9, 6)
        svals = np.linalg.svd(self.design, compute_uv=False)
        if svals[-1] < 1e-12 * svals[0]:
            raise ConfigError(
                "accelerometer geometry is rank-deficient (collinear positions)"
            )
        self.condition = svals[0] / svals[-1]
        if self.condition > CONDITION_LIMIT:
            log.warning("geometry condition %.2e exceeds %.0e; using pseudo-inverse",
                        self.condition, CONDITION_LIMIT)
            self._pinv = np.linalg.pinv(self.design)
            self._cho = None
        else:
            from scipy.linalg import cho_factor

            self._pinv = None
            self._cho = cho_factor(self.design.T @ self.design)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Least-squares solve for a (9, n) right-hand-side block."""
        if self._pinv is not None:
            return self._pinv @ rhs
        from scipy.linalg import cho_solve

        return cho_solve(self._cho, self.design.T @ rhs)


def a3g1_solve(accels: list[TimeSeries3], omega: TimeSeries3,
               positions, ref_point,
               ) -> tuple[TimeSeries3, TimeSeries3, TimeSeries3, TimeSeries1]:
    """Algebraic angular/translational acceleration from 3 accelerometers + gyro.

    Parameters
    ----------
    accels : list of TimeSeries3
        Head-frame translational accelerations measured at the three
        positions, on the same clock as ``omega`` (pre-filtered upstream).
    omega : TimeSeries3
        Head-frame angular velocity.
    positions : sequence of 3 vectors
        Accelerometer locations r_1..r_3 (m, head frame), non-collinear.
    ref_point : vector
        Point of interest r_4 where the translational acceleration is
        evaluated.

    Returns
    -------
    (alpha, q, a_point, residual)
        Angular acceleration, specific force at the origin, translational
        acceleration at ``ref_point``, and the per-sample Euclidean norm of
        the least-squares misfit.
    """
    if len(accels) != 3:
        raise DataError(f"a3g1_solve needs exactly 3 accelerometer series, "
                        f"got {len(accels)}")
    n = len(omega)
    for s in accels:
        if not same_clock(s, omega):
            raise DataError("accelerometer series are not on the gyro clock")
    geometry = A3g1Geometry(*positions)
    r4 = np.asarray(ref_point, dtype=np.float64)

    w = omega.samples  # (n, 3)
    rhs = np.empty((9, n))
    for i, (acc, r) in enumerate(zip(accels, geometry.positions)):
        centripetal = np.cross(w, np.cross(w, np.broadcast_to(r, (n, 3))))
        rhs[3 * i:3 * i + 3] = (acc.samples - centripetal).T

    u = geometry.solve(rhs)  # (6, n)
    misfit = geometry.design @ u - rhs
    residual = np.linalg.norm(misfit, axis=0)

    alpha = u[:3].T
    q = u[3:].T
    a_point = (np.cross(alpha, np.broadcast_to(r4, (n, 3)))
               + np.cross(w, np.cross(w, np.broadcast_to(r4, (n, 3))))
               + q)
    clock = dict(start_time=omega.start_time, sample_rate=omega.sample_rate)
    return (TimeSeries3(samples=alpha, **clock),
            TimeSeries3(samples=q, **clock),
            TimeSeries3(samples=a_point, **clock),
            TimeSeries1(values=residual, **clock))


def _window_grid(pre: float, post: float, rate: float) -> np.ndarray:
    n = int(np.ceil((pre + post) * rate - 1e-9)) + 1
    return -pre + np.arange(n) / rate


def _reference_grid(pre: float, post: float, rate: float) -> np.ndarray:
    n = int(np.floor((pre + post) * rate + 1e-9))
    return -pre + np.arange(n) / rate


def reconstruct_headband_event(window: ImpactWindow, config: SessionConfig,
                               alpha_method: str = "both") -> KinematicsSet:
    """Run the full headband reconstruction for one impact window.

    Rotates every channel to the head frame, averages the gyros on the
    window grid, applies the adaptive filter, and computes the requested
    angular-acceleration method(s): ``"diff"``, ``"a3g1"`` or ``"both"``.
    """
    if alpha_method not in ("diff", "a3g1", "both"):
        raise ConfigError(f"unknown alpha method {alpha_method!r}")
    hb_specs = [s for s in config.headband_sensors if s.id in window.channels]
    if not hb_specs:
        raise DataError("impact window contains no headband channels")

    gyro_rate = max(s.channel("gyro").rate for s in hb_specs)
    grid = _window_grid(window.pre, window.post, gyro_rate)

    rotated_gyros = []
    for spec in hb_specs:
        rec = window.channels[spec.id]
        head_frame = rotate_series(rec.gyro, spec.orientation)
        rotated_gyros.append(sample_on_grid(head_frame, grid))
    omega_h = average_angular_velocity(rotated_gyros)
    tuning = dict(coeff_threshold=config.filter.coeff_threshold,
                  cap_hz=config.filter.max_cutoff_hz,
                  end_time=config.filter.end_time_ms / 1000.0)
    omega_hf, cutoff = adaptive_filter(omega_h, **tuning)

    omega_for_a3g1 = omega_hf
    if config.a3g1_gyro != "averaged":
        spec = config.sensor(config.a3g1_gyro)
        rec = window.channels.get(config.a3g1_gyro)
        if rec is None:
            raise DataError(f"a3g1_gyro sensor {config.a3g1_gyro!r} not in window")
        single = sample_on_grid(rotate_series(rec.gyro, spec.orientation), grid)
        omega_for_a3g1, _ = adaptive_filter(single, **tuning)

    alpha_diff = None
    if alpha_method in ("diff", "both"):
        alpha_diff = five_point_derivative(omega_hf)

    alpha_a3g1 = q = a_point = residual = None
    if alpha_method in ("a3g1", "both"):
        accels, positions = [], []
        for sid in config.a3g1_sensor_ids:
            spec = config.sensor(sid)
            rec = window.channels.get(sid)
            if rec is None:
                raise DataError(f"a3g1 sensor {sid!r} missing from impact window")
            raw = rec.channel(config.a3g1_channel)
            if raw is None:
                raise DataError(f"a3g1 sensor {sid!r} has no "
                                f"{config.a3g1_channel!r} channel data")
            head_frame = rotate_series(raw, spec.orientation)
            prefiltered = butterworth_lowpass(head_frame,
                                              config.filter.accel_prefilter_hz)
            accels.append(sample_on_grid(prefiltered, grid))
            positions.append(spec.position)
        alpha_a3g1, q, a_point, residual = a3g1_solve(
            accels, omega_for_a3g1, positions, config.reference_point
        )

    return KinematicsSet(
        omega_h=omega_h, omega_hf=omega_hf, alpha_diff=alpha_diff,
        alpha_a3g1=alpha_a3g1, a_ref_point=a_point, q=q,
        f0=cutoff.f0, a3g1_residual=residual,
    )


def reconstruct_reference_event(window: ImpactWindow,
                                config: SessionConfig) -> ReferenceKinematics:
    """Reference-device post-processing: frame rotation, CFC filtering,
    stencil differentiation.

    Angular velocity is filtered at CFC ``ang_vel`` (155 default),
    translational acceleration at CFC ``trans`` (1000 default), and the
    angular acceleration is the five-point-stencil derivative of the
    filtered angular velocity.
    """
    spec = config.reference_sensor
    if spec is None or spec.id not in window.channels:
        raise DataError("impact window contains no reference channel")
    rec = window.channels[spec.id]
    rate = rec.gyro.sample_rate
    grid = _reference_grid(window.pre, window.post, rate)

    omega = rotate_series(rec.gyro, spec.orientation)
    omega = cfc_filter(omega, config.cfc.ang_vel)
    accel = rotate_series(rec.trigger_accel, spec.orientation)
    accel = cfc_filter(accel, config.cfc.trans)

    omega = sample_on_grid(omega, grid)
    accel = sample_on_grid(accel, grid)
    alpha = five_point_derivative(omega)
    return ReferenceKinematics(omega=omega, alpha=alpha, a_point=accel)
