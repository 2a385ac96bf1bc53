"""Foundational value types: uniformly sampled time series and frame utilities.

All kinematic quantities travel through :class:`TimeSeries3` (3-component) or
:class:`TimeSeries1` (scalar resultants, filter inputs).  Both are immutable:
the sample arrays are copied on construction and marked read-only, so every
operation in the toolkit is a pure function of its inputs.

Head frame convention used throughout (documented, not inferable from data):
x = posterior -> anterior, y = right -> left, z = inferior -> superior.
Rotation matrices map sensor-frame vectors into this head frame.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, WindowError

__all__ = [
    "TimeSeries1",
    "TimeSeries3",
    "rotate_series",
    "shared_grid",
    "window_span",
    "magnitude",
    "lagged_correlation",
    "best_shift",
    "validate_rotation",
    "is_rotation",
]

#: Orthonormality tolerance for rotation matrices (R^T R = I, det = +1).
ROTATION_TOL = 1e-9
#: Overlap energies the lag screen trusts (besides exact zeros): squares and
#: products of samples stay normal floats in between.
SCREEN_ENERGY_RANGE = (1e-200, 1e200)
#: Screened correlations within this (or 16*n*eps, if larger) of the
#: screened maximum are re-scored exactly.  The screen and the exact score
#: each err by a few n*eps at most, so every exact maximizer is among them.
SCREEN_TOL = 1e-9


def _as_grid_array(values, name: str, ncols: int | None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if ncols is None:
        if arr.ndim != 1:
            raise DataError(f"{name} must be a 1-d array, got shape {arr.shape}")
    else:
        if arr.ndim != 2 or arr.shape[1] != ncols:
            raise DataError(f"{name} must have shape (n, {ncols}), got {arr.shape}")
    if arr.shape[0] == 0:
        raise DataError(f"{name} must not be empty")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite values")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _check_rate(rate: float) -> float:
    rate = float(rate)
    if not np.isfinite(rate) or rate <= 0.0:
        raise DataError(f"sample_rate must be a positive finite number, got {rate}")
    return rate


@dataclass(frozen=True)
class _Clock:
    """Uniform sample clock shared by :class:`TimeSeries1` and
    :class:`TimeSeries3`: the first sample's time and the rate.  Each
    subclass adds its sample array as a third field and returns it from
    ``_data``."""

    start_time: float
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "start_time", float(self.start_time))
        object.__setattr__(self, "sample_rate", _check_rate(self.sample_rate))

    def __len__(self) -> int:
        return self._data.shape[0]

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        return self.start_time + np.arange(len(self)) / self.sample_rate

    @property
    def end_time(self) -> float:
        return self.start_time + (len(self) - 1) / self.sample_rate

    def span(self, a: float, b: float) -> tuple[int, int]:
        """``(i0, i1)``: the first and last index of the samples from ``a``
        to ``b`` seconds after the first sample, with a slack of 1e-9 sample
        periods at both ends, clamped to the series (no sample when
        ``i1 < i0``).  The inward rule; :func:`window_span` is the outward
        one."""
        i0 = int(np.ceil(a * self.sample_rate - 1e-9))
        i1 = int(np.floor(b * self.sample_rate + 1e-9))
        return max(i0, 0), min(i1, len(self) - 1)

    def part(self, i0: int, i1: int):
        """Samples ``i0`` to ``i1`` (inclusive), the first of them stamped
        ``start_time + i0 / sample_rate``."""
        return type(self)(self.start_time + i0 / self.sample_rate,
                          self.sample_rate, self._data[i0:i1 + 1])

    def shifted(self, offset: float):
        """Same (shared, read-only) data on a clock shifted by ``offset`` s."""
        new = copy.copy(self)
        object.__setattr__(new, "start_time", float(self.start_time + offset))
        return new


@dataclass(frozen=True)
class TimeSeries1(_Clock):
    """Uniformly sampled scalar signal.

    Attributes
    ----------
    start_time : float
        Time of the first sample, in seconds.
    sample_rate : float
        Sampling rate in Hz; spacing is uniform by construction.
    values : numpy.ndarray
        Read-only float64 array of shape ``(n,)``.
    """

    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "values", _as_grid_array(self.values, "values", None))

    @property
    def _data(self) -> np.ndarray:
        return self.values

    def with_values(self, values) -> "TimeSeries1":
        """Same clock, new values."""
        return TimeSeries1(self.start_time, self.sample_rate, values)


@dataclass(frozen=True)
class TimeSeries3(_Clock):
    """Uniformly sampled 3-component signal (the universal kinematics carrier).

    Attributes
    ----------
    start_time : float
        Time of the first sample, in seconds.
    sample_rate : float
        Sampling rate in Hz.
    samples : numpy.ndarray
        Read-only float64 array of shape ``(n, 3)``; one row per instant.
    """

    samples: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "samples", _as_grid_array(self.samples, "samples", 3))

    @property
    def _data(self) -> np.ndarray:
        return self.samples

    def component(self, axis: int) -> TimeSeries1:
        """Scalar series of one component (0=x, 1=y, 2=z)."""
        return TimeSeries1(self.start_time, self.sample_rate, self.samples[:, axis])

    def with_samples(self, samples) -> "TimeSeries3":
        """Same clock, new samples."""
        return TimeSeries3(self.start_time, self.sample_rate, samples)


def window_span(start: float, rate: float, t0: float, pre: float,
                post: float) -> tuple[int, int]:
    """``(i_first, i_last)``: the indices of the samples that hold
    [t0 - pre, t0 + post] on a clock whose sample ``i`` is at
    ``start + i / rate``, each end snapped outward to the grid with a slack
    of 1e-9 sample periods, not clamped (``i_first`` may be negative and
    ``i_last`` past the end).  The outward rule: the one cut of an impact
    window, of the rows parsed for it, and of a reference block."""
    i_first = int(np.floor((t0 - pre - start) * rate + 1e-9))
    i_last = int(np.ceil((t0 + post - start) * rate - 1e-9))
    return i_first, i_last


def shared_grid(series, rate: float) -> np.ndarray:
    """Times at ``rate`` from the latest start of ``series`` to at most its
    earliest end (empty when the supports do not overlap)."""
    lo = max(s.start_time for s in series)
    hi = min(s.end_time for s in series)
    return lo + np.arange(int(np.floor((hi - lo) * rate)) + 1) / rate


def is_rotation(R) -> bool:
    """True when ``R`` is orthonormal with determinant +1 within
    ``ROTATION_TOL``."""
    R = np.asarray(R, dtype=np.float64)
    # No entry of a rotation exceeds 1; the bound also rejects NaN and keeps
    # the product below from overflowing.
    if R.shape != (3, 3) or not (np.abs(R) <= 1.0 + ROTATION_TOL).all():
        return False
    err = np.abs(R.T @ R - np.eye(3)).max()
    return err <= ROTATION_TOL and abs(np.linalg.det(R) - 1.0) <= ROTATION_TOL


def validate_rotation(R) -> np.ndarray:
    """Return ``R`` as a float64 array, raising :class:`ConfigError` if it is
    not a proper rotation within ``ROTATION_TOL``."""
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        raise ConfigError(f"rotation matrix must be 3x3, got shape {R.shape}")
    if not is_rotation(R):
        raise ConfigError(
            "matrix is not a proper rotation (orthonormality or det +1 "
            f"violated beyond {ROTATION_TOL:g})"
        )
    return R


def rotate_series(s: TimeSeries3, R) -> TimeSeries3:
    """Apply a fixed rotation to every sample; timing metadata unchanged.

    Parameters
    ----------
    s : TimeSeries3
        Input series (e.g. a sensor-frame channel).
    R : array-like, shape (3, 3)
        Proper rotation matrix; each sample is replaced by ``R @ sample``.

    Raises
    ------
    ConfigError
        If ``R`` is not orthonormal with determinant +1 within 1e-9.
    """
    R = validate_rotation(R)
    return s.with_samples(s.samples @ R.T)


def sample_on_grid(s: TimeSeries3 | TimeSeries1, times: np.ndarray):
    """Linearly interpolate a series at the given absolute times.

    ``times`` must lie inside the series support (no extrapolation).
    Returns a new series whose clock is inferred from ``times`` (which must be
    uniform); used to put multi-rate channels on one grid.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 1:
        raise DataError("empty target grid")
    eps = 0.5 / s.sample_rate * 1e-6
    if times[0] < s.start_time - eps or times[-1] > s.end_time + eps:
        raise WindowError(
            f"target grid [{times[0]:.6f}, {times[-1]:.6f}] s exceeds series "
            f"support [{s.start_time:.6f}, {s.end_time:.6f}] s"
        )
    src_t = s.times
    data = s._data
    out = np.array([np.interp(times, src_t, col)
                    for col in data.reshape(len(s), -1).T]).T
    return type(s)(times[0], _grid_rate(times),
                   out.reshape((len(times),) + data.shape[1:]))


def _grid_rate(times: np.ndarray) -> float:
    if times.size == 1:
        raise DataError("cannot infer a rate from a single-point grid")
    return 1.0 / median(np.diff(times))


def median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-d float array, bit for bit: the mean
    of the middle value, or of the two middle values, of a partition, summed
    from 0.0 as ``np.mean`` sums (so a median of -0.0 is 0.0); NaN if a
    value is NaN.  ``np.median`` imports ``numpy.ma`` on its first call for
    that NaN check, about 17 ms in a fresh process."""
    n = len(x)
    h = n // 2
    if n % 2:
        part = np.partition(x, (h, n - 1))
        middle = 0.0 + part[h]
    else:
        part = np.partition(x, (h - 1, h, n - 1))
        middle = (0.0 + part[h - 1] + part[h]) / 2
    return float(part[-1] if np.isnan(part[-1]) else middle)


def magnitude(s: TimeSeries3) -> TimeSeries1:
    """Per-sample Euclidean norm (the resultant); timing preserved."""
    return TimeSeries1(
        s.start_time, s.sample_rate, np.linalg.norm(s.samples, axis=1)
    )


def same_clock(a, b) -> bool:
    """True when two series share length, rate and start time (within 1e-9
    relative on the rate and 1 ns absolute on the start; rates inferred from
    file grids can differ by an ulp)."""
    return (len(a) == len(b)
            and abs(a.sample_rate - b.sample_rate) <= 1e-9 * a.sample_rate
            and abs(a.start_time - b.start_time) <= 1e-9)


def lagged_correlation(x: np.ndarray, y: np.ndarray, max_shift: int) -> np.ndarray:
    """Normalized cross-correlation of two equal-length arrays at every shift.

    Element ``k`` is rho at shift ``s = k - max_shift``: the sum of
    ``x[i] * y[i + s]`` over the indices where both exist, divided by the
    square root of both overlaps' energies.  It is 0.0 where either energy is
    zero, including every ``|s| >= len(x)``, and NaN where an energy lies
    outside ``{0} | [1e-200, 1e200]``, where rounding is not bounded.  The
    dot products come from one ``np.correlate`` and the energies from prefix
    sums of squares, so rho is off the exact value by about ``n * eps``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    dots = np.correlate(np.pad(y, max_shift), x, "valid")
    shifts = np.arange(-max_shift, max_shift + 1)
    length = n - np.minimum(np.abs(shifts), n)  # overlap length per shift

    def energies(v):
        # Energy of the first and of the last L samples, for L = 0..n.
        sq = v * v
        head = np.concatenate(([0.0], np.cumsum(sq)))
        tail = np.concatenate(([0.0], np.cumsum(sq[::-1])))
        return head[length], tail[length]

    x_head, x_tail = energies(x)
    y_head, y_tail = energies(y)
    # s >= 0 overlaps x[:n-s] with y[s:]; s < 0 overlaps x[-s:] with y[:n+s].
    ex = np.where(shifts >= 0, x_head, x_tail)
    ey = np.where(shifts >= 0, y_tail, y_head)
    denom = np.sqrt(ex) * np.sqrt(ey)
    rho = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
    lo, hi = SCREEN_ENERGY_RANGE
    for e in (ex, ey):
        rho[(e != 0.0) & ~((e >= lo) & (e <= hi))] = np.nan
    return rho


def best_shift(x: np.ndarray, y: np.ndarray, max_shift: int,
               score: Callable[[np.ndarray, np.ndarray], float],
               ) -> tuple[int, float]:
    """The shift in ``-max_shift..max_shift`` that maximizes ``score``.

    ``score(x_part, y_part)`` rates the overlap of ``x[i]`` with ``y[i + s]``
    (``x[:n-s]`` with ``y[s:]`` for ``s >= 0``, ``x[-s:]`` with ``y[:n+s]``
    otherwise; both empty when ``|s| >= n``) and must compute the normalized
    cross-correlation to within a few ``n * eps``.  The largest score wins;
    on equal scores the smaller ``|s|`` wins, and ``-s`` over ``+s``.
    Returns ``(shift, score)``.

    Only the shifts whose :func:`lagged_correlation` lies within
    ``SCREEN_TOL`` of its maximum are scored, in ascending order; every
    maximizer of ``score`` is among them, so the result is the one a scan of
    every shift gives.  If the screen has a NaN, every shift is scored.
    """
    n = len(x)
    # Every |s| >= n has an empty overlap, so it scores the same as s = -n,
    # which the tie rule prefers: a bound beyond n changes nothing.
    max_shift = min(max_shift, n)
    rho = lagged_correlation(x, y, max_shift)
    if np.isnan(rho).any():
        candidates = range(-max_shift, max_shift + 1)
    else:
        tol = max(SCREEN_TOL, 16 * n * np.finfo(np.float64).eps)
        candidates = np.flatnonzero(rho >= rho.max() - tol) - max_shift
    best_s, best_score = 0, -np.inf
    for s in map(int, candidates):
        if s >= 0:
            value = score(x[:max(n - s, 0)], y[s:])
        else:
            value = score(x[-s:], y[:max(n + s, 0)])
        if value > best_score or (value == best_score and abs(s) < abs(best_s)):
            best_s, best_score = s, value
    return best_s, best_score
