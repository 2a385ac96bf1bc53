"""Impact detection, impact-relative windowing, and cross-device alignment.

t = 0 of every impact is the first sample where the translational
acceleration resultant exceeds the trigger threshold (3 g default) for more
than the minimum duration (3 ms default).  Gravity is not subtracted before
thresholding: at rest the resultant sits near 1 g, far below threshold.

The two devices carry independent clocks.  Pairing is greedy
nearest-neighbor on trigger times; the residual offset of each pair is
refined by maximizing the cross-correlation of the translational
acceleration magnitudes over the shared window, substituting for the video
timestamps used in field practice.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries1, TimeSeries3, best_shift, sample_on_grid, shared_grid
from .errors import DataError, WindowError
from .ingest import ImuRecording

__all__ = [
    "ImpactEvent",
    "ImpactWindow",
    "EventPair",
    "detect_impacts",
    "extract_window",
    "align_events",
    "refine_offset",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ImpactEvent:
    """One detected impact: absolute trigger time and originating device."""

    t0: float
    source: str


@dataclass(frozen=True)
class ImpactWindow:
    """Per-event excerpt of one or more channels on an impact-relative clock.

    ``channels`` maps sensor id to an :class:`ImuRecording` excerpt whose
    clock has t = 0 at the trigger.  All channels cover [-pre, +post].
    """

    channels: dict[str, ImuRecording]
    pre: float
    post: float


@dataclass(frozen=True)
class EventPair:
    """A headband/reference event pair with the refined clock offset.

    ``offset`` estimates (headband clock - reference clock): an instant
    stamped t on the headband corresponds to t - offset on the reference.
    """

    headband: ImpactEvent
    reference: ImpactEvent
    offset: float


def detect_impacts(accel_mag: TimeSeries1, threshold: float,
                   min_duration: float, min_separation: float = 0.0) -> list[ImpactEvent]:
    """Find impacts on an acceleration-resultant series.

    An event starts at the first sample of every maximal run with magnitude
    above ``threshold`` whose duration (first to last supra-threshold sample)
    exceeds ``min_duration``.  Runs starting closer than ``min_separation``
    to an accepted event are suppressed, so events are separated by at least
    the processing window length.

    Parameters
    ----------
    accel_mag : TimeSeries1
        Translational acceleration resultant in m/s^2, gravity included.
    threshold : float
        Trigger level in m/s^2; must be positive.
    min_duration : float
        Minimum exceedance duration in seconds (strict).
    min_separation : float
        Dead time after each accepted event, in seconds.

    Returns
    -------
    list of ImpactEvent
        Absolute trigger times, strictly increasing; empty if none.
    """
    if threshold <= 0:
        raise DataError(f"threshold must be positive, got {threshold}")
    above = accel_mag.values > threshold
    if not above.any():
        return []
    edges = np.diff(above.astype(np.int8))
    starts = np.nonzero(edges == 1)[0] + 1
    ends = np.nonzero(edges == -1)[0]  # inclusive last index of a run
    if above[0]:
        starts = np.r_[0, starts]
    if above[-1]:
        ends = np.r_[ends, len(above) - 1]

    dt = accel_mag.dt
    events: list[ImpactEvent] = []
    last_t0 = -np.inf
    for i0, i1 in zip(starts, ends):
        if (i1 - i0) * dt <= min_duration:
            continue
        t0 = accel_mag.start_time + i0 * dt
        if t0 - last_t0 < min_separation:
            continue
        events.append(ImpactEvent(t0=t0, source=""))
        last_t0 = t0
    return events


def _excerpt(ts: TimeSeries3, t0: float, pre: float, post: float,
             channel_name: str) -> TimeSeries3:
    """Slice [t0-pre, t0+post] with one extra sample of margin on each side,
    re-stamped to the impact-relative clock."""
    rate = ts.sample_rate
    i_first = int(np.floor((t0 - pre - ts.start_time) * rate + 1e-9))
    i_last = int(np.ceil((t0 + post - ts.start_time) * rate - 1e-9))
    if i_first < 0 or i_last >= len(ts):
        raise WindowError(
            f"channel {channel_name!r} does not cover "
            f"[{t0 - pre:.4f}, {t0 + post:.4f}] s "
            f"(support [{ts.start_time:.4f}, {ts.end_time:.4f}] s)"
        )
    rel_start = ts.start_time + i_first / rate - t0
    return TimeSeries3(rel_start, rate, ts.samples[i_first:i_last + 1])


def extract_window(rec: ImuRecording, event: ImpactEvent, pre: float,
                   post: float) -> ImuRecording:
    """Cut one recording to the impact window on an impact-relative clock.

    The excerpt covers [-pre, +post] (snapped outward to the sample grid, so
    its length equals pre+post within one sample period) with t = 0 at the
    trigger; sample rates are preserved.

    Raises
    ------
    WindowError
        Naming the channel with insufficient coverage.
    """
    channels = {}
    for kind in ("gyro", "accel_low", "accel_high"):
        ts = rec.channel(kind)
        channels[kind] = None if ts is None else _excerpt(
            ts, event.t0, pre, post, f"{rec.sensor_id}/{kind}"
        )
    return ImuRecording(rec.sensor_id, channels["gyro"], channels["accel_low"],
                        channels["accel_high"])


def refine_offset(hb_mag: TimeSeries1, ref_mag: TimeSeries1,
                  max_lag: float = 0.010) -> float:
    """Residual lag between two impact-relative magnitude series.

    Both series are resampled onto their shared support at the higher of the
    two rates; the returned lag maximizes the normalized cross-correlation
    over +/- ``max_lag`` seconds.  Positive lag means the headband series
    trails the reference.
    """
    rate = max(hb_mag.sample_rate, ref_mag.sample_rate)
    grid = shared_grid((hb_mag, ref_mag), rate)
    if len(grid) < 5:
        raise WindowError("series share too little support for alignment")
    a = sample_on_grid(hb_mag, grid).values
    b = sample_on_grid(ref_mag, grid).values
    a = a - a.mean()
    b = b - b.mean()
    max_shift = max(1, int(round(max_lag * rate)))
    best_lag, _ = best_shift(b, a, max_shift, _correlation)
    # Positive s aligns a[s:] with b: the headband feature sits s samples later.
    return best_lag / rate


def _correlation(b_part: np.ndarray, a_part: np.ndarray) -> float:
    """Normalized cross-correlation of two overlaps; 0.0 if either is zero."""
    denom = np.linalg.norm(a_part) * np.linalg.norm(b_part)
    return float(a_part @ b_part) / denom if denom > 0 else 0.0


def align_events(hb: list[ImpactEvent], ref: list[ImpactEvent],
                 max_offset: float,
                 hb_accel_mag: TimeSeries1 | None = None,
                 ref_accel_mag: TimeSeries1 | None = None,
                 window_pre: float = 0.03125,
                 window_post: float = 0.09375,
                 ) -> tuple[list[EventPair], list[ImpactEvent], list[ImpactEvent]]:
    """Pair headband and reference events across device clocks.

    Greedy nearest-neighbor pairing on |t0 difference| <= ``max_offset``;
    the candidate ordering makes the pairing symmetric in its two inputs.
    When both magnitude series are supplied, each pair's offset is refined by
    cross-correlation over the shared [-window_pre, +window_post] span;
    otherwise the offset is the raw trigger-time difference.

    Returns
    -------
    (pairs, unpaired_hb, unpaired_ref)
    """
    candidates = sorted(
        ((abs(h.t0 - r.t0), i, j) for i, h in enumerate(hb)
         for j, r in enumerate(ref) if abs(h.t0 - r.t0) <= max_offset),
        key=lambda c: (c[0], c[1], c[2]),
    )
    used_h: set[int] = set()
    used_r: set[int] = set()
    pairs: list[EventPair] = []
    for _, i, j in candidates:
        if i in used_h or j in used_r:
            continue
        used_h.add(i)
        used_r.add(j)
        offset = hb[i].t0 - ref[j].t0
        if hb_accel_mag is not None and ref_accel_mag is not None:
            try:
                offset += _pair_lag(hb[i], ref[j], hb_accel_mag, ref_accel_mag,
                                    window_pre, window_post)
            except WindowError as exc:
                log.warning("offset refinement skipped for pair at t0=%.3f s: %s",
                            hb[i].t0, exc)
        pairs.append(EventPair(hb[i], ref[j], offset))
    pairs.sort(key=lambda p: p.headband.t0)
    unpaired_hb = [e for i, e in enumerate(hb) if i not in used_h]
    unpaired_ref = [e for j, e in enumerate(ref) if j not in used_r]
    return pairs, unpaired_hb, unpaired_ref


def _pair_lag(h: ImpactEvent, r: ImpactEvent, hb_mag: TimeSeries1,
              ref_mag: TimeSeries1, pre: float, post: float) -> float:
    return refine_offset(_clip_scalar(hb_mag, h.t0, -pre, post),
                         _clip_scalar(ref_mag, r.t0, -pre, post))


def _clip_scalar(ts: TimeSeries1, t0: float, lo: float, hi: float) -> TimeSeries1:
    """The samples within [lo, hi] s of ``t0``, on a clock with t = 0 at ``t0``."""
    start = ts.start_time - t0
    i0, i1 = ts.span(lo - start, hi - start)
    if i1 - i0 < 4:
        raise WindowError(f"series does not cover [{lo:.4f}, {hi:.4f}] s")
    return TimeSeries1(start + i0 / ts.sample_rate, ts.sample_rate,
                       ts.values[i0:i1 + 1])
