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

import numpy as np

from .core import TimeSeries1, TimeSeries3, best_shift, sample_on_grid, \
    shared_grid, window_span
from .errors import DataError, WindowError
from .ingest import ImuRecording

__all__ = [
    "detect_impacts",
    "extract_window",
    "align_events",
    "refine_offset",
]

log = logging.getLogger(__name__)


def detect_impacts(accel_mag: TimeSeries1, threshold: float,
                   min_duration: float, min_separation: float = 0.0) -> list[float]:
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
    list of float
        Absolute trigger times in seconds, strictly increasing; empty if
        none.
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
    events: list[float] = []
    last_t0 = -np.inf
    for i0, i1 in zip(starts, ends):
        if (i1 - i0) * dt <= min_duration:
            continue
        t0 = accel_mag.start_time + i0 * dt
        if t0 - last_t0 < min_separation:
            continue
        events.append(t0)
        last_t0 = t0
    return events


def _excerpt(ts: TimeSeries3, t0: float, pre: float, post: float,
             channel_name: str) -> TimeSeries3:
    """The samples :func:`~kinereco.core.window_span` gives for [t0-pre,
    t0+post], re-stamped to the impact-relative clock (cut first, then
    shifted: the excerpt starts at ``(start + i_first / rate) - t0``)."""
    i_first, i_last = window_span(ts.start_time, ts.sample_rate, t0, pre, post)
    if i_first < 0 or i_last >= len(ts):
        raise WindowError(
            f"channel {channel_name!r} does not cover "
            f"[{t0 - pre:.4f}, {t0 + post:.4f}] s "
            f"(support [{ts.start_time:.4f}, {ts.end_time:.4f}] s)"
        )
    return ts.part(i_first, i_last).shifted(-t0)


def extract_window(rec: ImuRecording, t0: float, pre: float,
                   post: float) -> ImuRecording:
    """Cut one recording to the window around the trigger time ``t0``, on an
    impact-relative clock.

    The excerpt covers [-pre, +post] (snapped outward to the sample grid, so
    its length equals pre+post within one sample period) with t = 0 at the
    trigger; sample rates are preserved.

    Raises
    ------
    WindowError
        Naming the channel with insufficient coverage.
    """
    return rec.map(lambda kind, ts: _excerpt(ts, t0, pre, post,
                                             f"{rec.sensor_id}/{kind}"))


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
    """Normalized cross-correlation of two overlaps; 0.0 if either is zero.

    Not ``evaluate._correlation``: CORA's distance form, whose bits reach
    ``report.json``, differs by ulps that decide near-ties, so the lags in
    ``events.csv`` would change (see the ``symmetric_pulse`` refine case)."""
    denom = np.linalg.norm(a_part) * np.linalg.norm(b_part)
    return float(a_part @ b_part) / denom if denom > 0 else 0.0


def align_events(hb_t0: list[float], ref_t0: list[float], max_offset: float,
                 hb_accel_mag: TimeSeries1, ref_accel_mags: list[TimeSeries1],
                 window_pre: float, window_post: float,
                 ) -> list[tuple[int, int, float]]:
    """Pair headband and reference trigger times across device clocks.

    Greedy nearest-neighbor pairing on |t0 difference| <= ``max_offset``;
    the candidate ordering makes the pairing symmetric in its two inputs.
    Each pair's offset, an estimate of (headband clock - reference clock),
    is its trigger-time difference refined by cross-correlation over the
    shared [-window_pre, +window_post] span around its two triggers, cut
    from ``hb_accel_mag`` and from ``ref_accel_mags[j]``, the trigger
    resultant of reference event ``j``'s own block.  A pair whose span the
    series do not cover keeps the raw difference, with a warning.

    Returns
    -------
    list of (i, j, offset)
        Indexes into ``hb_t0`` and ``ref_t0`` of each pair, in headband
        order; an index in no pair is an unpaired event.
    """
    candidates = sorted(
        ((abs(h - r), i, j) for i, h in enumerate(hb_t0)
         for j, r in enumerate(ref_t0) if abs(h - r) <= max_offset),
        key=lambda c: (c[0], c[1], c[2]),
    )
    used_h: set[int] = set()
    used_r: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    for _, i, j in candidates:
        if i in used_h or j in used_r:
            continue
        used_h.add(i)
        used_r.add(j)
        offset = hb_t0[i] - ref_t0[j]
        try:
            offset += refine_offset(
                _clip_scalar(hb_accel_mag, hb_t0[i], -window_pre, window_post),
                _clip_scalar(ref_accel_mags[j], ref_t0[j], -window_pre,
                             window_post))
        except WindowError as exc:
            log.warning("offset refinement skipped for pair at t0=%.3f s: %s",
                        hb_t0[i], exc)
        pairs.append((i, j, offset))
    pairs.sort(key=lambda p: hb_t0[p[0]])
    return pairs


def _clip_scalar(ts: TimeSeries1, t0: float, lo: float, hi: float) -> TimeSeries1:
    """The samples within [lo, hi] s of ``t0``, on a clock with t = 0 at ``t0``
    (shifted first, then cut: the cut starts at ``(start - t0) + i0 / rate``)."""
    rel = ts.shifted(-t0)
    i0, i1 = rel.span(lo - rel.start_time, hi - rel.start_time)
    if i1 - i0 < 4:
        raise WindowError(f"series does not cover [{lo:.4f}, {hi:.4f}] s")
    return rel.part(i0, i1)
