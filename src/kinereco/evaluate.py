"""Agreement metrics between headband reconstruction and reference data.

CORA-style scoring uses the cross-correlation sub-method only (the corridor
sub-method carries zero weight): phase from the time shift that maximizes the
normalized cross-correlation (penalized linearly up to a maximum-shift
bound), shape from the correlation coefficient at that shift (negative values
clamp to zero), and magnitude from the ratio of peak absolute values.  The
three sub-ratings average with equal weights into the total, which maps onto
the biofidelity bands: excellent (> 0.86), good (0.66-0.86), fair
(0.44-0.65), marginal (0.26-0.44), unacceptable (< 0.26); band lower bounds
are inclusive.

Bland-Altman statistics use the sample standard deviation (n-1) and the
mean +/- 1.96 sd limits of agreement; biases are additionally reported
normalized by the maximum reference peak across the events supplied.

Windowed NRMS errors come with a signed-mean companion because RMS values
are non-negative by construction while signed percentage errors are commonly
reported; the two are never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import TimeSeries1, best_shift, magnitude, same_clock, sample_on_grid
from .errors import (DataError, DegenerateSignalError, FormatError,
                     KinerecoError, WindowError)
from .ingest import (Block, Bool, Count, ListOf, MapOf, Nullable, Number, Text,
                     json_field, load_json, to_json, write_json)

__all__ = [
    "CoraScore",
    "BlandAltmanReport",
    "AgreementReport",
    "peak_resultant",
    "cora_score",
    "cora_band",
    "bland_altman",
    "nrmse_windowed",
    "paired_t_test",
]

#: Biofidelity band thresholds (lower bound inclusive).
CORA_BANDS = (
    (0.86, "excellent"),   # strictly above
    (0.66, "good"),
    (0.44, "fair"),
    (0.26, "marginal"),
)
#: Maximum allowed correlation shift as a fraction of the window length.
DEFAULT_MAX_SHIFT_FRACTION = 0.2
#: Width of the NRMSE window centred on the reference peak, in seconds.
DEFAULT_NRMSE_WINDOW_S = 0.0244
#: Significance level for the paired t-test.
ALPHA = 0.05


class _ReportBlock:
    """Base of the agreement report's blocks: a bad value is a FormatError."""

    _error = FormatError


_NUMBER, _NUMBERS, _INT = Number(), ListOf(Number()), Count()


@dataclass(frozen=True)
class CoraScore(_ReportBlock):
    phase: float = json_field(_NUMBER)
    magnitude: float = json_field(_NUMBER)
    shape: float = json_field(_NUMBER)
    total: float = json_field(_NUMBER)
    band: str = json_field(Text())


@dataclass(frozen=True)
class BlandAltmanReport(_ReportBlock):
    """Peak-agreement statistics for one kinematic quantity.

    ``bias`` is headband minus reference, per event; ``normalized_bias``
    divides each bias by the maximum reference peak over the events supplied.
    """

    bias: np.ndarray = json_field(_NUMBERS)
    mean_bias: float = json_field(_NUMBER)
    sd_bias: float = json_field(_NUMBER)
    loa_low: float = json_field(_NUMBER)
    loa_high: float = json_field(_NUMBER)
    normalized_bias: np.ndarray = json_field(_NUMBERS)
    mean_normalized_bias: float = json_field(_NUMBER)


def cora_band(total: float) -> str:
    """Map a total score onto its biofidelity band."""
    if total > CORA_BANDS[0][0]:
        return CORA_BANDS[0][1]
    for threshold, name in CORA_BANDS[1:]:
        if total >= threshold:
            return name
    return "unacceptable"


def peak_resultant(s) -> tuple[float, float]:
    """Maximum of the Euclidean norm over time, with its time of occurrence.

    Accepts a TimeSeries3 (its resultant) or a TimeSeries1 (absolute value).
    Ties resolve to the earliest sample.
    """
    if hasattr(s, "samples"):
        s = magnitude(s)
    norms = np.abs(s.values)
    idx = int(np.argmax(norms))
    return float(norms[idx]), float(s.start_time + idx / s.sample_rate)


def _unit(x: np.ndarray) -> np.ndarray | None:
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return None
    return x / norm


def _correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Normalized cross-correlation at zero lag, exact 1.0 for identical
    inputs (computed through the distance form 1 - |x_hat - y_hat|^2 / 2)."""
    xu, yu = _unit(x), _unit(y)
    if xu is None or yu is None:
        return 0.0
    return min(1.0, 1.0 - 0.5 * float(np.sum((xu - yu) ** 2)))


def cora_score(ref: TimeSeries1, test: TimeSeries1,
               max_shift_fraction: float = DEFAULT_MAX_SHIFT_FRACTION) -> CoraScore:
    """Score the agreement of two curves on a common clock.

    Parameters
    ----------
    ref, test : TimeSeries1
        Curves on the same clock (same rate, start and length).
    max_shift_fraction : float
        Maximum correlation shift as a fraction of the curve length; the
        phase sub-rating decays linearly from 1 at zero shift to 0 at the
        bound.

    Raises
    ------
    DataError
        If the clocks differ.
    DegenerateSignalError
        If the reference has zero variance.
    """
    if not same_clock(ref, test):
        raise DataError("cora_score needs both curves on one clock")
    r = ref.values
    y = test.values
    if np.ptp(r) == 0.0:
        raise DegenerateSignalError("zero-variance reference curve")

    max_shift = max(1, int(round(max_shift_fraction * len(r))))
    shift, best_rho = best_shift(r, y, max_shift, _correlation)

    phase = 1.0 - abs(shift) / max_shift
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


def bland_altman(hb_peaks, ref_peaks) -> BlandAltmanReport:
    """Bland-Altman statistics over paired peak values.

    Raises :class:`DataError` for fewer than 2 pairs (sd undefined) or a
    degenerate all-zero reference.
    """
    hb = np.asarray(hb_peaks, dtype=np.float64)
    ref = np.asarray(ref_peaks, dtype=np.float64)
    if hb.shape != ref.shape or hb.ndim != 1:
        raise DataError("peak lists must be equal-length 1-d sequences")
    if len(hb) < 2:
        raise DataError(f"Bland-Altman needs n >= 2 pairs, got {len(hb)}")
    bias = hb - ref
    mean_bias = float(bias.mean())
    sd = float(bias.std(ddof=1))
    ref_max = float(np.abs(ref).max())
    if ref_max == 0.0:
        raise DataError("all reference peaks are zero; bias cannot be normalized")
    normalized = bias / ref_max
    return BlandAltmanReport(
        bias=bias,
        mean_bias=mean_bias,
        sd_bias=sd,
        loa_low=mean_bias - 1.96 * sd,
        loa_high=mean_bias + 1.96 * sd,
        normalized_bias=normalized,
        mean_normalized_bias=float(normalized.mean()),
    )


def nrmse_windowed(ref: TimeSeries1, test: TimeSeries1,
                   window: float = DEFAULT_NRMSE_WINDOW_S,
                   center: float | None = None) -> tuple[float, float, float]:
    """RMS error over a window centered on the reference peak.

    Returns ``(nrms_pct, rms_abs, signed_mean_pct)``: the RMS of test-ref
    over the window as a percentage of the reference peak absolute value,
    the same RMS in absolute units, and the signed mean error as a
    percentage of the reference peak.

    Raises
    ------
    WindowError
        If the window does not fit inside the common support, or holds no
        sample.
    DataError
        If the curves share no clock or the reference peak is zero.
    """
    if not same_clock(ref, test):
        raise DataError("nrmse_windowed needs both curves on one clock")
    peak = float(np.max(np.abs(ref.values)))
    if peak == 0.0:
        raise DataError("reference peak is zero; NRMSE undefined")
    if center is None:
        _, center = peak_resultant(ref)
    half = window / 2.0
    lo, hi = center - half, center + half
    eps = 0.5 / ref.sample_rate * 1e-6
    if lo < ref.start_time - eps or hi > ref.end_time + eps:
        raise WindowError(
            f"NRMSE window [{lo:.4f}, {hi:.4f}] s outside support "
            f"[{ref.start_time:.4f}, {ref.end_time:.4f}] s"
        )
    i0, i1 = ref.span(lo - ref.start_time, hi - ref.start_time)
    if i1 < i0:
        raise WindowError(f"NRMSE window [{lo:.4f}, {hi:.4f}] s holds no sample")
    err = test.values[i0:i1 + 1] - ref.values[i0:i1 + 1]
    rms_abs = float(np.sqrt(np.mean(err ** 2)))
    nrms_pct = rms_abs / peak * 100.0
    signed_mean_pct = float(err.mean()) / peak * 100.0
    return nrms_pct, rms_abs, signed_mean_pct


def paired_t_test(a, b) -> tuple[float, float, bool]:
    """Two-sided paired t-test on elementwise differences.

    Returns ``(t, p, significant)`` with significance at p < 0.05 and n-1
    degrees of freedom.  Raises :class:`DataError` for n < 2 or zero-variance
    differences (including elementwise-equal inputs).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("paired_t_test needs equal-length 1-d sequences")
    n = len(a)
    if n < 2:
        raise DataError(f"paired_t_test needs n >= 2, got {n}")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise DataError("zero-variance differences; t statistic undefined")
    # scipy.stats.t.sf(x, df) evaluates stdtr(df, -x), the Student-t CDF;
    # taking it from scipy.special spares the 1 s scipy.stats import.
    from scipy.special import stdtr

    t = float(d.mean() / (sd / np.sqrt(n)))
    p = float(2.0 * stdtr(n - 1, -abs(t)))
    return t, p, p < ALPHA


# ---------------------------------------------------------------------------
# Session-level aggregation

#: Kinematic quantities compared between the devices, keyed by the
#: KinematicsSet / ReferenceKinematics attributes that carry them.
QUANTITIES = (
    ("angular_velocity", "omega_hf", "omega"),
    ("angular_acceleration_diff", "alpha_diff", "alpha"),
    ("angular_acceleration_a3g1", "alpha_a3g1", "alpha"),
    ("linear_acceleration", "a_ref_point", "a_point"),
)


@dataclass(frozen=True)
class EventComparison:
    """One paired event's reconstructed and reference kinematics."""

    pair_id: int
    label: str
    headband: object  # KinematicsSet
    reference: object  # ReferenceKinematics


def _common_pair(hb_series, ref_series):
    """The headband series sampled on the reference grid, and the reference
    trimmed to the headband support (a clock-shifted reference can overhang
    it by a couple of samples)."""
    i0, i1 = ref_series.span(hb_series.start_time - ref_series.start_time,
                             hb_series.end_time - ref_series.start_time)
    if i1 <= i0 + 8:
        raise DataError("reference and headband kinematics barely overlap")
    ref_series = ref_series.part(i0, i1)
    return sample_on_grid(hb_series, ref_series.times), ref_series


def _by_quantity(item):
    """A block of ``item`` entries by quantity name."""
    return MapOf(item, tuple(name for name, _, _ in QUANTITIES))


@dataclass(frozen=True)
class HeadlineScore(_ReportBlock):
    score: CoraScore = json_field(Block(CoraScore, inline=True))
    per_axis: dict = json_field(MapOf(Nullable(Block(CoraScore)), tuple("xyz")))


@dataclass(frozen=True)
class PeakReport(_ReportBlock):
    headband: float = json_field(_NUMBER)
    reference: float = json_field(_NUMBER)
    bias: float = json_field(_NUMBER)


@dataclass(frozen=True)
class NrmseReport(_ReportBlock):
    nrms_pct: float = json_field(_NUMBER)
    rms_abs: float = json_field(_NUMBER)
    signed_mean_pct: float = json_field(_NUMBER)


@dataclass(frozen=True)
class EventReport(_ReportBlock):
    pair_id: int = json_field(_INT)
    label: str = json_field(Text())
    cora: dict = json_field(_by_quantity(Block(HeadlineScore)))
    peaks: dict = json_field(_by_quantity(Block(PeakReport)))
    nrmse: dict = json_field(_by_quantity(Block(NrmseReport)))
    f0_hz: float = json_field(Number("> 0"))


@dataclass(frozen=True)
class TTestReport(_ReportBlock):
    t: float = json_field(_NUMBER)
    p: float = json_field(_NUMBER)
    significant: bool = json_field(Bool())


@dataclass(frozen=True)
class CoraStats(_ReportBlock):
    mean: float = json_field(_NUMBER)
    sd: float = json_field(_NUMBER)
    n: int = json_field(_INT)


@dataclass(frozen=True)
class LabelReport(_ReportBlock):
    n: int = json_field(_INT)
    cora_mean: float = json_field(_NUMBER)
    cora_sd: float = json_field(_NUMBER)
    bland_altman: BlandAltmanReport | None = json_field(
        Block(BlandAltmanReport), absent=None, default=None)


@dataclass(frozen=True)
class Aggregate(_ReportBlock):
    bland_altman: dict = json_field(_by_quantity(Block(BlandAltmanReport)))
    t_tests: dict = json_field(_by_quantity(Nullable(Block(TTestReport))))
    cora_stats: dict = json_field(_by_quantity(Block(CoraStats)))
    by_label: dict = json_field(MapOf(_by_quantity(Block(LabelReport))))


@dataclass(frozen=True)
class ReportParams(_ReportBlock):
    nrmse_window_s: float = json_field(_NUMBER)
    cora_max_shift_fraction: float = json_field(_NUMBER)
    cora_corridor_weight: float = json_field(_NUMBER)


@dataclass(frozen=True)
class AgreementReport(_ReportBlock):
    """``report.json``, less the manifest of the run that wrote it."""

    events: tuple[EventReport, ...] = json_field(ListOf(Block(EventReport)))
    aggregate: Aggregate = json_field(Block(Aggregate))
    params: ReportParams = json_field(Block(ReportParams))
    n_events: int = json_field(_INT)
    manifest_sha256: str = json_field(Text(), default="unknown")


def write_report(path, report: AgreementReport, manifest) -> None:
    """Write ``report`` to ``path``, stamped with the run's ``RunManifest``."""
    write_json(path, {**to_json(replace(report, manifest_sha256=manifest.sha256)),
                      "manifest": manifest.to_dict()})


def load_report(path) -> AgreementReport:
    """The report at ``path``, whose manifest is not read."""
    return load_json(path, AgreementReport, "the agreement report", ("manifest",))


def _summary(rows) -> tuple[float, float, BlandAltmanReport | None]:
    """Mean and sample sd (0.0 of one row) of the CORA totals of ``(label,
    total, hb peak, ref peak)`` rows; Bland-Altman from 2 rows up, or None."""
    _, totals, hb, ref = zip(*rows)
    sd = float(np.std(totals, ddof=1)) if len(totals) > 1 else 0.0
    ba = bland_altman(hb, ref) if len(rows) >= 2 else None
    return float(np.mean(totals)), sd, ba


def _compare_quantity(hb_series, ref_series, nrmse_window: float,
                      max_shift_fraction: float,
                      ) -> tuple[HeadlineScore, PeakReport, NrmseReport]:
    """The CORA, peak and NRMSE entries of one quantity of one event."""
    hb_on_grid, ref_on_grid = _common_pair(hb_series, ref_series)
    hb_mag = magnitude(hb_on_grid)
    ref_mag = magnitude(ref_on_grid)
    headline = cora_score(ref_mag, hb_mag, max_shift_fraction)
    axes = {}
    for k, ax in enumerate("xyz"):
        try:
            axes[ax] = cora_score(ref_on_grid.component(k),
                                  hb_on_grid.component(k), max_shift_fraction)
        except (DegenerateSignalError, DataError):
            axes[ax] = None
    hb_peak, _ = peak_resultant(hb_mag)
    ref_peak, ref_peak_t = peak_resultant(ref_mag)
    # Peaks near a window edge: shift the NRMSE window minimally so it fits
    # the support (it still contains the peak).
    center = min(max(ref_peak_t, ref_mag.start_time + nrmse_window / 2),
                 ref_mag.end_time - nrmse_window / 2)
    nrms_pct, rms_abs, signed_pct = nrmse_windowed(
        ref_mag, hb_mag, window=nrmse_window, center=center)
    return (HeadlineScore(headline, axes),
            PeakReport(hb_peak, ref_peak, hb_peak - ref_peak),
            NrmseReport(nrms_pct, rms_abs, signed_pct))


def build_agreement_report(events: list[EventComparison],
                           nrmse_window: float = DEFAULT_NRMSE_WINDOW_S,
                           max_shift_fraction: float = DEFAULT_MAX_SHIFT_FRACTION,
                           ) -> AgreementReport:
    """Aggregate per-event CORA / peaks / NRMSE and session-level statistics.

    Each quantity is compared on the reference window grid, trimmed to the
    headband support (:func:`_common_pair`); CORA headline
    scores are computed on the resultant (per-axis scores are reported as
    detail).  ``ingest.to_json`` of the report is its JSON object (see
    ``docs/formats.md``).  A comparison that fails raises its error with the
    pair id and the quantity in front of its message (``pair 2
    angular_velocity: zero-variance reference curve``).
    """
    if not events:
        raise DataError("no paired events to evaluate")
    per_event, per_quantity = [], {}
    for ev in sorted(events, key=lambda e: e.pair_id):
        cora, peaks, nrmse = {}, {}, {}
        for name, hb_attr, ref_attr in QUANTITIES:
            hb_series = getattr(ev.headband, hb_attr)
            if hb_series is None:
                continue
            try:
                cora[name], peaks[name], nrmse[name] = _compare_quantity(
                    hb_series, getattr(ev.reference, ref_attr), nrmse_window,
                    max_shift_fraction)
            except KinerecoError as exc:
                raise type(exc)(f"pair {ev.pair_id} {name}: {exc}") from None
            per_quantity.setdefault(name, []).append((
                ev.label, cora[name].score.total, peaks[name].headband,
                peaks[name].reference))
        per_event.append(EventReport(ev.pair_id, ev.label, cora, peaks, nrmse,
                                     ev.headband.f0))

    aggregate = Aggregate({}, {}, {}, {})
    for name, rows in per_quantity.items():
        mean, sd, ba = _summary(rows)
        if ba is not None:
            aggregate.bland_altman[name] = ba
            _, _, hb, ref = zip(*rows)
            try:
                aggregate.t_tests[name] = TTestReport(*paired_t_test(hb, ref))
            except DataError:
                aggregate.t_tests[name] = None
        aggregate.cora_stats[name] = CoraStats(mean, sd, len(rows))
        for label in sorted({row[0] for row in rows}):
            group = [row for row in rows if row[0] == label]
            aggregate.by_label.setdefault(label, {})[name] = LabelReport(
                len(group), *_summary(group))
    return AgreementReport(
        tuple(per_event), aggregate,
        ReportParams(nrmse_window, max_shift_fraction, 0.0), len(per_event))
