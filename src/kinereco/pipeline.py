"""The session pipeline as pure functions over in-memory data.

The library entry point for a whole session; the ``kinereco`` command line
only reads files, calls these functions and writes their results::

    pairs, unpaired = detect_session(config, headband, ref_blocks, max_offset=0.5)
    events = []
    for row in pairs:
        kin, ref_kin = reconstruct_pair(config, headband, ref_blocks, row)
        events.append(EventComparison(row.pair_id, row.label, kin,
                                      clip_reference_to(ref_kin, kin)))
    report = build_agreement_report(events)

Layer functions are called through their modules (``detect.align_events``),
so a wrapper installed on a layer module, such as a profiler's, sees them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, detect, evaluate, kinematics
from .core import TimeSeries1, TimeSeries3
from .detect import ImpactEvent, ImpactWindow
from .errors import DataError
from .ingest import ImuRecording, SessionConfig
from .kinematics import KinematicsSet, ReferenceKinematics


@dataclass(frozen=True)
class PairRow:
    pair_id: int
    label: str
    t0_headband: float
    t0_reference: float
    offset: float

    @property
    def residual_lag(self) -> float:
        """Refined offset minus the raw trigger-time difference."""
        return self.offset - (self.t0_headband - self.t0_reference)


def _headband_trigger_series(config: SessionConfig,
                             recs: dict[str, ImuRecording]) -> TimeSeries1:
    """Across-sensor mean of the high-g resultants, on the first sensor's grid."""
    mags = [core.magnitude(recs[s.id].trigger_accel)
            for s in config.headband_sensors]
    rate = mags[0].sample_rate
    grid = core.shared_grid(mags, rate)
    stack = np.mean([core.sample_on_grid(m, grid).values for m in mags], axis=0)
    return TimeSeries1(grid[0], rate, stack)


def _concat_scalar(series: list[TimeSeries1]) -> TimeSeries1 | None:
    """Stitch disjoint reference blocks into one series for alignment lookups.

    Gaps are bridged with zeros; only the in-block samples matter because the
    alignment windows always sit inside a block.
    """
    series = sorted(series, key=lambda s: s.start_time)
    rate = series[0].sample_rate
    t0 = series[0].start_time
    t1 = max(s.end_time for s in series)
    n = int(round((t1 - t0) * rate)) + 1
    values = np.zeros(n)
    for s in series:
        i0 = int(round((s.start_time - t0) * rate))
        values[i0:i0 + len(s)] = s.values
    return TimeSeries1(t0, rate, values)


def _label_for(t0: float, labels, tolerance: float = 0.5) -> str:
    best = ""
    best_dt = tolerance
    for t, label in labels:
        if abs(t - t0) <= best_dt:
            best, best_dt = label, abs(t - t0)
    return best


def detect_channels(config: SessionConfig) -> dict[str, tuple[str, ...]]:
    """The channels :func:`detect_session` reads, by headband sensor id: the
    trigger channel, ``accel_high`` when declared and else ``accel_low``
    (none for a sensor without an accelerometer, which detection rejects)."""
    reads = {}
    for spec in config.headband_sensors:
        declared = [kind for kind in ("accel_high", "accel_low")
                    if spec.channel(kind) is not None]
        reads[spec.id] = tuple(declared[:1])
    return reads


def detect_session(config: SessionConfig, headband: dict[str, ImuRecording],
                   ref_blocks: list[ImuRecording], max_offset: float, labels=(),
                   ) -> tuple[list[PairRow], list[tuple[ImpactEvent, str]]]:
    """Find the impacts on both devices, pair them and label every event.

    ``headband`` maps sensor id to its recording, which needs only the
    channels :func:`detect_channels` names; ``ref_blocks`` are the reference
    device's event blocks, parsed whole.  ``labels`` holds ``(time_s, label)``
    tuples; an event takes the nearest label within 0.5 s of its trigger
    (a pair, that of its headband trigger).  Returns the pairs, numbered from
    1, and the unpaired events with their labels.
    """
    hb_trigger = _headband_trigger_series(config, headband)
    window_len = config.window.pre + config.window.headband_post
    hb_events = [
        ImpactEvent(ev.t0, "headband") for ev in detect.detect_impacts(
            hb_trigger, config.trigger.threshold, config.trigger.min_duration,
            min_separation=window_len)
    ]

    ref_events = []
    ref_mags = []
    for block in ref_blocks:
        trig = core.magnitude(block.trigger_accel)
        ref_mags.append(trig)
        found = detect.detect_impacts(trig, config.trigger.threshold,
                                      config.trigger.min_duration)
        if found:
            ref_events.append(ImpactEvent(found[0].t0, "reference"))
        else:
            # Hardware-trigger geometry: the block starts 31.25 ms early.
            ref_events.append(ImpactEvent(trig.start_time + config.window.pre,
                                          "reference"))

    ref_mag_all = _concat_scalar(ref_mags) if ref_mags else None
    pairs, unpaired_hb, unpaired_ref = detect.align_events(
        hb_events, ref_events, max_offset,
        hb_accel_mag=hb_trigger, ref_accel_mag=ref_mag_all,
        window_pre=config.window.pre, window_post=config.window.reference_post,
    )
    rows = [PairRow(pair_id=k, label=_label_for(pair.headband.t0, labels),
                    t0_headband=pair.headband.t0,
                    t0_reference=pair.reference.t0, offset=pair.offset)
            for k, pair in enumerate(pairs, start=1)]
    unpaired = [(ev, _label_for(ev.t0, labels))
                for ev in unpaired_hb + unpaired_ref]
    return rows, unpaired


#: Extraction margin so the reconstruction grid (which snaps outward to keep
#: the end-slice time on grid) stays inside the excerpt support.
_WINDOW_PAD_S = 0.002


def _build_window(recs: dict[str, ImuRecording], event: ImpactEvent,
                  pre: float, post: float,
                  pad: float = _WINDOW_PAD_S) -> ImpactWindow:
    channels = {sid: detect.extract_window(rec, event, pre + pad, post + pad)
                for sid, rec in recs.items()}
    return ImpactWindow(channels=channels, pre=pre, post=post)


def _block_for(blocks: list[ImuRecording], t0: float) -> ImuRecording:
    for block in blocks:
        if block.gyro.start_time - 1e-9 <= t0 <= block.gyro.end_time + 1e-9:
            return block
    raise DataError(f"no reference block covers t0={t0:.4f} s")


def reconstruct_channels(config: SessionConfig,
                         alpha_method: str = "both") -> dict[str, tuple[str, ...]]:
    """The channels :func:`reconstruct_pair` reads, by headband sensor id:
    every gyro, plus ``a3g1_channel`` of the A3G1 sensors when the A3G1
    method runs."""
    reads = {s.id: ("gyro",) for s in config.headband_sensors}
    if alpha_method in ("a3g1", "both"):
        for sid in config.a3g1_sensor_ids:
            if sid in reads:
                reads[sid] += (config.a3g1_channel,)
    return reads


def reconstruct_pair(config: SessionConfig, headband: dict[str, ImuRecording],
                     ref_blocks: list[ImuRecording], row: PairRow,
                     alpha_method: str = "both",
                     ) -> tuple[KinematicsSet, ReferenceKinematics | None]:
    """Headband kinematics of one paired event, and the reference device's.

    ``headband`` needs only the channels :func:`reconstruct_channels` names
    for ``alpha_method``.

    The reference kinematics are shifted by the pair's residual lag onto the
    headband clock; they are None when the session has no reference blocks.
    """
    hb_event = ImpactEvent(row.t0_headband, "headband")
    window = _build_window(headband, hb_event, config.window.pre,
                           config.window.headband_post)
    kin = kinematics.reconstruct_headband_event(window, config, alpha_method)

    ref_kin = None
    spec = config.reference_sensor
    if spec is not None and ref_blocks:
        ref_window = _build_window(
            {spec.id: _block_for(ref_blocks, row.t0_reference)},
            ImpactEvent(row.t0_reference, "reference"), config.window.pre,
            config.window.reference_post, pad=0.0)
        ref_kin = kinematics.reconstruct_reference_event(ref_window, config)
        if row.residual_lag:
            ref_kin = ReferenceKinematics(*(
                ts.shifted(row.residual_lag)
                for ts in (ref_kin.omega, ref_kin.alpha, ref_kin.a_point)))
    return kin, ref_kin


def clip_reference_to(ref_kin: ReferenceKinematics,
                      kin: KinematicsSet) -> ReferenceKinematics:
    """Trim the reference grid to the headband support (clock-shifted pairs
    can overhang by a couple of samples)."""
    hb = kin.omega_hf

    def clip(ts: TimeSeries3) -> TimeSeries3:
        i0, i1 = ts.span(hb.start_time - ts.start_time,
                         hb.end_time - ts.start_time)
        if i1 <= i0 + 8:
            raise DataError("reference and headband kinematics barely overlap")
        return TimeSeries3(ts.start_time + i0 / ts.sample_rate, ts.sample_rate,
                           ts.samples[i0:i1 + 1])

    return ReferenceKinematics(*(
        clip(ts) for ts in (ref_kin.omega, ref_kin.alpha, ref_kin.a_point)))


def overlay_resultants(kin: KinematicsSet, ref_kin: ReferenceKinematics,
                       ) -> list[tuple[str, TimeSeries1, TimeSeries1]]:
    """``(quantity, headband, reference)`` resultant time histories of each
    quantity the headband carries, both on the reference grid."""
    out = []
    for name, hb_attr, ref_attr in evaluate.QUANTITIES:
        hb_series = getattr(kin, hb_attr)
        if hb_series is None:
            continue
        hb_on_grid, ref_series = evaluate._common_pair(
            hb_series, getattr(ref_kin, ref_attr))
        out.append((name, core.magnitude(hb_on_grid),
                    core.magnitude(ref_series)))
    return out


#: Column names of each ``report`` table, by file name.
_REPORT_COLUMNS = {
    "cora.csv": ("pair_id", "label", "quantity", "phase", "magnitude", "shape",
                 "total", "band"),
    "peaks.csv": ("pair_id", "label", "quantity", "headband", "reference",
                  "bias"),
    "nrmse.csv": ("pair_id", "label", "quantity", "nrms_pct", "rms_abs",
                  "signed_mean_pct"),
    "bland_altman.csv": ("scope", "quantity", "n", "mean_bias", "sd_bias",
                         "loa_low", "loa_high", "mean_normalized_bias"),
    "ttests.csv": ("quantity", "t", "p", "significant"),
}


def report_tables(events, agg) -> dict[str, tuple[tuple[str, ...], list]]:
    """The column names and the columns of formatted cells of each
    ``report`` table, by file name."""
    rows = {name: [] for name in _REPORT_COLUMNS}
    for ev in events:
        pair = [str(ev["pair_id"]), str(ev["label"])]
        for quantity, score in sorted(ev["cora"].items()):
            rows["cora.csv"].append(pair + [
                quantity, f"{score['phase']:.6f}", f"{score['magnitude']:.6f}",
                f"{score['shape']:.6f}", f"{score['total']:.6f}",
                str(score["band"])])
        for quantity, peak in sorted(ev["peaks"].items()):
            rows["peaks.csv"].append(pair + [
                quantity, f"{peak['headband']:.9g}",
                f"{peak['reference']:.9g}", f"{peak['bias']:.9g}"])
        for quantity, entry in sorted(ev["nrmse"].items()):
            rows["nrmse.csv"].append(pair + [
                quantity, f"{entry['nrms_pct']:.6f}", f"{entry['rms_abs']:.9g}",
                f"{entry['signed_mean_pct']:.6f}"])

    def ba_row(scope, quantity, n, ba):
        return [scope, quantity, str(n), f"{ba['mean_bias']:.9g}",
                f"{ba['sd_bias']:.9g}", f"{ba['loa_low']:.9g}",
                f"{ba['loa_high']:.9g}", f"{ba['mean_normalized_bias']:.9g}"]

    for quantity, ba in sorted(agg["bland_altman"].items()):
        rows["bland_altman.csv"].append(
            ba_row("all", quantity, len(ba["bias"]), ba))
    for label, group in sorted(agg["by_label"].items()):
        for quantity, entry in sorted(group.items()):
            ba = entry.get("bland_altman")
            if ba is not None:
                rows["bland_altman.csv"].append(
                    ba_row(label, quantity, entry["n"], ba))

    for quantity, entry in sorted(agg["t_tests"].items()):
        rows["ttests.csv"].append(
            [quantity, "", "", ""] if entry is None else
            [quantity, f"{entry['t']:.6f}", f"{entry['p']:.6g}",
             str(entry["significant"]).lower()])
    return {name: (names, list(zip(*rows[name])) or [()] * len(names))
            for name, names in _REPORT_COLUMNS.items()}
