"""The session pipeline as pure functions over in-memory data.

The library entry point for a whole session; the ``kinereco`` command line
only reads files, calls these functions and writes their results.  The
recordings of a session directory load with ``ingest.load_session``, here
every declared channel of each headband sensor (None)::

    config = load_session_config("session/config.json")
    headband, ref_blocks = load_session(
        config, "session", {spec.id: None for spec in config.headband_sensors})
    pairs, unpaired = detect_session(config, headband, ref_blocks, max_offset=0.5)
    events = []
    for row in pairs:
        events.append(EventComparison(row.pair_id, row.label, *reconstruct_pair(
            config, headband, ref_blocks, row)))
    report = build_agreement_report(events)

Layer functions are called through their modules (``detect.align_events``),
so a wrapper installed on a layer module, such as a profiler's, sees them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, detect, evaluate, kinematics
from .core import TimeSeries1
from .errors import DataError
from .ingest import ImuRecording, SessionConfig
from .kinematics import KinematicsSet, ReferenceKinematics


@dataclass(frozen=True)
class PairRow:
    """One headband/reference event pair.  ``offset`` estimates (headband
    clock - reference clock): an instant stamped t on the headband is
    t - offset on the reference."""

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
                   ) -> tuple[list[PairRow], list[tuple[str, float, str]]]:
    """Find the impacts on both devices, pair them and label every event.

    ``headband`` maps sensor id to its recording, which needs only the
    channels :func:`detect_channels` names; ``ref_blocks`` are the reference
    device's event blocks, parsed whole.  ``labels`` holds ``(time_s, label)``
    tuples; an event takes the nearest label within 0.5 s of its trigger
    (a pair, that of its headband trigger).  Returns the pairs, numbered from
    1, and the unpaired events as ``(source, t0, label)``, headband first.
    """
    hb_trigger = _headband_trigger_series(config, headband)
    window_len = config.window.pre + config.window.headband_post
    hb_t0 = detect.detect_impacts(
        hb_trigger, config.trigger.threshold, config.trigger.min_duration,
        min_separation=window_len)

    ref_t0 = []
    ref_mags = []
    for block in ref_blocks:
        trig = core.magnitude(block.trigger_accel)
        ref_mags.append(trig)
        found = detect.detect_impacts(trig, config.trigger.threshold,
                                      config.trigger.min_duration)
        # Without a trigger, the hardware-trigger geometry: the block starts
        # ``pre`` early.
        ref_t0.append(found[0] if found else trig.start_time + config.window.pre)

    pairs = detect.align_events(hb_t0, ref_t0, max_offset, hb_trigger, ref_mags,
                                config.window.pre, config.window.reference_post)
    rows = [PairRow(pair_id=k, label=_label_for(hb_t0[i], labels),
                    t0_headband=hb_t0[i], t0_reference=ref_t0[j], offset=offset)
            for k, (i, j, offset) in enumerate(pairs, start=1)]
    unpaired = [(source, t0, _label_for(t0, labels))
                for source, times, paired in (
                    ("headband", hb_t0, {i for i, _, _ in pairs}),
                    ("reference", ref_t0, {j for _, j, _ in pairs}))
                for k, t0 in enumerate(times) if k not in paired]
    return rows, unpaired


#: Extraction margin so the reconstruction grid (which snaps outward to keep
#: the end-slice time on grid) stays inside the excerpt support.
_WINDOW_PAD_S = 0.002


def reconstruct_windows(config: SessionConfig, pairs: list[PairRow],
                        ) -> list[tuple[float, float, float]]:
    """The ``(t0, pre, post)`` headband windows :func:`reconstruct_pair`
    cuts from the recordings for ``pairs``: the config's window around each
    headband trigger, widened by ``_WINDOW_PAD_S`` at both ends."""
    pre = config.window.pre + _WINDOW_PAD_S
    post = config.window.headband_post + _WINDOW_PAD_S
    return [(row.t0_headband, pre, post) for row in pairs]


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
    for ``alpha_method``, and only their samples in the pair's window of
    :func:`reconstruct_windows`.

    The reference kinematics are shifted by the pair's residual lag onto the
    headband clock; they are None when the session has no reference blocks.
    """
    (window,) = reconstruct_windows(config, [row])
    excerpts = {sid: detect.extract_window(rec, *window)
                for sid, rec in headband.items()}
    kin = kinematics.reconstruct_headband_event(excerpts, config, alpha_method)

    ref_kin = None
    if config.reference_sensor is not None and ref_blocks:
        excerpt = detect.extract_window(
            _block_for(ref_blocks, row.t0_reference), row.t0_reference,
            config.window.pre, config.window.reference_post)
        ref_kin = kinematics.reconstruct_reference_event(excerpt, config)
        if row.residual_lag:
            ref_kin = ReferenceKinematics(*(
                ts.shifted(row.residual_lag)
                for ts in (ref_kin.omega, ref_kin.alpha, ref_kin.a_point)))
    return kin, ref_kin


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


def _ba_row(scope: str, quantity: str, n: int, ba) -> list[str]:
    return [scope, quantity, str(n), f"{ba.mean_bias:.9g}", f"{ba.sd_bias:.9g}",
            f"{ba.loa_low:.9g}", f"{ba.loa_high:.9g}",
            f"{ba.mean_normalized_bias:.9g}"]


def report_tables(report: evaluate.AgreementReport) -> dict:
    """The column names and the columns of formatted cells of each
    ``report`` table, by file name."""
    rows = {name: [] for name in _REPORT_COLUMNS}
    for ev in report.events:
        pair = [str(ev.pair_id), ev.label]
        for quantity, cora in sorted(ev.cora.items()):
            score = cora.score
            rows["cora.csv"].append(pair + [
                quantity, f"{score.phase:.6f}", f"{score.magnitude:.6f}",
                f"{score.shape:.6f}", f"{score.total:.6f}", score.band])
        for quantity, peak in sorted(ev.peaks.items()):
            rows["peaks.csv"].append(pair + [
                quantity, f"{peak.headband:.9g}", f"{peak.reference:.9g}",
                f"{peak.bias:.9g}"])
        for quantity, nrmse in sorted(ev.nrmse.items()):
            rows["nrmse.csv"].append(pair + [
                quantity, f"{nrmse.nrms_pct:.6f}", f"{nrmse.rms_abs:.9g}",
                f"{nrmse.signed_mean_pct:.6f}"])
    agg = report.aggregate
    for quantity, ba in sorted(agg.bland_altman.items()):
        rows["bland_altman.csv"].append(
            _ba_row("all", quantity, len(ba.bias), ba))
    for label, group in sorted(agg.by_label.items()):
        for quantity, entry in sorted(group.items()):
            if entry.bland_altman is not None:
                rows["bland_altman.csv"].append(
                    _ba_row(label, quantity, entry.n, entry.bland_altman))
    for quantity, test in sorted(agg.t_tests.items()):
        rows["ttests.csv"].append(
            [quantity, "", "", ""] if test is None else
            [quantity, f"{test.t:.6f}", f"{test.p:.6g}",
             str(test.significant).lower()])
    return {name: (names, list(zip(*rows[name])) or [()] * len(names))
            for name, names in _REPORT_COLUMNS.items()}
