"""Batch command-line front-end.

Subcommands::

    kinereco simulate    --profile P --config C --out DIR [--seed N]
    kinereco detect      --config C --in DIR --out events.csv
    kinereco reconstruct --config C --in DIR --events events.csv --out DIR
                         [--alpha-method diff|a3g1|both] [--scalograms]
    kinereco evaluate    --config C --hb DIR --ref DIR --pairs events.csv
                         --out report.json
    kinereco report      --in report.json --out DIR [--hb DIR --ref DIR]

Every run builds a manifest (config, inputs, parameters, toolkit version,
seed) whose SHA-256 hash is stamped into each output file, making outputs
traceable and reruns byte-identical.  Errors exit nonzero with one
machine-parsable line on stderr.  Set ``KINERECO_LOG`` (debug/info/warning)
to control verbosity.  File formats are documented in ``docs/formats.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import TimeSeries1, TimeSeries3, magnitude, sample_on_grid
from .detect import EventPair, ImpactEvent, ImpactWindow, align_events, \
    detect_impacts, extract_window
from .errors import ConfigError, DataError, FormatError, KinerecoError
from .evaluate import EventComparison, build_agreement_report
from .ingest import ImuRecording, SessionConfig, load_session_config, \
    parse_imu_csv, parse_reference_csv, write_table
from .kinematics import KinematicsSet, ReferenceKinematics, \
    reconstruct_headband_event, reconstruct_reference_event
from .synth import load_profile, simulate_session, write_simulated_session
from .wavelet import cwt

log = logging.getLogger(__name__)

_DEFAULT_WORKERS = min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one CLI run; hashed into every output file."""

    subcommand: str
    config_path: str
    inputs: tuple[str, ...]
    params: dict
    seed: int | None
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "config": self.config_path,
            "inputs": list(self.inputs),
            "params": self.params,
            "seed": self.seed,
            "version": self.version,
        }

    @property
    def sha256(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def comments(self) -> tuple[str, ...]:
        return (f"manifest_sha256={self.sha256}",)


# ---------------------------------------------------------------------------
# Shared session I/O


def _load_headband(config: SessionConfig, in_dir: Path) -> dict[str, ImuRecording]:
    recs = {}
    for spec in config.headband_sensors:
        path = in_dir / f"{spec.id}.csv"
        if not path.exists():
            raise FormatError(f"missing headband file {path}")
        recs[spec.id] = parse_imu_csv(path, spec, config.column_map)
    return recs


def _load_reference_blocks(config: SessionConfig, in_dir: Path) -> list[ImuRecording]:
    spec = config.reference_sensor
    if spec is None:
        return []
    blocks = []
    for path in sorted(in_dir.glob(f"{spec.id}_ev*.csv")):
        if path.stem.endswith("_high"):
            continue
        blocks.append(parse_reference_csv(path, spec, config.column_map))
    return blocks


def _headband_trigger_series(config: SessionConfig,
                             recs: dict[str, ImuRecording]) -> TimeSeries1:
    """Across-sensor mean of the high-g resultants, on the first sensor's grid."""
    mags = [magnitude(recs[s.id].trigger_accel) for s in config.headband_sensors]
    base = mags[0]
    lo = max(m.start_time for m in mags)
    hi = min(m.end_time for m in mags)
    n = int(np.floor((hi - lo) * base.sample_rate)) + 1
    grid = lo + np.arange(n) / base.sample_rate
    stack = np.mean([sample_on_grid(m, grid).values for m in mags], axis=0)
    return TimeSeries1(lo, base.sample_rate, stack)


def _load_labels(in_dir: Path) -> list[tuple[float, str]]:
    path = in_dir / "labels.csv"
    if not path.exists():
        return []
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        while header.startswith("#"):
            header = fh.readline()
        if not header.startswith("time_s"):
            raise FormatError(f"{path}: expected 'time_s,label' header")
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            t, label = line.split(",", 1)
            out.append((float(t), label.strip()))
    return out


def _label_for(t0: float, labels, tolerance: float = 0.5) -> str:
    best = ""
    best_dt = tolerance
    for t, label in labels:
        if abs(t - t0) <= best_dt:
            best, best_dt = label, abs(t - t0)
    return best


# ---------------------------------------------------------------------------
# events.csv


def _write_events_csv(path: Path, pairs: list[EventPair],
                      unpaired: list[ImpactEvent], labels,
                      manifest: RunManifest):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for comment in manifest.comments():
            fh.write(f"# {comment}\n")
        fh.write("pair_id,source,t0_s,label,offset_s\n")
        for k, pair in enumerate(pairs, start=1):
            label = _label_for(pair.headband.t0, labels)
            fh.write(f"{k},headband,{pair.headband.t0:.9f},{label},"
                     f"{pair.offset:.9f}\n")
            fh.write(f"{k},reference,{pair.reference.t0:.9f},{label},\n")
        for ev in unpaired:
            fh.write(f",{ev.source},{ev.t0:.9f},{_label_for(ev.t0, labels)},\n")


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


def _read_events_csv(path: Path) -> list[PairRow]:
    rows: dict[int, dict] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            cells = line.split(",")
            rec = dict(zip(header, cells))
            if not rec.get("pair_id"):
                continue
            try:
                pid = int(rec["pair_id"])
                entry = rows.setdefault(pid, {"label": rec.get("label", "")})
                entry[rec["source"]] = float(rec["t0_s"])
                if rec["source"] == "headband" and rec.get("offset_s"):
                    entry["offset"] = float(rec["offset_s"])
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}: malformed event row {line!r} "
                                f"({exc!r})") from None
    if header is None:
        raise FormatError(f"{path}: empty events file")
    out = []
    for pid in sorted(rows):
        entry = rows[pid]
        if "headband" not in entry or "reference" not in entry:
            raise DataError(f"{path}: pair {pid} lacks one of its two rows")
        out.append(PairRow(
            pair_id=pid, label=entry.get("label", ""),
            t0_headband=entry["headband"], t0_reference=entry["reference"],
            offset=entry.get("offset", entry["headband"] - entry["reference"]),
        ))
    return out


# ---------------------------------------------------------------------------
# Kinematics CSVs


def _series_columns(prefix: str, ts: TimeSeries3):
    return [(f"{prefix}_{ax}", ts.samples[:, k]) for k, ax in enumerate("xyz")]


def _write_kinematics_csv(path: Path, kin: KinematicsSet, pair_id: int,
                          label: str, manifest: RunManifest):
    cols = [("t_s", kin.omega_h.times)]
    cols += _series_columns("omega_h", kin.omega_h)
    cols += _series_columns("omega_hf", kin.omega_hf)
    if kin.alpha_diff is not None:
        cols += _series_columns("alpha_diff", kin.alpha_diff)
    if kin.alpha_a3g1 is not None:
        cols += _series_columns("alpha_a3g1", kin.alpha_a3g1)
        cols += _series_columns("q", kin.q)
        cols += _series_columns("a_point", kin.a_ref_point)
        cols.append(("residual", kin.a3g1_residual.values))
    comments = manifest.comments() + (
        f"pair_id={pair_id}", f"label={label}", f"f0_hz={kin.f0:.9g}",
    )
    names, columns = zip(*cols)
    write_table(path, names, columns, comments, "%.12g")


def _write_reference_csv(path: Path, kin: ReferenceKinematics, pair_id: int,
                         label: str, lag: float, manifest: RunManifest):
    cols = [("t_s", kin.omega.times)]
    cols += _series_columns("omega", kin.omega)
    cols += _series_columns("alpha", kin.alpha)
    cols += _series_columns("a_point", kin.a_point)
    comments = manifest.comments() + (
        f"pair_id={pair_id}", f"label={label}", f"residual_lag_s={lag:.9g}",
    )
    names, columns = zip(*cols)
    write_table(path, names, columns, comments, "%.12g")


def _read_table(path: Path) -> tuple[dict, list[str], np.ndarray]:
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        while header is None:
            line = fh.readline()
            if not line:
                raise FormatError(f"{path}: no header row")
            line = line.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value.strip()
            elif line:
                header = [c.strip() for c in line.split(",")]
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return meta, header, data


def _table_series3(header, data, prefix, start, rate) -> TimeSeries3 | None:
    names = [f"{prefix}_{ax}" for ax in "xyz"]
    if not all(n in header for n in names):
        return None
    cols = [header.index(n) for n in names]
    return TimeSeries3(start, rate, data[:, cols])


def _pair_id_from(meta: dict, path: Path) -> int:
    try:
        return int(meta["pair_id"])
    except (KeyError, ValueError):
        raise FormatError(f"{path}: missing or bad 'pair_id' header comment") \
            from None


def _load_kinematics_csv(path: Path) -> tuple[int, str, KinematicsSet]:
    meta, header, data = _read_table(path)
    t = data[:, header.index("t_s")]
    rate = 1.0 / float(np.median(np.diff(t)))
    start = float(t[0])
    omega_h = _table_series3(header, data, "omega_h", start, rate)
    omega_hf = _table_series3(header, data, "omega_hf", start, rate)
    if omega_h is None or omega_hf is None:
        raise FormatError(f"{path}: not a headband kinematics file")
    residual = None
    if "residual" in header:
        residual = TimeSeries1(start, rate, data[:, header.index("residual")])
    kin = KinematicsSet(
        omega_h=omega_h,
        omega_hf=omega_hf,
        alpha_diff=_table_series3(header, data, "alpha_diff", start, rate),
        alpha_a3g1=_table_series3(header, data, "alpha_a3g1", start, rate),
        a_ref_point=_table_series3(header, data, "a_point", start, rate),
        q=_table_series3(header, data, "q", start, rate),
        f0=float(meta.get("f0_hz", "nan")),
        a3g1_residual=residual,
    )
    return _pair_id_from(meta, path), meta.get("label", ""), kin


def _load_reference_kin_csv(path: Path) -> tuple[int, str, ReferenceKinematics]:
    meta, header, data = _read_table(path)
    t = data[:, header.index("t_s")]
    rate = 1.0 / float(np.median(np.diff(t)))
    start = float(t[0])
    omega = _table_series3(header, data, "omega", start, rate)
    alpha = _table_series3(header, data, "alpha", start, rate)
    a_point = _table_series3(header, data, "a_point", start, rate)
    if omega is None or alpha is None or a_point is None:
        raise FormatError(f"{path}: not a reference kinematics file")
    return _pair_id_from(meta, path), meta.get("label", ""), \
        ReferenceKinematics(omega=omega, alpha=alpha, a_point=a_point)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    config = load_session_config(args.config)
    profile = load_profile(args.profile)
    manifest = RunManifest(
        subcommand="simulate", config_path=str(args.config),
        inputs=(str(args.profile),), params={}, seed=args.seed,
    )
    sim = simulate_session(profile, config, seed=args.seed)
    out = Path(args.out)
    written = write_simulated_session(sim, config, out, manifest.comments())
    _write_manifest(out / "manifest.json", manifest)
    log.info("simulate: wrote %d files to %s", len(written), out)
    return 0


def _cmd_detect(args) -> int:
    _require_positive(args, "max_offset")
    config = load_session_config(args.config)
    in_dir = Path(args.in_dir)
    manifest = RunManifest(
        subcommand="detect", config_path=str(args.config),
        inputs=(str(in_dir),),
        params={"max_offset_s": args.max_offset}, seed=None,
    )
    hb_recs = _load_headband(config, in_dir)
    hb_trigger = _headband_trigger_series(config, hb_recs)
    window_len = config.window.pre + config.window.headband_post
    hb_events = [
        ImpactEvent(ev.t0, "headband") for ev in detect_impacts(
            hb_trigger, config.trigger.threshold, config.trigger.min_duration,
            min_separation=window_len)
    ]

    ref_blocks = _load_reference_blocks(config, in_dir)
    ref_events = []
    ref_mags = []
    for block in ref_blocks:
        trig = magnitude(block.trigger_accel)
        ref_mags.append(trig)
        found = detect_impacts(trig, config.trigger.threshold,
                               config.trigger.min_duration)
        if found:
            ref_events.append(ImpactEvent(found[0].t0, "reference"))
        else:
            # Hardware-trigger geometry: the block starts 31.25 ms early.
            ref_events.append(ImpactEvent(trig.start_time + config.window.pre,
                                          "reference"))

    ref_mag_all = _concat_scalar(ref_mags) if ref_mags else None
    pairs, unpaired_hb, unpaired_ref = align_events(
        hb_events, ref_events, args.max_offset,
        hb_accel_mag=hb_trigger, ref_accel_mag=ref_mag_all,
        window_pre=config.window.pre, window_post=config.window.reference_post,
    )
    labels = _load_labels(in_dir)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_events_csv(out, pairs, unpaired_hb + unpaired_ref, labels, manifest)
    log.info("detect: %d pairs, %d unpaired -> %s",
             len(pairs), len(unpaired_hb) + len(unpaired_ref), out)
    return 0


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


#: Extraction margin so the reconstruction grid (which snaps outward to keep
#: the end-slice time on grid) stays inside the excerpt support.
_WINDOW_PAD_S = 0.002


def _build_window(recs: dict[str, ImuRecording], event: ImpactEvent,
                  pre: float, post: float) -> ImpactWindow:
    channels = {sid: extract_window(rec, event, pre + _WINDOW_PAD_S,
                                    post + _WINDOW_PAD_S)
                for sid, rec in recs.items()}
    return ImpactWindow(event=event, channels=channels, pre=pre, post=post)


def _cmd_reconstruct(args) -> int:
    _require_positive(args, "workers")
    config = load_session_config(args.config)
    in_dir = Path(args.in_dir)
    manifest = RunManifest(
        subcommand="reconstruct", config_path=str(args.config),
        inputs=(str(in_dir), str(args.events)),
        params={"alpha_method": args.alpha_method,
                "scalograms": bool(args.scalograms)},
        seed=None,
    )
    pairs = _read_events_csv(Path(args.events))
    if not pairs:
        raise DataError(f"{args.events}: no paired events to reconstruct")
    hb_recs = _load_headband(config, in_dir)
    ref_blocks = _load_reference_blocks(config, in_dir)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def one_pair(row: PairRow):
        hb_event = ImpactEvent(row.t0_headband, "headband")
        window = _build_window(hb_recs, hb_event, config.window.pre,
                               config.window.headband_post)
        kin = reconstruct_headband_event(window, config, args.alpha_method)

        ref_kin = None
        spec = config.reference_sensor
        if spec is not None and ref_blocks:
            block = _block_for(ref_blocks, row.t0_reference)
            ref_event = ImpactEvent(row.t0_reference, "reference")
            ref_window = ImpactWindow(
                event=ref_event,
                channels={spec.id: extract_window(block, ref_event,
                                                  config.window.pre,
                                                  config.window.reference_post)},
                pre=config.window.pre, post=config.window.reference_post,
            )
            ref_kin = reconstruct_reference_event(ref_window, config)
            if row.residual_lag:
                ref_kin = ReferenceKinematics(
                    omega=ref_kin.omega.shifted(row.residual_lag),
                    alpha=ref_kin.alpha.shifted(row.residual_lag),
                    a_point=ref_kin.a_point.shifted(row.residual_lag),
                )
        return row, window, kin, ref_kin

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = list(pool.map(one_pair, pairs))

    for row, window, kin, ref_kin in results:
        _write_kinematics_csv(out / f"hb_ev{row.pair_id:03d}.csv", kin,
                              row.pair_id, row.label, manifest)
        if ref_kin is not None:
            _write_reference_csv(out / f"ref_ev{row.pair_id:03d}.csv", ref_kin,
                                 row.pair_id, row.label, row.residual_lag,
                                 manifest)
        if args.scalograms:
            _write_scalograms(out / f"scalogram_ev{row.pair_id:03d}.csv",
                              kin.omega_h, manifest)
            if ref_kin is not None:
                _write_scalograms(out / f"scalogram_ref_ev{row.pair_id:03d}.csv",
                                  ref_kin.omega, manifest)
    _write_manifest(out / "manifest.json", manifest)
    log.info("reconstruct: %d events -> %s", len(results), out)
    return 0


def _block_for(blocks: list[ImuRecording], t0: float) -> ImuRecording:
    for block in blocks:
        if block.gyro.start_time - 1e-9 <= t0 <= block.gyro.end_time + 1e-9:
            return block
    raise DataError(f"no reference block covers t0={t0:.4f} s")


def _write_scalograms(path: Path, omega: TimeSeries3, manifest: RunManifest):
    grids = []
    for k in range(3):
        comp = omega.component(k)
        if comp.values.any():
            grids.append((float(k), cwt(comp)))
    if not grids:
        return
    # Row order: axis, then frequency, then time.  Each label is formatted
    # once and every row refers to the same string.
    fmt = "%.9g"
    axes, times, freqs = [], [], []
    for k, sc in grids:
        axes += [fmt % k] * sc.coeffs.size
        times += [fmt % t for t in sc.times.tolist()] * len(sc.freqs)
        for freq in sc.freqs.tolist():
            freqs += [fmt % freq] * len(sc.times)
    coeffs = np.concatenate([sc.coeffs.ravel() for _, sc in grids])
    write_table(path, ("axis", "time_s", "freq_hz", "coeff"),
                (axes, times, freqs, coeffs), manifest.comments(), fmt)


def _cmd_evaluate(args) -> int:
    _require_positive(args, "nrmse_window", "max_shift_fraction")
    load_session_config(args.config)  # validated for provenance/consistency
    manifest = RunManifest(
        subcommand="evaluate", config_path=str(args.config),
        inputs=(str(args.hb), str(args.ref), str(args.pairs)),
        params={"nrmse_window_s": args.nrmse_window,
                "cora_max_shift_fraction": args.max_shift_fraction},
        seed=None,
    )
    pair_rows = {row.pair_id: row for row in _read_events_csv(Path(args.pairs))}
    hb_dir, ref_dir = Path(args.hb), Path(args.ref)
    events = []
    for path in sorted(hb_dir.glob("hb_ev*.csv")):
        pair_id, label, kin = _load_kinematics_csv(path)
        ref_path = ref_dir / f"ref_ev{pair_id:03d}.csv"
        if not ref_path.exists():
            log.warning("no reference kinematics for pair %d; skipping", pair_id)
            continue
        _, _, ref_kin = _load_reference_kin_csv(ref_path)
        row = pair_rows.get(pair_id)
        events.append(EventComparison(
            pair_id=pair_id,
            label=row.label if row is not None else label,
            headband=kin,
            reference=_clip_reference_to(ref_kin, kin),
        ))
    if not events:
        raise DataError("no overlapping hb/ref kinematics files found")
    report = build_agreement_report(
        events, nrmse_window=args.nrmse_window,
        max_shift_fraction=args.max_shift_fraction,
    )
    report["manifest"] = manifest.to_dict()
    report["manifest_sha256"] = manifest.sha256
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("evaluate: %d events -> %s", len(events), out)
    return 0


def _clip_reference_to(ref_kin: ReferenceKinematics,
                       kin: KinematicsSet) -> ReferenceKinematics:
    """Trim the reference grid to the headband support (clock-shifted pairs
    can overhang by a couple of samples)."""
    hb = kin.omega_hf

    def clip(ts: TimeSeries3) -> TimeSeries3:
        i0 = int(np.ceil((hb.start_time - ts.start_time) * ts.sample_rate - 1e-9))
        i1 = int(np.floor((hb.end_time - ts.start_time) * ts.sample_rate + 1e-9))
        i0 = max(i0, 0)
        i1 = min(i1, len(ts) - 1)
        if i1 <= i0 + 8:
            raise DataError("reference and headband kinematics barely overlap")
        return TimeSeries3(ts.start_time + i0 / ts.sample_rate, ts.sample_rate,
                           ts.samples[i0:i1 + 1])

    return ReferenceKinematics(omega=clip(ref_kin.omega),
                               alpha=clip(ref_kin.alpha),
                               a_point=clip(ref_kin.a_point))


def _cmd_report(args) -> int:
    in_path = Path(args.in_path)
    try:
        with open(in_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot open {in_path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{in_path}: invalid JSON ({exc})") from None
    for key in ("events", "aggregate"):
        if not isinstance(report, dict) or key not in report:
            raise FormatError(f"{in_path}: not an agreement report "
                              f"(missing key {key!r})")
    # Every table is rendered before any file is opened, so a malformed
    # report leaves no partial table behind.
    try:
        tables = _report_tables(report["events"], report["aggregate"])
    except KeyError as exc:
        raise FormatError(f"{in_path}: not an agreement report "
                          f"(missing key {exc.args[0]!r})") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"{in_path}: malformed agreement report "
                          f"({type(exc).__name__}: {exc})") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    comments = (f"manifest_sha256={report.get('manifest_sha256', 'unknown')}",)
    for name, lines in tables.items():
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {comments[0]}\n")
            fh.writelines(line + "\n" for line in lines)

    if args.hb and args.ref:
        _write_overlays(Path(args.hb), Path(args.ref), out, comments)
    log.info("report: tables written to %s", out)
    return 0


def _report_tables(events, agg) -> dict[str, list[str]]:
    """The header and rows of each ``report`` table, by file name."""
    cora = ["pair_id,label,quantity,phase,magnitude,shape,total,band"]
    peaks = ["pair_id,label,quantity,headband,reference,bias"]
    nrmse = ["pair_id,label,quantity,nrms_pct,rms_abs,signed_mean_pct"]
    for ev in events:
        pair = f"{ev['pair_id']},{ev['label']}"
        for quantity, score in sorted(ev["cora"].items()):
            cora.append(f"{pair},{quantity},"
                        f"{score['phase']:.6f},{score['magnitude']:.6f},"
                        f"{score['shape']:.6f},{score['total']:.6f},"
                        f"{score['band']}")
        for quantity, peak in sorted(ev["peaks"].items()):
            peaks.append(f"{pair},{quantity},"
                         f"{peak['headband']:.9g},{peak['reference']:.9g},"
                         f"{peak['bias']:.9g}")
        for quantity, entry in sorted(ev["nrmse"].items()):
            nrmse.append(f"{pair},{quantity},"
                         f"{entry['nrms_pct']:.6f},{entry['rms_abs']:.9g},"
                         f"{entry['signed_mean_pct']:.6f}")

    bland_altman = ["scope,quantity,n,mean_bias,sd_bias,loa_low,loa_high,"
                    "mean_normalized_bias"]
    for quantity, ba in sorted(agg["bland_altman"].items()):
        bland_altman.append(
            f"all,{quantity},{len(ba['bias'])},{ba['mean_bias']:.9g},"
            f"{ba['sd_bias']:.9g},{ba['loa_low']:.9g},"
            f"{ba['loa_high']:.9g},{ba['mean_normalized_bias']:.9g}")
    for label, group in sorted(agg["by_label"].items()):
        for quantity, entry in sorted(group.items()):
            ba = entry.get("bland_altman")
            if ba is None:
                continue
            bland_altman.append(
                f"{label},{quantity},{entry['n']},"
                f"{ba['mean_bias']:.9g},{ba['sd_bias']:.9g},"
                f"{ba['loa_low']:.9g},{ba['loa_high']:.9g},"
                f"{ba['mean_normalized_bias']:.9g}")

    ttests = ["quantity,t,p,significant"]
    for quantity, entry in sorted(agg["t_tests"].items()):
        if entry is None:
            ttests.append(f"{quantity},,,")
        else:
            ttests.append(f"{quantity},{entry['t']:.6f},{entry['p']:.6g},"
                          f"{str(entry['significant']).lower()}")
    return {"cora.csv": cora, "peaks.csv": peaks, "nrmse.csv": nrmse,
            "bland_altman.csv": bland_altman, "ttests.csv": ttests}


def _write_overlays(hb_dir: Path, ref_dir: Path, out: Path, comments):
    """Per-event resultant time histories for plotting (headband vs reference)."""
    from .evaluate import QUANTITIES

    for path in sorted(hb_dir.glob("hb_ev*.csv")):
        pair_id, label, kin = _load_kinematics_csv(path)
        ref_path = ref_dir / f"ref_ev{pair_id:03d}.csv"
        if not ref_path.exists():
            continue
        _, _, ref_kin = _load_reference_kin_csv(ref_path)
        ref_clipped = _clip_reference_to(ref_kin, kin)
        for name, hb_attr, ref_attr in QUANTITIES:
            hb_series = getattr(kin, hb_attr)
            if hb_series is None:
                continue
            ref_series = getattr(ref_clipped, ref_attr)
            grid = ref_series.times
            hb_on_grid = sample_on_grid(hb_series, grid)
            hb_mag = np.linalg.norm(hb_on_grid.samples, axis=1)
            ref_mag = np.linalg.norm(ref_series.samples, axis=1)
            write_table(out / f"timehistory_ev{pair_id:03d}_{name}.csv",
                        ("t_s", "headband", "reference"), (grid, hb_mag, ref_mag),
                        comments, "%.9g")


def _write_manifest(path: Path, manifest: RunManifest):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        payload = manifest.to_dict()
        payload["sha256"] = manifest.sha256
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Argument parsing


def _require_positive(args, *names):
    for name in names:
        value = getattr(args, name)
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"--{name.replace('_', '-')} must be positive "
                              f"and finite, got {value:g}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinereco",
        description="Head kinematics reconstruction and agreement analysis.",
    )
    parser.add_argument("--version", action="version",
                        version=f"kinereco {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic session")
    p.add_argument("--profile", required=True, help="session profile JSON")
    p.add_argument("--config", required=True, help="session configuration JSON")
    p.add_argument("--out", required=True, help="output session directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("detect", help="find impacts and pair devices")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="in_dir", required=True,
                   help="session directory")
    p.add_argument("--out", required=True, help="events CSV path")
    p.add_argument("--max-offset", type=float, default=0.5,
                   help="pairing tolerance between device clocks, s")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("reconstruct", help="per-event kinematics reconstruction")
    p.add_argument("--config", required=True)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--events", required=True, help="events CSV from detect")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--alpha-method", choices=("diff", "a3g1", "both"),
                   default="both")
    p.add_argument("--scalograms", action="store_true",
                   help="export per-event scalogram grids")
    p.add_argument("--workers", type=int, default=_DEFAULT_WORKERS)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("evaluate", help="agreement metrics against the reference")
    p.add_argument("--config", required=True)
    p.add_argument("--hb", required=True, help="headband kinematics directory")
    p.add_argument("--ref", required=True, help="reference kinematics directory")
    p.add_argument("--pairs", required=True, help="events CSV from detect")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--nrmse-window", type=float, default=0.0244)
    p.add_argument("--max-shift-fraction", type=float, default=0.2)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="flatten a report into CSV tables")
    p.add_argument("--in", dest="in_path", required=True, help="report JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--hb", help="headband kinematics dir for time histories")
    p.add_argument("--ref", help="reference kinematics dir for time histories")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("KINERECO_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KinerecoError as exc:
        message = str(exc).replace("\n", " ")
        print(f"kinereco: error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
