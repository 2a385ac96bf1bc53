"""Batch command-line front-end.

Subcommands::

    kinereco simulate    --profile P --config C --out DIR [--seed N]
    kinereco detect      --config C --in DIR --out events.csv
    kinereco reconstruct --config C --in DIR --events events.csv --out DIR
                         [--alpha-method diff|a3g1|both] [--scalograms]
    kinereco evaluate    --config C --hb DIR --ref DIR --pairs events.csv
                         --out report.json
    kinereco report      --in report.json --out DIR [--hb DIR --ref DIR]

This module only parses arguments and reads and writes files; the session
pipeline itself is :mod:`kinereco.pipeline`, the library entry point for
running it on in-memory data.

Every run builds a manifest (config, inputs, parameters, toolkit version,
seed) whose SHA-256 hash is stamped into each output file, making outputs
traceable and reruns byte-identical.  Errors, usage errors included, exit 1
with one machine-parsable line on stderr.  Set ``KINERECO_LOG``
(debug/info/warning, in any case; warning when unset or empty) to control
verbosity.  File formats are documented in ``docs/formats.md``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import TimeSeries1, TimeSeries3, window_span
from .errors import ConfigError, DataError, FormatError, KinerecoError
from .evaluate import DEFAULT_MAX_SHIFT_FRACTION, DEFAULT_NRMSE_WINDOW_S, \
    EventComparison, build_agreement_report
from .ingest import CHANNEL_KINDS, ImuRecording, SessionConfig, \
    check_number, finite_block, load_session_config, output_dir, \
    parse_imu_csv, parse_reference_csv, read_json, read_sensor_table, \
    read_table, reference_block, sensor_reads, session_csv, table_clock, \
    write_json, write_table
from .kinematics import KinematicsSet, ReferenceKinematics
from .pipeline import PairRow, detect_channels, detect_session, \
    overlay_resultants, reconstruct_channels, reconstruct_pair, \
    reconstruct_windows, report_tables
from .synth import load_profile, simulate_session, write_simulated_session
from .twoproc import read_in_two, run_in_two
from .wavelet import cwt

log = logging.getLogger(__name__)


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


def _load_session(config: SessionConfig, in_dir: Path,
                  channels: dict[str, tuple[str, ...]], windows=None,
                  ) -> tuple[dict[str, ImuRecording], list[ImuRecording]]:
    """The recordings of :func:`_load_headband` and the reference blocks of
    :func:`_load_reference_blocks`.  Every file the two open is read first,
    one ``read_sensor_table`` job per file, costed by its byte size, in two
    processes (``read_in_two``); the recordings are then built here in the
    order of the two loops, each table handed over as its file's read, so
    the first error is the one they raise."""
    reads = [(file, kinds, rate, channels[spec.id], config.column_map, windows)
             for spec in config.headband_sensors
             for file, kinds, rate in sensor_reads(
                 in_dir / session_csv(spec.id), spec, channels[spec.id])]
    try:
        reads += [(file, kinds, rate, kinds, config.column_map, None)
                  for path in _reference_blocks(config, in_dir)
                  for file, kinds, rate in sensor_reads(
                      path, config.reference_sensor)]
    except OSError:
        pass  # _load_reference_blocks raises it in its turn
    tables = dict(zip([args[0] for args in reads], read_in_two([
        (_byte_size(args[0]), functools.partial(read_sensor_table, *args))
        for args in reads])))

    def read(file, *_):
        table = tables.pop(file)
        if isinstance(table, Exception):
            raise table
        return table

    return (_load_headband(config, in_dir, channels, windows, read),
            _load_reference_blocks(config, in_dir, read))


def _byte_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0  # its read fails in its turn


def _load_headband(config: SessionConfig, in_dir: Path,
                   channels: dict[str, tuple[str, ...]], windows=None,
                   read=None) -> dict[str, ImuRecording]:
    """Each headband sensor's ``channels``; only the files holding them are
    opened, and only the rows of ``windows`` parsed when it is given (see
    ``parse_imu_csv``, which takes ``read``)."""
    recs = {}
    for spec in config.headband_sensors:
        path = in_dir / session_csv(spec.id)
        if not path.exists():
            raise FormatError(f"missing headband file {path}")
        recs[spec.id] = parse_imu_csv(path, spec, config.column_map,
                                      channels[spec.id], windows, read)
    return recs


def _load_reference_blocks(config: SessionConfig, in_dir: Path,
                           read=None) -> list[ImuRecording]:
    return [parse_reference_csv(path, config.reference_sensor,
                                config.column_map, config.window, read)
            for path in _reference_blocks(config, in_dir)]


def _reference_blocks(config: SessionConfig, in_dir: Path) -> list[Path]:
    """The main file of each block of the reference sensor, not its
    companion, in block-number order."""
    spec = config.reference_sensor
    if spec is None:
        return []
    blocks = sorted((block[0], path) for path in in_dir.iterdir()
                    if (block := reference_block(spec, path.name))
                    and block[1] == path.name)
    return [path for _, path in blocks]


def _text_rows(path: Path, names: tuple[str, ...], kind: str, parse) -> list:
    """``parse(*cells)`` of each row of the text table at ``path``, whose
    header must be ``names`` and whose rows must have a cell per name; a
    ``ValueError`` from ``parse`` becomes a DataError naming the row."""
    _, header, rows = read_table(path, numeric=False)
    if header != list(names):
        raise FormatError(f"{path}: expected {','.join(names)!r} header")
    out = []
    for cells in rows:
        try:
            if len(cells) != len(names):
                raise ValueError(f"{len(cells)} cells, expected {len(names)}")
            out.append(parse(*cells))
        except ValueError as exc:
            raise DataError(f"{path}: malformed {kind} row "
                            f"{','.join(cells)!r} ({exc})") from None
    return out


def _finite(cell: str) -> float:
    value = float(cell)
    if not np.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    return value


def _load_labels(in_dir: Path) -> list[tuple[float, str]]:
    path = in_dir / "labels.csv"
    if not path.exists():
        return []
    return _text_rows(path, ("time_s", "label"), "label",
                      lambda t, label: (_finite(t), label.strip()))


# ---------------------------------------------------------------------------
# events.csv


_EVENT_COLUMNS = ("pair_id", "source", "t0_s", "label", "offset_s")


def _write_events_csv(path: Path, pairs: list[PairRow], unpaired,
                      manifest: RunManifest):
    """Two rows per pair, headband then reference, then the unpaired events;
    only a pair's headband row carries its offset."""
    rows = []
    for row in pairs:
        rows.append((str(row.pair_id), "headband", row.t0_headband, row.label,
                     f"{row.offset:.9f}"))
        rows.append((str(row.pair_id), "reference", row.t0_reference,
                     row.label, ""))
    rows += [("", source, t0, label, "") for source, t0, label in unpaired]
    ids, sources, times, labels, offsets = list(zip(*rows)) or [()] * 5
    write_table(path, _EVENT_COLUMNS,
                (ids, sources, np.array(times, dtype=np.float64), labels,
                 offsets), manifest.comments(), "%.9f")


def _read_events_csv(path: Path) -> list[PairRow]:
    """The pairs of an events table: one headband and one reference row per
    ``pair_id``, the pair's label taken from its first row."""
    pairs: dict[int, dict] = {}

    def event(pair_id, source, t0, label, offset):
        t0 = _finite(t0)
        offset = _finite(offset) if offset else None
        if not pair_id:
            return
        if source not in ("headband", "reference"):
            raise ValueError(f"unknown source {source!r}")
        entry = pairs.setdefault(int(pair_id), {"label": label})
        if source in entry:
            raise ValueError(f"a second {source} row for pair {pair_id}")
        entry[source] = t0
        if source == "headband" and offset is not None:
            entry["offset"] = offset

    _text_rows(path, _EVENT_COLUMNS, "event", event)
    out = []
    for pid in sorted(pairs):
        entry = pairs[pid]
        if "headband" not in entry or "reference" not in entry:
            raise DataError(f"{path}: pair {pid} lacks one of its two rows")
        out.append(PairRow(
            pair_id=pid, label=entry["label"],
            t0_headband=entry["headband"], t0_reference=entry["reference"],
            offset=entry.get("offset", entry["headband"] - entry["reference"]),
        ))
    return out


# ---------------------------------------------------------------------------
# Kinematics CSVs


#: Column prefix and attribute of each x/y/z series of the headband and the
#: reference kinematics tables, in column order.
_HB_SERIES = (("omega_h", "omega_h"), ("omega_hf", "omega_hf"),
              ("alpha_diff", "alpha_diff"), ("alpha_a3g1", "alpha_a3g1"),
              ("q", "q"), ("a_point", "a_ref_point"))
_REF_SERIES = (("omega", "omega"), ("alpha", "alpha"), ("a_point", "a_point"))


def _write_kinematics_csv(path: Path, kin, layout, comments):
    """``t_s``, the x/y/z columns of each series ``kin`` carries, then the
    A3G1 ``residual`` if there is one."""
    series = [(prefix, getattr(kin, attr)) for prefix, attr in layout]
    cols = [("t_s", series[0][1].times)]
    for prefix, ts in series:
        if ts is not None:
            cols += [(f"{prefix}_{ax}", ts.samples[:, k])
                     for k, ax in enumerate("xyz")]
    residual = getattr(kin, "a3g1_residual", None)
    if residual is not None:
        cols.append(("residual", residual.values))
    names, columns = zip(*cols)
    write_table(path, names, columns, comments, "%.12g")


def _read_kinematics_csv(path: Path, pair_id: int, layout, required: int,
                         kind: str):
    """``(header comments, series by attribute, residual)`` of the
    kinematics table of pair ``pair_id``, whose ``pair_id`` comment must
    name that pair; the first ``required`` series of ``layout`` must be
    present, and every series with all of its x/y/z columns or none."""
    meta, header, data = read_table(path)
    if "t_s" not in header:
        raise FormatError(f"{path}: missing column 't_s'")
    if len(data) < 2:
        raise DataError(f"{path}: kinematics tables need at least 2 rows, "
                        f"got {len(data)}")
    start, rate = table_clock(data[:, header.index("t_s")], path, "t_s")

    def columns(names):
        return finite_block(data, None, [header.index(n) for n in names], path)

    series = {}
    for prefix, attr in layout:
        names = [f"{prefix}_{ax}" for ax in "xyz"]
        missing = [n for n in names if n not in header]
        if 0 < len(missing) < 3:
            raise FormatError(f"{path}: missing column {missing[0]!r}")
        series[attr] = None if missing else \
            TimeSeries3(start, rate, columns(names))
    if any(series[attr] is None for _, attr in layout[:required]):
        raise FormatError(f"{path}: not a {kind} kinematics file")
    residual = None
    if "residual" in header:
        residual = TimeSeries1(start, rate, columns(["residual"])[:, 0])
    try:
        named = int(meta["pair_id"])
    except (KeyError, ValueError):
        raise FormatError(f"{path}: missing or bad 'pair_id' header comment") \
            from None
    if named != pair_id:
        raise FormatError(f"{path}: 'pair_id' header comment {named} does not "
                          f"match the file name")
    return meta, series, residual


def _load_comparisons(hb_dir: Path, ref_dir: Path,
                      pairs: dict[int, str]) -> list[EventComparison]:
    """The comparison of each pair in ``pairs`` (pair id to label): its
    ``hb_ev###.csv`` with its ``ref_ev###.csv``.  A pair without a reference
    file is skipped with a warning."""
    events = []
    for pair_id, label in sorted(pairs.items()):
        path = hb_dir / f"hb_ev{pair_id:03d}.csv"
        meta, series, residual = _read_kinematics_csv(path, pair_id,
                                                      _HB_SERIES, 2, "headband")
        try:
            f0 = float(meta.get("f0_hz", "nan"))
        except ValueError:
            raise FormatError(f"{path}: bad 'f0_hz' header comment") from None
        kin = KinematicsSet(**series, f0=f0, a3g1_residual=residual)
        ref_path = ref_dir / f"ref_ev{pair_id:03d}.csv"
        if not ref_path.exists():
            log.warning("no reference kinematics for pair %d; skipping", pair_id)
            continue
        _, ref_series, _ = _read_kinematics_csv(ref_path, pair_id, _REF_SERIES,
                                                3, "reference")
        events.append(EventComparison(pair_id, label, kin,
                                      ReferenceKinematics(**ref_series)))
    return events


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    check_number(args.seed, "--seed", ConfigError, ">= 0")
    config = load_session_config(args.config)
    profile = load_profile(args.profile)
    manifest = RunManifest(
        subcommand="simulate", config_path=str(args.config),
        inputs=(str(args.profile),), params={}, seed=args.seed,
    )
    sim = simulate_session(profile, config, seed=args.seed)
    out = Path(args.out)
    write_simulated_session(sim, out, manifest.comments())
    _write_manifest(out / "manifest.json", manifest)
    log.info("simulate: wrote the session to %s", out)
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
    hb_recs, ref_blocks = _load_session(config, in_dir,
                                        detect_channels(config))
    pairs, unpaired = detect_session(config, hb_recs, ref_blocks,
                                     args.max_offset, _load_labels(in_dir))
    out = Path(args.out)
    output_dir(out.parent)
    _write_events_csv(out, pairs, unpaired, manifest)
    log.info("detect: %d pairs, %d unpaired -> %s", len(pairs), len(unpaired),
             out)
    return 0


def _cmd_reconstruct(args) -> int:
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
    windows = reconstruct_windows(config, pairs)
    hb_recs, ref_blocks = _load_session(
        config, in_dir, reconstruct_channels(config, args.alpha_method),
        windows)
    out = Path(args.out)
    output_dir(out)
    # Every pair runs, and the error of the earliest that failed is raised.
    # Pairs run before the fork until one has returned: Python shows a
    # warning once per process, and the scipy modules a pair imports and
    # the scalogram filter banks it builds load once, so the child inherits
    # them.
    run_in_two([(_pair_cost(hb_recs, window),
                 functools.partial(_reconstruct_and_write, config, hb_recs,
                                   ref_blocks, row, args, manifest, out))
                for row, window in zip(pairs, windows)], before_fork=1)
    _write_manifest(out / "manifest.json", manifest)
    log.info("reconstruct: %d events -> %s", len(pairs), out)
    return 0


def _pair_cost(hb_recs: dict[str, ImuRecording], window) -> int:
    """The samples of a pair's window in every headband channel it reads:
    the work of the pair, known before any of it runs.  ``--scalograms``
    adds work in proportion to these samples, alike for every pair, so it
    leaves the split as it is."""
    cost = 0
    for rec in hb_recs.values():
        for kind in CHANNEL_KINDS:
            ts = rec.channel(kind)
            if ts is not None:
                first, last = window_span(ts.start_time, ts.sample_rate,
                                          *window)
                cost += last - first + 1
    return cost


def _reconstruct_and_write(config, hb_recs, ref_blocks, row: PairRow, args,
                           manifest: RunManifest, out: Path):
    """Reconstruct one pair and write its kinematics files, and its
    scalograms with ``--scalograms``."""
    kin, ref_kin = reconstruct_pair(config, hb_recs, ref_blocks, row,
                                    args.alpha_method)
    tags = manifest.comments() + (f"pair_id={row.pair_id}",
                                  f"label={row.label}")
    _write_kinematics_csv(out / f"hb_ev{row.pair_id:03d}.csv", kin,
                          _HB_SERIES, tags + (f"f0_hz={kin.f0:.9g}",))
    if ref_kin is not None:
        _write_kinematics_csv(
            out / f"ref_ev{row.pair_id:03d}.csv", ref_kin, _REF_SERIES,
            tags + (f"residual_lag_s={row.residual_lag:.9g}",))
    if args.scalograms:
        _write_scalograms(out / f"scalogram_ev{row.pair_id:03d}.csv",
                          kin.omega_h, manifest)
        if ref_kin is not None:
            _write_scalograms(out / f"scalogram_ref_ev{row.pair_id:03d}.csv",
                              ref_kin.omega, manifest)


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
    pairs = {row.pair_id: row.label for row in _read_events_csv(Path(args.pairs))}
    events = _load_comparisons(Path(args.hb), Path(args.ref), pairs)
    if not events:
        raise DataError("no overlapping hb/ref kinematics files found")
    report = build_agreement_report(
        events, nrmse_window=args.nrmse_window,
        max_shift_fraction=args.max_shift_fraction,
    )
    report["manifest"] = manifest.to_dict()
    report["manifest_sha256"] = manifest.sha256
    out = Path(args.out)
    output_dir(out.parent)
    write_json(out, report)
    log.info("evaluate: %d events -> %s", len(events), out)
    return 0


def _cmd_report(args) -> int:
    if bool(args.hb) != bool(args.ref):
        raise ConfigError("report: --hb and --ref go together (the time "
                          "histories need both kinematics directories)")
    in_path = Path(args.in_path)
    report = read_json(in_path)
    for key in ("events", "aggregate"):
        if not isinstance(report, dict) or key not in report:
            raise FormatError(f"{in_path}: not an agreement report "
                              f"(missing key {key!r})")
    # Every table and time history is rendered before any file is opened, so
    # a malformed input leaves no partial output behind.
    try:
        tables = report_tables(report["events"], report["aggregate"])
    except FormatError as exc:
        raise FormatError(f"{in_path}: {exc}") from None
    pairs = {ev["pair_id"]: ev["label"] for ev in report["events"]}
    overlays = []
    if args.hb and args.ref:
        for ev in _load_comparisons(Path(args.hb), Path(args.ref), pairs):
            for name, hb_mag, ref_mag in overlay_resultants(ev.headband,
                                                            ev.reference):
                overlays.append((f"timehistory_ev{ev.pair_id:03d}_{name}.csv",
                                 hb_mag, ref_mag))
    out = Path(args.out)
    output_dir(out)
    comments = (f"manifest_sha256={report.get('manifest_sha256', 'unknown')}",)
    for name, (names, columns) in tables.items():
        write_table(out / name, names, columns, comments, "%s")
    for name, hb_mag, ref_mag in overlays:
        write_table(out / name, ("t_s", "headband", "reference"),
                    (ref_mag.times, hb_mag.values, ref_mag.values), comments,
                    "%.9g")
    log.info("report: tables written to %s", out)
    return 0


def _write_manifest(path: Path, manifest: RunManifest):
    write_json(path, {**manifest.to_dict(), "sha256": manifest.sha256})


# ---------------------------------------------------------------------------
# Argument parsing


def _require_positive(args, *names):
    for name in names:
        check_number(getattr(args, name), f"--{name.replace('_', '-')}",
                     ConfigError, "> 0")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it takes the one-line form;
    ``--help`` and ``--version`` still exit 0."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("evaluate", help="agreement metrics against the reference")
    p.add_argument("--config", required=True)
    p.add_argument("--hb", required=True, help="headband kinematics directory")
    p.add_argument("--ref", required=True, help="reference kinematics directory")
    p.add_argument("--pairs", required=True, help="events CSV from detect")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--nrmse-window", type=float, default=DEFAULT_NRMSE_WINDOW_S)
    p.add_argument("--max-shift-fraction", type=float, default=DEFAULT_MAX_SHIFT_FRACTION)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="flatten a report into CSV tables")
    p.add_argument("--in", dest="in_path", required=True, help="report JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--hb", help="headband kinematics dir for time histories")
    p.add_argument("--ref", help="reference kinematics dir for time histories")
    p.set_defaults(func=_cmd_report)
    return parser


#: The values ``KINERECO_LOG`` takes, in any case; unset or empty is warning.
_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING}


def main(argv=None) -> int:
    try:
        level = os.environ.get("KINERECO_LOG") or "warning"
        if level.lower() not in _LOG_LEVELS:
            raise ConfigError(f"KINERECO_LOG must be debug, info or warning, "
                              f"got {level!r}")
        logging.basicConfig(level=_LOG_LEVELS[level.lower()],
                            format="%(levelname)s %(name)s: %(message)s")
        args = _build_parser().parse_args(argv)
        # Finite numbers can still be too large for the computation: an
        # overflow or an invalid operation ends the command, never a warning.
        with np.errstate(over="raise", invalid="raise"):
            try:
                return args.func(args)
            except (FloatingPointError, OverflowError) as exc:
                raise DataError(f"{args.subcommand}: the input numbers "
                                f"overflow the computation ({exc})") from None
            except OSError as exc:
                # Opening an input and writing an output name their file;
                # this is any other failure of the system.
                raise FormatError(f"I/O error: {exc}") from None
    except KinerecoError as exc:
        message = str(exc).replace("\n", " ")
        print(f"kinereco: error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
