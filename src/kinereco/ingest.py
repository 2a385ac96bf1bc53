"""Session configuration and device CSV ingestion.

On-disk formats (full reference in ``docs/formats.md``):

* Per-sensor CSV, canonical columns ``time_s, gx, gy, gz, ax, ay, az``
  with optional ``hx, hy, hz``.  Gyro columns are in deg/s, accelerometer
  columns in g; parsed recordings are SI (rad/s, m/s^2).  A high-g triple
  sampled on its own clock lives in a ``<stem>_high.csv`` companion file
  (``time_s, hx, hy, hz``).  Lines starting with ``#`` are provenance
  comments and are skipped.
* Session configuration as JSON: sensor geometry (positions in m, row-major
  sensor-to-head rotation matrices), per-channel rates, trigger / filter /
  CFC parameters with documented defaults, and the three sensor ids used by
  the algebraic reconstruction.

Vendor exports with different column names are adapted through the optional
``column_map`` block of the configuration rather than by code changes.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import TimeSeries3, validate_rotation
from .errors import ConfigError, DataError, FormatError

__all__ = [
    "G_STANDARD",
    "ChannelSpec",
    "SensorSpec",
    "TriggerConfig",
    "FilterConfig",
    "CfcConfig",
    "WindowConfig",
    "SessionConfig",
    "ImuRecording",
    "parse_imu_csv",
    "parse_reference_csv",
    "load_session_config",
    "write_imu_csv",
    "write_table",
    "write_rows",
]

log = logging.getLogger(__name__)

#: Standard gravity, used for exact g <-> m/s^2 conversion.
G_STANDARD = 9.80665
_DEG2RAD = math.pi / 180.0

#: Rates declared by the supported device families (Hz); others only warn.
DEVICE_RATES = (1125.0, 1600.0, 3200.0)

CHANNEL_KINDS = ("gyro", "accel_low", "accel_high")
_CHANNEL_COLUMNS = {
    "gyro": ("gx", "gy", "gz"),
    "accel_low": ("ax", "ay", "az"),
    "accel_high": ("hx", "hy", "hz"),
}
#: Reference event blocks span 125 ms: 31.25 ms before + 93.75 ms after trigger.
REFERENCE_BLOCK_S = 0.125


@dataclass(frozen=True)
class ChannelSpec:
    """One measurement channel of an IMU: kind, rate, physical range."""

    kind: str
    rate: float
    range_label: str = ""

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ConfigError(
                f"unknown channel kind {self.kind!r}; expected one of {CHANNEL_KINDS}"
            )
        if self.rate <= 0:
            raise ConfigError(f"channel rate must be positive, got {self.rate}")
        if self.rate not in DEVICE_RATES:
            log.warning("channel rate %g Hz is not a declared device rate %s",
                        self.rate, DEVICE_RATES)


@dataclass(frozen=True)
class SensorSpec:
    """Geometry and channel layout of one IMU in the head frame.

    ``position`` is the sensor location r_i in meters; ``orientation`` maps
    sensor-frame vectors into the head frame.
    """

    id: str
    role: str  # "headband" | "reference"
    position: np.ndarray
    orientation: np.ndarray
    channels: tuple[ChannelSpec, ...]

    def __post_init__(self):
        if self.role not in ("headband", "reference"):
            raise ConfigError(f"sensor {self.id!r}: unknown role {self.role!r}")
        pos = np.asarray(self.position, dtype=np.float64)
        if pos.shape != (3,) or not np.isfinite(pos).all():
            raise ConfigError(f"sensor {self.id!r}: position must be a finite 3-vector")
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        try:
            R = validate_rotation(self.orientation)
        except ConfigError as exc:
            raise ConfigError(f"sensor {self.id!r}: {exc}") from None
        R = R.copy()
        R.setflags(write=False)
        object.__setattr__(self, "orientation", R)
        kinds = [c.kind for c in self.channels]
        if len(set(kinds)) != len(kinds):
            raise ConfigError(f"sensor {self.id!r}: duplicate channel kinds")

    def channel(self, kind: str) -> ChannelSpec | None:
        for c in self.channels:
            if c.kind == kind:
                return c
        return None

    @property
    def has_accelerometer(self) -> bool:
        return any(c.kind in ("accel_low", "accel_high") for c in self.channels)


@dataclass(frozen=True)
class TriggerConfig:
    threshold_g: float = 3.0
    min_duration_ms: float = 3.0

    @property
    def threshold(self) -> float:
        """Threshold in m/s^2."""
        return self.threshold_g * G_STANDARD

    @property
    def min_duration(self) -> float:
        """Minimum duration in seconds."""
        return self.min_duration_ms / 1000.0


@dataclass(frozen=True)
class FilterConfig:
    end_time_ms: float = 150.0
    reference_end_time_ms: float = 90.0
    coeff_threshold: float = 0.1
    max_cutoff_hz: float = 180.0
    accel_prefilter_hz: float = 260.0


@dataclass(frozen=True)
class CfcConfig:
    trans: float = 1000.0
    ang_vel: float = 155.0


@dataclass(frozen=True)
class WindowConfig:
    pre_ms: float = 31.25
    headband_post_ms: float = 150.0
    reference_post_ms: float = 93.75

    @property
    def pre(self) -> float:
        return self.pre_ms / 1000.0

    @property
    def headband_post(self) -> float:
        return self.headband_post_ms / 1000.0

    @property
    def reference_post(self) -> float:
        return self.reference_post_ms / 1000.0


#: Minimum triangle area (m^2) spanned by the three reconstruction
#: accelerometers; below this the geometry counts as collinear.
MIN_TRIANGLE_AREA = 1e-6


@dataclass(frozen=True)
class SessionConfig:
    """Everything the pipeline needs to know about a recording session."""

    sensors: tuple[SensorSpec, ...]
    reference_point: np.ndarray
    a3g1_sensor_ids: tuple[str, str, str]
    a3g1_channel: str = "accel_high"
    a3g1_gyro: str = "averaged"  # "averaged" or a headband sensor id
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    cfc: CfcConfig = field(default_factory=CfcConfig)
    window: WindowConfig = field(default_factory=WindowConfig)
    column_map: dict | None = None
    name: str = ""

    def __post_init__(self):
        pt = np.asarray(self.reference_point, dtype=np.float64)
        if pt.shape != (3,) or not np.isfinite(pt).all():
            raise ConfigError("reference_point must be a finite 3-vector")
        pt = pt.copy()
        pt.setflags(write=False)
        object.__setattr__(self, "reference_point", pt)
        self._validate()

    def _validate(self):
        ids = [s.id for s in self.sensors]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate sensor ids in configuration")
        n_accel = sum(1 for s in self.sensors if s.has_accelerometer)
        if n_accel < 3:
            raise ConfigError(
                f"need at least 3 accelerometer-bearing sensors, got {n_accel}"
            )
        if len(self.a3g1_sensor_ids) != 3:
            raise ConfigError("a3g1_sensors must name exactly 3 sensors")
        if self.a3g1_channel not in ("accel_high", "accel_low"):
            raise ConfigError(f"unknown a3g1_channel {self.a3g1_channel!r}")
        positions = []
        for sid in self.a3g1_sensor_ids:
            spec = self.sensor(sid)
            if spec is None:
                raise ConfigError(f"a3g1 sensor {sid!r} not in sensor list")
            if spec.channel(self.a3g1_channel) is None:
                raise ConfigError(
                    f"a3g1 sensor {sid!r} has no {self.a3g1_channel!r} channel"
                )
            positions.append(spec.position)
        area = 0.5 * np.linalg.norm(
            np.cross(positions[1] - positions[0], positions[2] - positions[0])
        )
        if area <= MIN_TRIANGLE_AREA:
            raise ConfigError(
                "the three reconstruction accelerometers are collinear "
                f"(triangle area {area:.3e} m^2 <= {MIN_TRIANGLE_AREA:g} m^2)"
            )
        if self.a3g1_gyro != "averaged" and self.sensor(self.a3g1_gyro) is None:
            raise ConfigError(f"a3g1_gyro sensor {self.a3g1_gyro!r} not in sensor list")
        if not any(s.role == "headband" for s in self.sensors):
            raise ConfigError("configuration declares no headband sensors")
        if not any(s.role == "reference" for s in self.sensors):
            log.warning("configuration declares no reference sensor; "
                        "evaluation subcommands will be unavailable")

    def sensor(self, sensor_id: str) -> SensorSpec | None:
        for s in self.sensors:
            if s.id == sensor_id:
                return s
        return None

    @property
    def headband_sensors(self) -> tuple[SensorSpec, ...]:
        return tuple(s for s in self.sensors if s.role == "headband")

    @property
    def reference_sensor(self) -> SensorSpec | None:
        for s in self.sensors:
            if s.role == "reference":
                return s
        return None


@dataclass(frozen=True)
class ImuRecording:
    """Parsed channels of one IMU, in SI units on the sensor's own clocks."""

    sensor_id: str
    gyro: TimeSeries3
    accel_low: TimeSeries3 | None = None
    accel_high: TimeSeries3 | None = None

    @property
    def trigger_accel(self) -> TimeSeries3:
        """Channel the impact trigger acts on: high-g when present."""
        acc = self.accel_high if self.accel_high is not None else self.accel_low
        if acc is None:
            raise DataError(f"recording {self.sensor_id!r} has no accelerometer")
        return acc

    def channel(self, kind: str) -> TimeSeries3 | None:
        return {"gyro": self.gyro, "accel_low": self.accel_low,
                "accel_high": self.accel_high}[kind]


def _read_csv_columns(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names + float data matrix; '#' lines are comments."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    with fh:
        header = None
        while header is None:
            line = fh.readline()
            if not line:
                raise FormatError(f"{path}: no header row found")
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                header = [c.strip() for c in stripped.split(",")]
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: unparseable cell ({exc})") from None
    if data.size == 0:
        raise DataError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise FormatError(
            f"{path}: {data.shape[1]} data columns vs {len(header)} header names"
        )
    return header, data


def _column_triple(header, names, path, column_map):
    cmap = column_map or {}
    idx = []
    for canonical in names:
        actual = cmap.get(canonical, canonical)
        if actual not in header:
            raise FormatError(f"{path}: missing column {actual!r}")
        idx.append(header.index(actual))
    return idx


def _time_column(header, path, column_map):
    cmap = column_map or {}
    actual = cmap.get("time_s", "time_s")
    if actual not in header:
        raise FormatError(f"{path}: missing column {actual!r}")
    return header.index(actual)


def _validated_times(t: np.ndarray, rate: float, path) -> float:
    if np.isnan(t).any():
        row = int(np.nonzero(np.isnan(t))[0][0])
        raise DataError(f"{path}: NaN time at data row {row}")
    dt_steps = np.diff(t)
    bad = np.nonzero(dt_steps <= 0)[0]
    if bad.size:
        row = int(bad[0]) + 1
        raise DataError(f"{path}: non-monotone time at data row {row}")
    if len(t) > 1:
        measured = 1.0 / float(np.median(dt_steps))
        if abs(measured - rate) > 0.005 * rate:
            raise DataError(
                f"{path}: measured rate {measured:.2f} Hz does not match the "
                f"declared {rate:g} Hz"
            )
        drift = np.abs(t - t[0] - np.arange(len(t)) / rate)
        worst = int(np.argmax(drift))
        if drift[worst] > 0.25 / rate:
            raise DataError(
                f"{path}: non-uniform sampling at data row {worst} "
                f"(off grid by {drift[worst] * 1e3:.3f} ms)"
            )
    return float(t[0])


def _channel_series(data, t0, rate, cols, scale, path) -> TimeSeries3:
    block = data[:, cols]
    if np.isnan(block).any():
        row, col = np.argwhere(np.isnan(block))[0]
        raise DataError(f"{path}: NaN cell at data row {int(row)}")
    return TimeSeries3(t0, rate, block * scale)


def parse_imu_csv(path, spec: SensorSpec, column_map: dict | None = None) -> ImuRecording:
    """Parse one sensor's CSV export into SI channels.

    The main file carries the gyro (deg/s) plus any accelerometer triples (g)
    that share its clock; a high-g channel declared at a different rate is
    read from the ``<stem>_high.csv`` companion.  Channel rates are checked
    against the sensor's channel declaration.

    Raises
    ------
    FormatError
        Missing file or column.
    DataError
        NaN cells, non-monotone or non-uniform time columns, rate mismatch.
    """
    path = Path(path)
    header, data = _read_csv_columns(path)
    t_idx = _time_column(header, path, column_map)
    t0 = None

    gyro_spec = spec.channel("gyro")
    if gyro_spec is None:
        raise ConfigError(f"sensor {spec.id!r} declares no gyro channel")
    gcols = _column_triple(header, _CHANNEL_COLUMNS["gyro"], path, column_map)
    t0 = _validated_times(data[:, t_idx], gyro_spec.rate, path)
    gyro = _channel_series(data, t0, gyro_spec.rate, gcols, _DEG2RAD, path)

    accel_low = None
    low_spec = spec.channel("accel_low")
    if low_spec is not None:
        lcols = _column_triple(header, _CHANNEL_COLUMNS["accel_low"], path, column_map)
        if low_spec.rate != gyro_spec.rate:
            raise ConfigError(
                f"sensor {spec.id!r}: accel_low rate {low_spec.rate:g} Hz must "
                f"match the gyro rate {gyro_spec.rate:g} Hz in a shared file"
            )
        accel_low = _channel_series(data, t0, low_spec.rate, lcols, G_STANDARD, path)

    accel_high = None
    high_spec = spec.channel("accel_high")
    if high_spec is not None:
        names = _CHANNEL_COLUMNS["accel_high"]
        cmap = column_map or {}
        in_main = all(cmap.get(n, n) in header for n in names)
        if in_main and high_spec.rate == gyro_spec.rate:
            hcols = _column_triple(header, names, path, column_map)
            accel_high = _channel_series(data, t0, high_spec.rate, hcols,
                                         G_STANDARD, path)
        else:
            hpath = path.with_name(path.stem + "_high" + path.suffix)
            if not hpath.exists():
                raise FormatError(
                    f"{path}: high-g channel at {high_spec.rate:g} Hz expects "
                    f"companion file {hpath.name}"
                )
            hheader, hdata = _read_csv_columns(hpath)
            ht_idx = _time_column(hheader, hpath, column_map)
            ht0 = _validated_times(hdata[:, ht_idx], high_spec.rate, hpath)
            hcols = _column_triple(hheader, names, hpath, column_map)
            accel_high = _channel_series(hdata, ht0, high_spec.rate, hcols,
                                         G_STANDARD, hpath)

    rec = ImuRecording(spec.id, gyro, accel_low, accel_high)
    _check_overlap(rec, path)
    return rec


def _check_overlap(rec: ImuRecording, path):
    spans = [(ts.start_time, ts.end_time)
             for ts in (rec.gyro, rec.accel_low, rec.accel_high) if ts is not None]
    lo = max(s for s, _ in spans)
    hi = min(e for _, e in spans)
    if hi <= lo:
        raise DataError(f"{path}: channels do not overlap in time")


def parse_reference_csv(path, spec: SensorSpec,
                        column_map: dict | None = None) -> ImuRecording:
    """Parse one reference-device event block (125 ms at the device rate).

    Same contract as :func:`parse_imu_csv`, plus the block-geometry check:
    the file must span 125 ms (31.25 ms before + 93.75 ms after the trigger)
    within one sample period.
    """
    rec = parse_imu_csv(path, spec, column_map)
    span = (len(rec.gyro) - 1) / rec.gyro.sample_rate
    tol = 1.0001 / rec.gyro.sample_rate
    if span < REFERENCE_BLOCK_S - tol:
        raise DataError(
            f"{path}: short event block ({span * 1e3:.2f} ms < "
            f"{REFERENCE_BLOCK_S * 1e3:.2f} ms)"
        )
    if span > REFERENCE_BLOCK_S + tol:
        raise DataError(
            f"{path}: long event block ({span * 1e3:.2f} ms > "
            f"{REFERENCE_BLOCK_S * 1e3:.2f} ms)"
        )
    return rec


def _channels_from_json(obj, sensor_id) -> tuple[ChannelSpec, ...]:
    channels = []
    for kind, entry in obj.items():
        channels.append(ChannelSpec(
            kind=kind,
            rate=float(entry["rate_hz"]),
            range_label=str(entry.get("range", "")),
        ))
    if not channels:
        raise ConfigError(f"sensor {sensor_id!r} declares no channels")
    return tuple(channels)


def load_session_config(path) -> SessionConfig:
    """Load and validate a session configuration JSON file.

    Absent trigger / filter / cfc / window blocks take the documented
    defaults.  Raises :class:`ConfigError` on non-orthonormal rotations,
    collinear reconstruction geometry, or missing sensors.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None

    try:
        sensors = []
        for s in raw["sensors"]:
            R = np.asarray(s["orientation_row_major"], dtype=np.float64).reshape(3, 3)
            sensors.append(SensorSpec(
                id=str(s["id"]),
                role=str(s.get("role", "headband")),
                position=np.asarray(s["position_m"], dtype=np.float64),
                orientation=R,
                channels=_channels_from_json(s["channels"], s["id"]),
            ))
        config = SessionConfig(
            sensors=tuple(sensors),
            reference_point=np.asarray(raw["reference_point_m"], dtype=np.float64),
            a3g1_sensor_ids=tuple(str(x) for x in raw["a3g1_sensors"]),
            a3g1_channel=str(raw.get("a3g1_channel", "accel_high")),
            a3g1_gyro=str(raw.get("a3g1_gyro", "averaged")),
            trigger=TriggerConfig(**raw.get("trigger", {})),
            filter=FilterConfig(**raw.get("filter", {})),
            cfc=CfcConfig(**raw.get("cfc", {})),
            window=WindowConfig(**raw.get("window", {})),
            column_map=raw.get("column_map"),
            name=str(raw.get("name", path.stem)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed configuration ({exc!r})") from None
    return config


def write_imu_csv(path, rec: ImuRecording, header_comments: tuple[str, ...] = ()):
    """Write a recording back to the canonical CSV layout (inverse of parse).

    Channels sharing the gyro clock go into the main file; a high-g channel
    on its own clock goes into the ``<stem>_high.csv`` companion.  SI values
    are converted back to deg/s and g.
    """
    path = Path(path)
    cols = [("time_s", None)]
    arrays = [rec.gyro.times]
    for name, series, scale in (("g", rec.gyro, 1.0 / _DEG2RAD),
                                ("a", rec.accel_low, 1.0 / G_STANDARD)):
        if series is None:
            continue
        if abs(series.start_time - rec.gyro.start_time) > 1e-12 or \
                series.sample_rate != rec.gyro.sample_rate:
            raise DataError("accel_low must share the gyro clock in one file")
        for k, ax in enumerate("xyz"):
            cols.append((f"{name}{ax}", None))
            arrays.append(series.samples[:, k] * scale)

    high_separate = None
    if rec.accel_high is not None:
        if (rec.accel_high.sample_rate == rec.gyro.sample_rate
                and abs(rec.accel_high.start_time - rec.gyro.start_time) <= 1e-12
                and len(rec.accel_high) == len(rec.gyro)):
            for k, ax in enumerate("xyz"):
                cols.append((f"h{ax}", None))
                arrays.append(rec.accel_high.samples[:, k] / G_STANDARD)
        else:
            high_separate = rec.accel_high

    write_table(path, [c for c, _ in cols], arrays, header_comments, "%.14g")
    if high_separate is not None:
        hpath = path.with_name(path.stem + "_high" + path.suffix)
        harrays = [high_separate.times] + [
            high_separate.samples[:, k] / G_STANDARD for k in range(3)
        ]
        write_table(hpath, ["time_s", "hx", "hy", "hz"], harrays, header_comments,
                    "%.14g")
    return path


def write_table(path, names, columns, comments, fmt: str):
    """Write a CSV table: ``# comment`` lines, the header, then one row per
    sample of the equal-length ``columns``, every cell formatted with ``fmt``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(names) + "\n")
        # Stacked one chunk at a time: the whole table is never copied.
        for lo in range(0, len(columns[0]), _ROWS_PER_CHUNK):
            write_rows(fh, np.column_stack(
                [c[lo:lo + _ROWS_PER_CHUNK] for c in columns]), fmt)


#: Rows formatted per ``%`` operation by :func:`write_rows`.  The speed is
#: flat from 256 to 4096 rows; fewer rows hold fewer temporary floats.
_ROWS_PER_CHUNK = 512


def write_rows(fh, data: np.ndarray, fmt: str):
    """Write a 2-D array as comma-separated lines, each cell as ``fmt % x``.

    Same bytes as ``np.savetxt(fh, data, delimiter=",", fmt=fmt)``, but one
    ``%`` operation formats a whole chunk of rows instead of a single row.
    """
    n_rows, n_cols = data.shape
    row = ",".join([fmt] * n_cols) + "\n"
    for lo in range(0, n_rows, _ROWS_PER_CHUNK):
        chunk = data[lo:lo + _ROWS_PER_CHUNK]
        fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
