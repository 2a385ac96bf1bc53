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
import sys
import warnings
from dataclasses import dataclass, field, fields
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
    "check_number",
    "check_object",
    "check_vector",
    "read_json",
    "read_table",
    "table_clock",
    "write_imu_csv",
    "write_json",
    "write_table",
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
        rate = check_number(self.rate, f"channels.{self.kind}.rate_hz",
                            ConfigError, "> 0")
        object.__setattr__(self, "rate", float(rate))
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
        object.__setattr__(self, "position", check_vector(
            self.position, 3, f"sensor {self.id!r}: position_m"))
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
        if "gyro" not in kinds:
            raise ConfigError(f"sensor {self.id!r} declares no gyro channel")

    def channel(self, kind: str) -> ChannelSpec | None:
        for c in self.channels:
            if c.kind == kind:
                return c
        return None

    @property
    def has_accelerometer(self) -> bool:
        return any(c.kind in ("accel_low", "accel_high") for c in self.channels)


def check_number(value, what: str, error=ConfigError, sign: str = ""):
    """``value``, when it is a finite number within its sign bound.

    A finite number is an ``int`` or a ``float``, not a ``bool`` or a
    ``str``, with ``|value| <= sys.float_info.max``; ``sign`` is ``""`` for
    any sign, ``">= 0"`` or ``"> 0"``.  Otherwise ``error`` is raised with
    ``"{what} must be a finite number[ sign], got {value!r}"``.  The value is
    returned as given, so an int stays an int.
    """
    # False for NaN, and for ints too large for a float.
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (not sign or value > 0 or (sign == ">= 0" and value == 0))):
        bound = f" {sign}" if sign else ""
        raise error(f"{what} must be a finite number{bound}, got {value!r}")
    return value


def check_object(value, what: str, error=ConfigError) -> dict:
    """``value``, when it is a JSON object (a ``dict``); otherwise ``error``
    is raised with ``"{what} must be an object, got <type>"``."""
    if not isinstance(value, dict):
        raise error(f"{what} must be an object, got {type(value).__name__}")
    return value


def check_vector(value, n: int, what: str, error=ConfigError) -> np.ndarray:
    """A read-only float64 copy of ``value``, when it is a list, tuple or
    1-D array of exactly ``n`` numbers that each pass :func:`check_number`;
    otherwise ``error`` names ``what``, or ``what[i]`` for a bad number."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    if not (isinstance(items, (list, tuple)) and len(items) == n):
        raise error(f"{what} must be a list of {n} numbers, got {value!r}")
    for i, x in enumerate(items):
        check_number(x, f"{what}[{i}]", error)
    out = np.array(items, dtype=np.float64)
    out.setflags(write=False)
    return out


class _NumberBlock:
    """Base of the config blocks that hold only numbers.  Each field must
    pass :func:`check_number` above 0, or at least 0 when named in
    ``_non_negative``; the error names ``block.field``, the block being the
    class name without ``Config``, in lower case."""

    _non_negative = ()

    def __post_init__(self):
        block = type(self).__name__.removesuffix("Config").lower()
        for f in fields(self):
            check_number(getattr(self, f.name), f"{block}.{f.name}", ConfigError,
                         ">= 0" if f.name in self._non_negative else "> 0")


@dataclass(frozen=True)
class TriggerConfig(_NumberBlock):
    threshold_g: float = 3.0
    min_duration_ms: float = 3.0
    _non_negative = ("min_duration_ms",)

    @property
    def threshold(self) -> float:
        """Threshold in m/s^2."""
        return self.threshold_g * G_STANDARD

    @property
    def min_duration(self) -> float:
        """Minimum duration in seconds."""
        return self.min_duration_ms / 1000.0


@dataclass(frozen=True)
class FilterConfig(_NumberBlock):
    end_time_ms: float = 150.0
    reference_end_time_ms: float = 90.0
    coeff_threshold: float = 0.1
    max_cutoff_hz: float = 180.0
    accel_prefilter_hz: float = 260.0


@dataclass(frozen=True)
class CfcConfig(_NumberBlock):
    trans: float = 1000.0
    ang_vel: float = 155.0


@dataclass(frozen=True)
class WindowConfig(_NumberBlock):
    pre_ms: float = 31.25
    headband_post_ms: float = 150.0
    reference_post_ms: float = 93.75
    _non_negative = ("pre_ms",)

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
        object.__setattr__(self, "reference_point", check_vector(
            self.reference_point, 3, "reference_point_m"))
        if self.column_map is not None:
            cmap = check_object(self.column_map, "column_map")
            for name, actual in cmap.items():
                if not isinstance(actual, str):
                    raise ConfigError(f"column_map.{name} must be a string, "
                                      f"got {actual!r}")
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
    """Parsed channels of one IMU, in SI units on the sensor's own clocks.

    A channel is None when the sensor does not declare it or when it was not
    requested from :func:`parse_imu_csv`.
    """

    sensor_id: str
    gyro: TimeSeries3 | None
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

    def map(self, fn) -> "ImuRecording":
        """The recording with each channel ``ts`` present replaced by
        ``fn(kind, ts)``; absent channels stay None."""
        return ImuRecording(self.sensor_id, *(
            None if (ts := self.channel(kind)) is None else fn(kind, ts)
            for kind in CHANNEL_KINDS))


def read_table(path, numeric: bool = True):
    """``(meta, header, rows)`` of the CSV table at ``path``.

    ``meta`` holds the ``# key=value`` comments before the header row, and
    ``header`` the stripped names of that row.  After it, ``#`` lines and
    blank lines are skipped.  A numeric table's rows are one float matrix
    from ``np.loadtxt``, with a column per header name; a text table's rows
    are lists of the cells of each stripped line.

    Raises
    ------
    FormatError
        The file cannot be opened, is not UTF-8, or has no header row, or a
        numeric table's column count differs from the header's.
    DataError
        A numeric table has an unparseable cell, a short or long row, or no
        data rows.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    meta = {}
    with fh:
        header = None
        try:
            while header is None:
                line = fh.readline()
                if not line:
                    raise FormatError(f"{path}: no header row found")
                stripped = line.strip()
                if stripped.startswith("#"):
                    key, eq, value = stripped[1:].partition("=")
                    if eq:
                        meta[key.strip()] = value.strip()
                elif stripped:
                    header = [c.strip() for c in stripped.split(",")]
            if not numeric:
                rows = [ln.split(",") for ln in map(str.strip, fh)
                        if ln and not ln.startswith("#")]
                return meta, header, rows
            with warnings.catch_warnings():
                # An empty table is reported below as a DataError.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
        except ValueError as exc:
            raise DataError(f"{path}: unparseable cell ({exc})") from None
    if rows.size == 0:
        raise DataError(f"{path}: no data rows")
    if rows.shape[1] != len(header):
        raise FormatError(
            f"{path}: {rows.shape[1]} data columns vs {len(header)} header names"
        )
    return meta, header, rows


def _column_indices(header, names, path, column_map):
    cmap = column_map or {}
    idx = []
    for canonical in names:
        actual = cmap.get(canonical, canonical)
        if actual not in header:
            raise FormatError(f"{path}: missing column {actual!r}")
        idx.append(header.index(actual))
    return idx


def table_clock(t: np.ndarray, path, name: str,
                rate: float | None = None) -> tuple[float, float]:
    """``(start, rate)`` of the time column ``name`` of the table at ``path``.

    The times must be finite and strictly increasing.  The rate is the
    declared ``rate``, which the median step must match within 0.5 %, or
    else the reciprocal of the median step.  Every time must then lie
    within a quarter sample of ``start + i / rate``.  Each failure is a
    :class:`DataError` naming the file and the data row.
    """
    bad = np.nonzero(~np.isfinite(t))[0]
    if bad.size:
        raise DataError(f"{path}: column {name!r} is not finite at data row "
                        f"{int(bad[0])}")
    steps = np.diff(t)
    bad = np.nonzero(steps <= 0)[0]
    if bad.size:
        raise DataError(f"{path}: column {name!r} does not increase at data "
                        f"row {int(bad[0]) + 1}")
    if steps.size:
        measured = 1.0 / float(np.median(steps))
        if rate is None:
            rate = measured
        elif abs(measured - rate) > 0.005 * rate:
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
    elif rate is None:
        raise DataError(f"{path}: column {name!r} needs 2 rows to measure "
                        f"its rate")
    return float(t[0]), rate


def _channel_series(data, t0, rate, cols, scale, path) -> TimeSeries3:
    block = data[:, cols]
    if np.isnan(block).any():
        row, col = np.argwhere(np.isnan(block))[0]
        raise DataError(f"{path}: NaN cell at data row {int(row)}")
    return TimeSeries3(t0, rate, block * scale)


def parse_imu_csv(path, spec: SensorSpec, column_map: dict | None = None,
                  channels=None) -> ImuRecording:
    """Parse one sensor's CSV export into SI channels.

    The main file carries the gyro (deg/s) plus any accelerometer triples (g)
    that share its clock; a high-g channel declared at a different rate is
    read from the ``<stem>_high.csv`` companion.  Channel rates are checked
    against the sensor's channel declaration.

    ``channels`` names the kinds to return; ``None`` means every declared
    channel.  Kinds not requested are ``None`` in the recording, and a file
    holding none of the requested kinds is never opened.  A file that is
    opened is parsed and validated whole, whatever is requested from it.

    Raises
    ------
    ConfigError
        A requested kind the sensor does not declare, or an ``accel_low``
        rate other than the gyro's.
    FormatError
        Missing file or column.
    DataError
        NaN cells, non-monotone or non-uniform time columns, rate mismatch.
    """
    path = Path(path)
    declared = [c.kind for c in spec.channels]
    wanted = set(declared if channels is None else channels)
    undeclared = sorted(wanted - set(declared))
    if undeclared:
        raise ConfigError(f"sensor {spec.id!r}: requested channels {undeclared} "
                          f"are not declared (declared: {', '.join(declared)})")
    gyro_spec = spec.channel("gyro")
    low_spec = spec.channel("accel_low")
    if low_spec is not None and low_spec.rate != gyro_spec.rate:
        raise ConfigError(
            f"sensor {spec.id!r}: accel_low rate {low_spec.rate:g} Hz must "
            f"match the gyro rate {gyro_spec.rate:g} Hz in a shared file"
        )
    high_spec = spec.channel("accel_high")

    # The main file holds the gyro clock's channels; a high-g channel on
    # that clock is looked for there before the companion.
    series = {}
    if wanted & {"gyro", "accel_low"} or (
            "accel_high" in wanted and high_spec.rate == gyro_spec.rate):
        series = _parse_main_file(path, spec, column_map)
    if "accel_high" in wanted and series.get("accel_high") is None:
        series["accel_high"] = _parse_companion_file(path, high_spec, column_map)

    rec = ImuRecording(spec.id, *(series[k] if k in wanted else None
                                  for k in CHANNEL_KINDS))
    _check_overlap(rec, path)
    return rec


def _parse_main_file(path: Path, spec: SensorSpec,
                     column_map) -> dict[str, TimeSeries3 | None]:
    """Every declared channel of ``<stem>.csv``; ``accel_high`` is None unless
    its columns are there and it shares the gyro rate."""
    gyro_spec = spec.channel("gyro")
    low_spec = spec.channel("accel_low")
    high_spec = spec.channel("accel_high")
    _, header, data = read_table(path)
    t_idx, = _column_indices(header, ("time_s",), path, column_map)
    gcols = _column_indices(header, _CHANNEL_COLUMNS["gyro"], path, column_map)
    t0, _ = table_clock(data[:, t_idx], path, header[t_idx], gyro_spec.rate)
    series = {"gyro": _channel_series(data, t0, gyro_spec.rate, gcols,
                                      _DEG2RAD, path),
              "accel_low": None, "accel_high": None}
    if low_spec is not None:
        lcols = _column_indices(header, _CHANNEL_COLUMNS["accel_low"], path,
                                column_map)
        series["accel_low"] = _channel_series(data, t0, low_spec.rate, lcols,
                                              G_STANDARD, path)
    if high_spec is not None and high_spec.rate == gyro_spec.rate:
        names = _CHANNEL_COLUMNS["accel_high"]
        cmap = column_map or {}
        if all(cmap.get(n, n) in header for n in names):
            hcols = _column_indices(header, names, path, column_map)
            series["accel_high"] = _channel_series(data, t0, high_spec.rate,
                                                   hcols, G_STANDARD, path)
    return series


def _parse_companion_file(path: Path, high_spec: ChannelSpec,
                          column_map) -> TimeSeries3:
    """The high-g channel from the ``<stem>_high.csv`` companion of ``path``."""
    hpath = path.with_name(path.stem + "_high" + path.suffix)
    if not hpath.exists():
        raise FormatError(
            f"{path}: high-g channel at {high_spec.rate:g} Hz expects "
            f"companion file {hpath.name}"
        )
    names = _CHANNEL_COLUMNS["accel_high"]
    _, hheader, hdata = read_table(hpath)
    ht_idx, = _column_indices(hheader, ("time_s",), hpath, column_map)
    ht0, _ = table_clock(hdata[:, ht_idx], hpath, hheader[ht_idx],
                         high_spec.rate)
    hcols = _column_indices(hheader, names, hpath, column_map)
    return _channel_series(hdata, ht0, high_spec.rate, hcols, G_STANDARD, hpath)


def _check_overlap(rec: ImuRecording, path):
    """The returned channels must share some stretch of time."""
    spans = [(ts.start_time, ts.end_time)
             for ts in (rec.gyro, rec.accel_low, rec.accel_high) if ts is not None]
    if not spans:
        return
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
    where = f"sensor {sensor_id!r}: channels"
    channels = []
    for kind, entry in check_object(obj, where).items():
        entry = check_object(entry, f"{where}.{kind}")
        try:
            channels.append(ChannelSpec(kind, entry["rate_hz"],
                                        str(entry.get("range", ""))))
        except ConfigError as exc:
            raise ConfigError(f"sensor {sensor_id!r}: {exc}") from None
    return tuple(channels)


def load_session_config(path) -> SessionConfig:
    """Load and validate a session configuration JSON file.

    Absent trigger / filter / cfc / window blocks take the documented
    defaults.  Every object, list and number is checked by
    :func:`check_object`, :func:`check_vector` and :func:`check_number`.
    Raises :class:`ConfigError` on a field that fails them, non-orthonormal
    rotations, collinear reconstruction geometry, or missing sensors.
    """
    path = Path(path)
    raw = check_object(read_json(path), f"{path}: the configuration", FormatError)
    try:
        sensors = []
        for i, s in enumerate(raw["sensors"]):
            s = check_object(s, f"sensors[{i}]")
            sid = str(s["id"])
            sensors.append(SensorSpec(
                id=sid,
                role=str(s.get("role", "headband")),
                position=s["position_m"],
                orientation=check_vector(s["orientation_row_major"], 9,
                                         f"sensor {sid!r}: orientation_row_major"
                                         ).reshape(3, 3),
                channels=_channels_from_json(s["channels"], sid),
            ))
        blocks = {name: check_object(raw.get(name, {}), name)
                  for name in ("trigger", "filter", "cfc", "window")}
        config = SessionConfig(
            sensors=tuple(sensors),
            reference_point=raw["reference_point_m"],
            a3g1_sensor_ids=tuple(str(x) for x in raw["a3g1_sensors"]),
            a3g1_channel=str(raw.get("a3g1_channel", "accel_high")),
            a3g1_gyro=str(raw.get("a3g1_gyro", "averaged")),
            trigger=TriggerConfig(**blocks["trigger"]),
            filter=FilterConfig(**blocks["filter"]),
            cfc=CfcConfig(**blocks["cfc"]),
            window=WindowConfig(**blocks["window"]),
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
    cols = ["time_s"]
    arrays = [rec.gyro.times]
    for name, series, scale in (("g", rec.gyro, 1.0 / _DEG2RAD),
                                ("a", rec.accel_low, 1.0 / G_STANDARD)):
        if series is None:
            continue
        if abs(series.start_time - rec.gyro.start_time) > 1e-12 or \
                series.sample_rate != rec.gyro.sample_rate:
            raise DataError("accel_low must share the gyro clock in one file")
        for k, ax in enumerate("xyz"):
            cols.append(f"{name}{ax}")
            arrays.append(series.samples[:, k] * scale)

    high_separate = None
    if rec.accel_high is not None:
        if (rec.accel_high.sample_rate == rec.gyro.sample_rate
                and abs(rec.accel_high.start_time - rec.gyro.start_time) <= 1e-12
                and len(rec.accel_high) == len(rec.gyro)):
            for k, ax in enumerate("xyz"):
                cols.append(f"h{ax}")
                arrays.append(rec.accel_high.samples[:, k] / G_STANDARD)
        else:
            high_separate = rec.accel_high

    write_table(path, cols, arrays, header_comments, "%.14g")
    if high_separate is not None:
        hpath = path.with_name(path.stem + "_high" + path.suffix)
        harrays = [high_separate.times] + [
            high_separate.samples[:, k] / G_STANDARD for k in range(3)
        ]
        write_table(hpath, ["time_s", "hx", "hy", "hz"], harrays, header_comments,
                    "%.14g")
    return path


def read_json(path):
    """The parsed content of a JSON file; a FormatError if it cannot be
    opened or is not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table(path, names, columns, comments, fmt: str):
    """Write a CSV table: ``# comment`` lines, the header, then one row per
    sample of the equal-length ``columns``.

    A column whose cells are ``str`` is written verbatim, so a label repeated
    on many rows is formatted once by the caller; every other cell is
    formatted as ``fmt % x``, the same bytes as ``np.savetxt`` with ``fmt``.
    """
    text = [len(c) > 0 and isinstance(c[0], str) for c in columns]
    row = ",".join(["%s" if t else fmt for t in text]) + "\n"
    k = len(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(names) + "\n")
        # One ``%`` operation formats a chunk of rows; the whole table is
        # never copied.
        for lo in range(0, len(columns[0]), _ROWS_PER_CHUNK):
            parts = [c[lo:lo + _ROWS_PER_CHUNK] for c in columns]
            n = len(parts[0])
            args = [None] * (n * k)
            for j, (part, t) in enumerate(zip(parts, text)):
                args[j::k] = part if t else part.tolist()
            fh.write((row * n) % tuple(args))


#: Rows formatted per ``%`` operation by :func:`write_table`.  The speed is
#: flat from 256 to 4096 rows; fewer rows hold fewer temporary floats.
_ROWS_PER_CHUNK = 512
