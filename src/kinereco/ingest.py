"""Session configuration and device CSV ingestion.

On-disk formats (full reference in ``docs/formats.md``):

* Per-sensor CSV, canonical columns ``time_s, gx, gy, gz, ax, ay, az``
  with optional ``hx, hy, hz``.  Gyro columns are in deg/s, accelerometer
  columns in g; parsed recordings are SI (rad/s, m/s^2).  The main file
  holds every channel at the gyro's rate; a high-g triple at another rate
  lives in a ``<stem>_high.csv`` companion file (``time_s, hx, hy, hz``).
  Lines starting with ``#`` are provenance comments and are skipped.
* Session configuration as JSON: sensor geometry (positions in m, row-major
  sensor-to-head rotation matrices), per-channel rates, trigger / filter /
  CFC parameters with documented defaults, and the three sensor ids used by
  the algebraic reconstruction.

Vendor exports with different column names are adapted through the optional
``column_map`` block of the configuration rather than by code changes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import logging
import math
import re
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import TimeSeries3, median, same_clock, validate_rotation, \
    window_span
from .errors import ConfigError, DataError, FormatError
from .twoproc import read_in_two

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
    "TableRows",
    "parse_imu_csv",
    "parse_reference_csv",
    "load_session",
    "reference_files",
    "read_sensor_table",
    "sensor_reads",
    "reference_block",
    "session_csv",
    "load_session_config",
    "check_number",
    "check_keys",
    "check_object",
    "check_text",
    "check_vector",
    "check_fields",
    "from_json",
    "load_json",
    "to_json",
    "finite_block",
    "imu_csv_files",
    "output_dir",
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

CHANNEL_KINDS = ("gyro", "accel_low", "accel_high")
_CHANNEL_COLUMNS = {
    "gyro": ("gx", "gy", "gz"),
    "accel_low": ("ax", "ay", "az"),
    "accel_high": ("hx", "hy", "hz"),
}
_CANONICAL_COLUMNS = ("time_s", *(name for names in _CHANNEL_COLUMNS.values()
                                   for name in names))
#: SI value of one file unit of each kind: deg/s for the gyro, g for the
#: accelerometers.
_UNITS = {"gyro": _DEG2RAD, "accel_low": G_STANDARD, "accel_high": G_STANDARD}


class Kind:
    """How a JSON value is checked and built, by ``load(value, what,
    error)``, which raises ``error`` naming ``what``, and written back, by
    ``dump``.  A leaf kind holds no block, so its ``load`` also takes the
    value it built (:func:`check_fields`)."""

    leaf, inline, noun = True, False, "values"

    def dump(self, value):
        return value


class Number(Kind):
    """A number within the sign bound ``sign`` (:func:`check_number`), kept
    as given, or stored as a float with ``as_float``."""

    noun = "numbers"

    def __init__(self, sign: str = "", as_float: bool = False):
        self.sign, self.as_float = sign, as_float

    def load(self, value, what, error):
        value = check_number(value, what, error, self.sign)
        return float(value) if self.as_float else value


class Count(Kind):
    """An ``int`` from ``lo`` to ``hi``, or any ``int`` without them."""

    def __init__(self, lo: int | None = None, hi: int | None = None):
        self.lo, self.hi = lo, hi

    def load(self, value, what, error):
        if not (isinstance(value, int) and not isinstance(value, bool)
                and (self.lo is None or self.lo <= value <= self.hi)):
            bound = "" if self.lo is None else f" from {self.lo} to {self.hi}"
            raise error(f"{what} must be an int{bound}, got {value!r}")
        return value


class Bool(Kind):
    """``true`` or ``false``."""

    def load(self, value, what, error):
        if not isinstance(value, bool):
            raise error(f"{what} must be true or false, got {value!r}")
        return value


class Text(Kind):
    """A string (:func:`check_text`)."""

    noun = "strings"

    def load(self, value, what, error):
        return check_text(value, what, error)


class Vector(Kind):
    """``n`` numbers (:func:`check_vector`): a read-only float64 array,
    reshaped to ``shape`` from its row-major list if given, or a tuple of
    floats with ``as_tuple``."""

    def __init__(self, n: int, shape=None, as_tuple: bool = False):
        self.n, self.shape, self.as_tuple = n, shape, as_tuple

    def load(self, value, what, error):
        if self.shape is not None and isinstance(value, np.ndarray):
            value = value.ravel()
        out = check_vector(value, self.n, what, error)
        if self.as_tuple:
            return tuple(out.tolist())
        return out if self.shape is None else out.reshape(self.shape)

    def dump(self, value):
        return np.ravel(value).tolist()


class Block(Kind):
    """An object holding the dataclass ``cls`` (:func:`from_json`); an
    ``inline`` block's keys lie in the object that holds it."""

    leaf, noun = False, "objects"

    def __init__(self, cls, inline: bool = False):
        self.cls, self.inline = cls, inline

    def load(self, value, what, error):
        return from_json(self.cls, value, what, what + ".")

    def dump(self, value):
        return to_json(value)


class ListOf(Kind):
    """A list of ``item`` values, exactly ``n`` if given, as a tuple."""

    noun = "lists"

    def __init__(self, item: Kind, n: int | None = None):
        self.item, self.n, self.leaf = item, n, item.leaf

    def load(self, value, what, error):
        if not isinstance(value, (list, tuple)):
            got = type(value).__name__
        elif len(value) != (self.n or len(value)):
            got = f"a list of {len(value)}"
        else:
            return tuple(self.item.load(x, f"{what}[{i}]", error)
                         for i, x in enumerate(value))
        count = f"{self.n} " if self.n else ""
        raise error(f"{what} must be a list of {count}{self.item.noun}, "
                    f"got {got}")

    def dump(self, value):
        return [self.item.dump(x) for x in value]


class MapOf(Kind):
    """An object of ``item`` values under any keys, or ``keys`` only, as a
    dict; with ``key_field``, of blocks, as a tuple of them, each holding
    its key in that field."""

    noun = "objects"

    def __init__(self, item: Kind, keys=None, key_field: str | None = None):
        self.item, self.keys, self.key_field = item, keys, key_field
        self.leaf = item.leaf

    def load(self, value, what, error):
        check_object(value, what, error)
        if self.keys is not None:
            check_keys(value, self.keys, what, error)
        if self.key_field is None:
            return {k: self.item.load(x, f"{what}.{k}", error)
                    for k, x in value.items()}
        return tuple(from_json(self.item.cls, x, f"{what}.{k}", f"{what}.{k}.",
                               {self.key_field: k}) for k, x in value.items())

    def dump(self, value):
        if self.key_field is None:
            return {k: self.item.dump(x) for k, x in value.items()}
        return {getattr(x, self.key_field): self.item.dump(x) for x in value}


class Nullable(Kind):
    """An ``item`` value, or null (None)."""

    def __init__(self, item: Kind):
        self.item, self.leaf, self.noun = item, item.leaf, item.noun

    def load(self, value, what, error):
        return None if value is None else self.item.load(value, what, error)

    def dump(self, value):
        return None if value is None else self.item.dump(value)


def json_field(kind: Kind, key: str | None = None, *, absent=MISSING,
               **options):
    """A dataclass field held in a JSON object under ``key`` (by default its
    name) as a ``kind``; its class names the error of its values in
    ``_error``.  An object without the key gives the field ``absent`` if
    given, else its default; a field whose default is None also takes null.
    A None field whose ``absent`` is None is left out of :func:`to_json`.
    ``options`` go to :func:`dataclasses.field`."""
    return field(metadata={"json": (kind, key, absent)}, **options)


def block_field(cls, **options):
    """A :func:`json_field` holding a ``cls`` block, by default ``cls()``."""
    return json_field(Block(cls), default_factory=cls, **options)


@functools.cache
def _schema(cls) -> tuple:
    """``(field, kind, key, absent)`` of each JSON field of ``cls``."""
    return tuple((f, kind, key or f.name, absent) for f in fields(cls)
                 if "json" in f.metadata
                 for kind, key, absent in [f.metadata["json"]])


@functools.cache
def _json_keys(cls) -> tuple[str, ...]:
    return tuple(k for _, kind, key, _ in _schema(cls)
                 for k in (_json_keys(kind.cls) if kind.inline else [key]))


def from_json(cls, obj, what: str, prefix: str, given=None, also=()):
    """``cls`` built from the JSON object ``obj``, whose keys must be those
    of ``cls`` or ``also`` (not read), and whose values must pass their
    kinds; ``given`` holds the fields without a key.  An error is the
    class's ``_error``, naming the object ``what`` or a field ``prefix``
    and its key (``sensors[0].position_m``)."""
    check_keys(check_object(obj, what, cls._error),
               [*_json_keys(cls), *also], what, cls._error)
    return cls(**_field_values(cls, obj, prefix), **(given or {}))


def _field_values(cls, obj: dict, prefix: str) -> dict:
    values = {}
    for f, kind, key, absent in _schema(cls):
        if kind.inline:
            values[f.name] = kind.cls(**_field_values(kind.cls, obj, prefix))
        elif key in obj:
            null = obj[key] is None and f.default is None
            values[f.name] = None if null else kind.load(
                obj[key], prefix + key, cls._error)
        elif absent is not MISSING:
            values[f.name] = absent
        elif f.default is MISSING and f.default_factory is MISSING:
            raise cls._error(f"{prefix}{key} is missing")
    return values


def to_json(obj) -> dict:
    """The JSON object of ``obj`` that :func:`from_json` reads back."""
    out = {}
    for f, kind, key, absent in _schema(type(obj)):
        value = getattr(obj, f.name)
        if kind.inline:
            out.update(to_json(value))
        elif value is not None or absent is not None:
            out[key] = None if value is None else kind.dump(value)
    return out


def check_fields(obj, prefix: str) -> None:
    """Check each leaf field of ``obj`` by its kind, naming ``prefix`` and
    its key, and store the value the kind builds: a ``__post_init__``
    calls it, so that a dataclass built in the library fails as a loaded
    one."""
    for f, kind, key, _ in _schema(type(obj)):
        value = getattr(obj, f.name)
        if kind.leaf and not (value is None and f.default is None):
            object.__setattr__(obj, f.name,
                               kind.load(value, prefix + key, type(obj)._error))


def load_json(path, cls, what: str, also=(), defaults=None):
    """``cls`` from the JSON file ``path`` (:func:`from_json`), whose root
    is ``what`` and takes ``defaults`` for keys it lacks.  A root that is
    not an object is a FormatError; every error names the file once."""
    path = Path(path)
    raw = check_object(read_json(path), f"{path}: {what}", FormatError)
    try:
        return from_json(cls, {**(defaults or {}), **raw}, what, "", None, also)
    except (ConfigError, DataError, FormatError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ChannelSpec:
    """One measurement channel of an IMU: kind, rate, physical range.  In
    JSON it is the entry of its kind in its sensor's ``channels``."""

    kind: str
    rate: float = json_field(Number("> 0", as_float=True), "rate_hz")
    range_label: str = json_field(Text(), "range", default="")
    _error = ConfigError

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ConfigError(
                f"unknown channel kind {self.kind!r}; expected one of {CHANNEL_KINDS}"
            )
        check_fields(self, f"channels.{self.kind}.")


@dataclass(frozen=True)
class SensorSpec:
    """Geometry and channel layout of one IMU in the head frame.

    ``position`` is the sensor location r_i in meters; ``orientation`` maps
    sensor-frame vectors into the head frame.
    """

    id: str = json_field(Text())
    role: str = json_field(Text(), absent="headband")  # or "reference"
    position: np.ndarray = json_field(Vector(3), "position_m")
    orientation: np.ndarray = json_field(Vector(9, shape=(3, 3)),
                                         "orientation_row_major")
    channels: tuple[ChannelSpec, ...] = json_field(
        MapOf(Block(ChannelSpec), CHANNEL_KINDS, key_field="kind"))
    _error = ConfigError

    def __post_init__(self):
        check_fields(self, f"sensor {self.id!r}: ")
        if self.id in ("", ".", "..") or any(c in self.id for c in "/\\\0"):
            raise ConfigError(
                f"sensor {self.id!r}: the id names the sensor's files, so it "
                "may not be empty, '.' or '..', or hold '/', '\\' or NUL")
        if self.role not in ("headband", "reference"):
            raise ConfigError(f"sensor {self.id!r}: unknown role {self.role!r}")
        try:
            validate_rotation(self.orientation)
        except ConfigError as exc:
            raise ConfigError(f"sensor {self.id!r}: {exc}") from None
        kinds = [c.kind for c in self.channels]
        if len(set(kinds)) != len(kinds):
            raise ConfigError(f"sensor {self.id!r}: duplicate channel kinds")
        if "gyro" not in kinds:
            raise ConfigError(f"sensor {self.id!r} declares no gyro channel")
        gyro, low = self.channel("gyro"), self.channel("accel_low")
        if low is not None and low.rate != gyro.rate:
            raise ConfigError(
                f"sensor {self.id!r}: accel_low rate {low.rate:g} Hz must "
                f"match the gyro rate {gyro.rate:g} Hz in a shared file"
            )

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
    ``"{what} must be a finite number[ sign], got {value!r}"``, or ``got an
    integer of {n} digits`` for an int too large for a float.  The value is
    returned as given, so an int stays an int.
    """
    # False for NaN, and for ints too large for a float.
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (not sign or value > 0 or (sign == ">= 0" and value == 0))):
        bound = f" {sign}" if sign else ""
        got = repr(value)
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            got = f"an integer of {_digits(abs(value))} digits"
        raise error(f"{what} must be a finite number{bound}, got {got}")
    return value


def _digits(n: int) -> int:
    """The decimal digits of ``n > 0``, without its string, which Python
    does not make beyond 4300 digits."""
    digits = max(1, int(n.bit_length() * math.log10(2)))
    while n >= 10 ** digits:
        digits += 1
    while digits > 1 and n < 10 ** (digits - 1):
        digits -= 1
    return digits


def check_object(value, what: str, error=ConfigError) -> dict:
    """``value``, when it is a JSON object (a ``dict``); otherwise ``error``
    is raised with ``"{what} must be an object, got <type>"``."""
    if not isinstance(value, dict):
        raise error(f"{what} must be an object, got {type(value).__name__}")
    return value


def check_keys(obj: dict, keys, what: str, error=ConfigError) -> dict:
    """``obj``, when each of its keys is one of ``keys``; otherwise ``error``
    is raised with ``"{what} has an unknown key 'k' (known keys: ...)"``
    for the first other key."""
    for key in obj:
        if key not in keys:
            raise error(f"{what} has an unknown key {key!r} "
                        f"(known keys: {', '.join(keys)})")
    return obj


def check_text(value, what: str, error=ConfigError) -> str:
    """``value``, when it is a ``str``; otherwise ``error`` is raised with
    ``"{what} must be a string, got {value!r}"``."""
    if not isinstance(value, str):
        raise error(f"{what} must be a string, got {value!r}")
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
    """Base of the config blocks that hold only numbers; an error names
    ``block.field``, the block being the class name without ``Config``, in
    lower case."""

    _error = ConfigError

    def __post_init__(self):
        check_fields(self, type(self).__name__.removesuffix("Config").lower()
                     + ".")


_ABOVE_0, _AT_LEAST_0 = Number("> 0"), Number(">= 0")


@dataclass(frozen=True)
class TriggerConfig(_NumberBlock):
    threshold_g: float = json_field(_ABOVE_0, default=3.0)
    min_duration_ms: float = json_field(_AT_LEAST_0, default=3.0)

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
    end_time_ms: float = json_field(_ABOVE_0, default=150.0)
    reference_end_time_ms: float = json_field(_ABOVE_0, default=90.0)
    coeff_threshold: float = json_field(_ABOVE_0, default=0.1)
    max_cutoff_hz: float = json_field(_ABOVE_0, default=180.0)
    accel_prefilter_hz: float = json_field(_ABOVE_0, default=260.0)


@dataclass(frozen=True)
class CfcConfig(_NumberBlock):
    trans: float = json_field(_ABOVE_0, default=1000.0)
    ang_vel: float = json_field(_ABOVE_0, default=155.0)


@dataclass(frozen=True)
class WindowConfig(_NumberBlock):
    pre_ms: float = json_field(_AT_LEAST_0, default=31.25)
    headband_post_ms: float = json_field(_ABOVE_0, default=150.0)
    reference_post_ms: float = json_field(_ABOVE_0, default=93.75)

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


@dataclass(frozen=True, kw_only=True)
class SessionConfig:
    """Everything the pipeline needs to know about a recording session."""

    name: str = json_field(Text(), default="")
    sensors: tuple[SensorSpec, ...] = json_field(ListOf(Block(SensorSpec)))
    reference_point: np.ndarray = json_field(Vector(3), "reference_point_m")
    a3g1_sensor_ids: tuple[str, str, str] = json_field(ListOf(Text(), 3),
                                                       "a3g1_sensors")
    a3g1_channel: str = json_field(Text(), default="accel_high")
    a3g1_gyro: str = json_field(Text(), default="averaged")  # or a sensor id
    trigger: TriggerConfig = block_field(TriggerConfig)
    filter: FilterConfig = block_field(FilterConfig)
    cfc: CfcConfig = block_field(CfcConfig)
    window: WindowConfig = block_field(WindowConfig)
    column_map: dict | None = json_field(MapOf(Text(), _CANONICAL_COLUMNS),
                                         default=None)
    _error = ConfigError

    def __post_init__(self):
        check_fields(self, "")
        if self.column_map is not None:
            read_by = {}
            for name in _CANONICAL_COLUMNS:
                actual = self.column_map.get(name, name)
                if actual in read_by:
                    raise ConfigError(
                        f"column_map: canonical columns {read_by[actual]!r} "
                        f"and {name!r} would both read file column {actual!r}")
                read_by[actual] = name
        self._validate()

    def _validate(self):
        ids = [s.id for s in self.sensors]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate sensor ids in configuration")
        refs = [s.id for s in self.sensors if s.role == "reference"]
        if len(refs) > 1:
            raise ConfigError(f"sensor {refs[1]!r}: a second reference sensor "
                              f"(a session has one, {refs[0]!r})")
        if self.filter.end_time_ms > self.window.headband_post_ms:
            raise ConfigError(
                f"filter.end_time_ms {self.filter.end_time_ms:g} must not "
                f"exceed window.headband_post_ms "
                f"{self.window.headband_post_ms:g}: the adaptive filter's end "
                "slice lies in the headband window")
        n_accel = sum(1 for s in self.sensors if s.has_accelerometer)
        if n_accel < 3:
            raise ConfigError(
                f"need at least 3 accelerometer-bearing sensors, got {n_accel}"
            )
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
        # A reference block's files all begin <id>_ev<digits>, so none is
        # labels.csv.
        seen = {"labels.csv": "the labels file"}
        ref = self.reference_sensor
        for spec in self.headband_sensors:
            rates = {c.kind: c.rate for c in spec.channels}
            for file, _, _ in _sensor_files(Path(session_csv(spec.id)), rates):
                owner = seen.get(file.name) or (
                    ref is not None and reference_block(ref, file.name)
                    and f"a file of sensor {ref.id!r}")
                if owner:
                    raise ConfigError(f"sensor {spec.id!r}: its session file "
                                      f"{file.name} is also {owner}")
                seen[file.name] = f"a file of sensor {spec.id!r}"
        if ref is None:
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
        """The session's one reference sensor, or None."""
        return next((s for s in self.sensors if s.role == "reference"), None)


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


class TableRows(NamedTuple):
    """Some data rows of a numeric table: ``values`` holds the parsed rows,
    ``index`` the data row of each (increasing, from 0), or None when they
    are every row, and ``n`` counts every data row of the table."""

    values: np.ndarray
    index: np.ndarray
    n: int


def read_table(path, numeric: bool = True, pick=None):
    """``(meta, header, rows)`` of the CSV table at ``path``.

    ``meta`` holds the ``# key=value`` comments before the header row, and
    ``header`` the stripped names of that row.  After it, ``#`` lines and
    blank lines are skipped.  A numeric table's rows are one float matrix
    from ``np.loadtxt``, with a column per header name; a text table's rows
    are lists of the cells of each stripped line.

    ``pick``, for a numeric table, picks the data rows to parse: a function
    of the header and the first data row (a float array) that returns
    ``(lo, hi)`` ranges of data rows (``hi`` excluded), or None when it
    cannot.  The table's rows are then a :class:`TableRows` of row 0 and
    the rows of the ranges; the other rows are counted but never parsed.
    That needs one data row per line after the header.  Where ``pick``
    returns None, or where a ``#`` or blank line, a ``\\r``, a non-ASCII byte
    or a last line without ``\\n`` lies anywhere in the file, or a row does
    not parse to a cell per header name, ``read_table`` returns None: only
    the parse of every row names what is wrong.

    Raises
    ------
    FormatError
        The file cannot be opened, is not UTF-8, or has no header row, or a
        numeric table's column count differs from the header's.
    DataError
        A numeric table has an unparseable cell, a short or long row, or no
        data rows.
    """
    with _text(path) as fh:
        meta, header, lines = _header(fh, path)
        if not numeric:
            cells = [ln.split(",") for ln in map(str.strip, fh)
                     if ln and not ln.startswith("#")]
            return meta, header, cells
        if pick is not None:
            table = _read_rows(path, lines, header, pick)
            return None if table is None else (meta, header, table)
        try:
            with warnings.catch_warnings():
                # An empty table is reported below as a DataError.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except UnicodeDecodeError:
            raise  # a ValueError, which _text reports
        except ValueError as exc:
            raise DataError(f"{path}: " + (
                _bad_row(path, lines, header)
                or f"unparseable cell ({exc})")) from None
    if data.size == 0:
        raise DataError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise FormatError(
            f"{path}: {data.shape[1]} data columns vs {len(header)} header names"
        )
    return meta, header, data


@contextlib.contextmanager
def _text(path):
    """The file at ``path`` open as UTF-8 text; a FormatError when it cannot
    be opened or, while it is read, when it is not UTF-8."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc})") from None


def _header(fh, path) -> tuple[dict, list, int]:
    """``(meta, header, lines)`` of the table at ``path`` open in ``fh``:
    the ``# key=value`` comments before its header row, the stripped names
    of that row, and the lines read up to and with it."""
    meta, lines = {}, 0
    while True:
        line = fh.readline()
        lines += 1
        if not line:
            raise FormatError(f"{path}: no header row found")
        stripped = line.strip()
        if stripped.startswith("#"):
            key, eq, value = stripped[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif stripped:
            return meta, [c.strip() for c in stripped.split(",")], lines


#: Data rows :func:`_bad_row` parses at a time.
_CHECK_ROWS = 4096


def _bad_row(path, skip: int, header) -> str | None:
    """What ``np.loadtxt`` rejects in the numeric table at ``path``, after
    ``skip`` lines up to the header: the first data row, counted from 0 over
    the lines it reads (``#`` comments and blank lines skipped), that has a
    cell count other than the header's or a cell that does not parse; None
    if no such row is found."""

    def parses(lines) -> bool:
        try:
            np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError:
            return False
        return True

    try:
        with open(path, "r", encoding="utf-8") as fh:
            for _ in range(skip):
                fh.readline()
            rows = [text for text in (ln.split("#", 1)[0].strip() for ln in fh)
                    if text]
    except (OSError, UnicodeDecodeError):
        return None
    width = len(header)
    short = next((n for n, text in enumerate(rows)
                  if text.count(",") + 1 != width), len(rows))
    for start in range(0, short, _CHECK_ROWS):
        block = rows[start:min(start + _CHECK_ROWS, short)]
        if parses(block):
            continue
        for n, text in enumerate(block, start):
            for name, cell in zip(header, text.split(",")):
                if not cell.strip() or not parses([cell]):
                    return (f"unparseable cell at data row {n}, column "
                            f"{name!r}: {cell.strip()!r}")
        return None
    if short < len(rows):
        return (f"data row {short} has {rows[short].count(',') + 1} cells, "
                f"the header has {width}")
    return None


#: Bytes read at a time when :func:`read_table` counts a table's lines.
_SCAN_BYTES = 1 << 18


def _read_rows(path, skip: int, header, pick) -> TableRows | None:
    """The rows :func:`read_table` returns for its ``pick`` function,
    after ``skip`` lines up to the header; None when every row must be
    parsed."""
    with open(path, "rb") as fh:
        for _ in range(skip):
            if b"\r" in fh.readline():
                return None
        body = fh.tell()
        first = _parse_rows(fh.readline(), len(header))
        ranges = None if first is None else pick(header, first[0])
        if ranges is None:
            return None
        merged = []
        for lo, hi in sorted((max(lo, 0), hi) for lo, hi in [(0, 1), *ranges]):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            elif lo < hi:
                merged.append([lo, hi])
        fh.seek(body)
        scan = _scan_lines(fh, merged)
    if scan is None:
        return None
    n, text = scan
    index = np.concatenate([np.arange(lo, min(hi, n)) for lo, hi in merged
                            if lo < n])
    values = _parse_rows(text, len(header))
    if values is None or len(values) != len(index):
        return None
    return TableRows(values, index, n)


def _parse_rows(text: bytes, ncols: int) -> np.ndarray | None:
    """The float rows of the CSV lines ``text``, or None unless each line
    parses to ``ncols`` numbers."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(io.StringIO(text.decode("ascii")),
                                delimiter=",", ndmin=2)
    except ValueError:
        return None
    return values if values.size and values.shape[1] == ncols else None


def _scan_lines(fh, ranges) -> tuple[int, bytes] | None:
    """``(n, text)``: the number of lines from the position of ``fh`` to the
    end of the file, and the bytes of the lines in the sorted, disjoint
    ``ranges`` ``[lo, hi)``.  None unless every line is non-empty, ASCII,
    ends with ``\\n`` and holds no ``#`` or ``\\r``.  The file is read into
    one buffer of ``_SCAN_BYTES``, a chunk at a time."""
    pieces = []
    row, last = 0, 10  # the line the chunk starts in; the byte before it
    buf = bytearray(_SCAN_BYTES)
    while size := fh.readinto(buf):
        chunk = buf if size == len(buf) else buf[:size]
        ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == 10)
        # Two newlines in a row, across chunks too, make an empty line.
        gaps = np.diff(ends, prepend=-1 if last == 10 else -2)
        if (b"#" in chunk or b"\r" in chunk or not chunk.isascii()
                or (gaps == 1).any()):
            return None
        end = row + len(ends)  # the line the chunk ends in
        cuts = None
        for lo, hi in ranges:
            a, b = max(lo, row), min(hi, end + 1)
            if a < b:
                if cuts is None:
                    # cuts[i]: where line row + i starts in the chunk.
                    cuts = np.r_[0, ends + 1, size]
                pieces.append(chunk[cuts[a - row]:cuts[b - row]])
        row, last = end, chunk[-1]
    if row == 0 or last != 10:
        return None
    return row, b"".join(pieces)


def _column_indices(header, names, path, column_map):
    cmap = column_map or {}
    idx = []
    for canonical in names:
        actual = cmap.get(canonical, canonical)
        if actual not in header:
            raise FormatError(f"{path}: missing column {actual!r}")
        idx.append(header.index(actual))
    return idx


def table_clock(t: np.ndarray, path, name: str, rate: float | None = None,
                rows: np.ndarray | None = None) -> tuple[float, float]:
    """``(start, rate)`` of the time column ``name`` of the table at ``path``.

    The times must be finite and strictly increasing.  The rate is the
    declared ``rate``, which the median step must match within 0.5 %, or
    else the reciprocal of the median step.  Every time must then lie
    within a quarter sample of ``start + i / rate``.  Each failure is a
    :class:`DataError` naming the file and the data row; a first time off
    the grid that every other time is on is named as data row 0.

    ``rows`` holds the data row ``i`` of each time, increasing from 0,
    when the times are not every row (as in :class:`TableRows`); the median
    is then taken over the steps between adjacent rows.
    """
    rows = np.arange(len(t)) if rows is None else rows
    bad = np.nonzero(~np.isfinite(t))[0]
    if bad.size:
        raise DataError(f"{path}: column {name!r} is not finite at data row "
                        f"{int(rows[bad[0]])}")
    steps = np.diff(t)
    bad = np.nonzero(steps <= 0)[0]
    if bad.size:
        raise DataError(f"{path}: column {name!r} does not increase at data "
                        f"row {int(rows[bad[0] + 1])}")
    steps = steps[np.diff(rows) == 1]
    if steps.size:
        measured = 1.0 / median(steps)
        if rate is None:
            rate = measured
        elif abs(measured - rate) > 0.005 * rate:
            raise DataError(
                f"{path}: measured rate {measured:.2f} Hz does not match the "
                f"declared {rate:g} Hz"
            )
        drift = np.abs(t - t[0] - rows / rate)
        worst = int(np.argmax(drift))
        if drift[worst] > 0.25 / rate:
            row, by = int(rows[worst]), drift[worst]
            # When the first time is the one off the grid, every other row
            # is off its grid, and on the grid of the others.
            others = t[1:] - rows[1:] / rate
            grid = median(others)
            if (abs(t[0] - grid) > 0.25 / rate
                    and (np.abs(others - grid) <= 0.25 / rate).all()):
                row, by = int(rows[0]), abs(t[0] - grid)
            raise DataError(f"{path}: non-uniform sampling at data row {row} "
                            f"(off grid by {by * 1e3:.3f} ms)")
    elif rate is None:
        raise DataError(f"{path}: column {name!r} needs 2 rows to measure "
                        f"its rate")
    return float(t[0]), rate


def finite_block(data, rows, cols, path) -> np.ndarray:
    """Columns ``cols`` of ``data``, the table at ``path``, whose row i is
    data row ``rows[i]`` (row i when ``rows`` is None); a DataError names the
    data row of the first cell that is not finite."""
    block = data[:, cols]
    if not np.isfinite(block).all():
        row, col = np.argwhere(~np.isfinite(block))[0]
        what = "NaN" if np.isnan(block[row, col]) else "infinite"
        if rows is not None:
            row = rows[row]
        raise DataError(f"{path}: {what} cell at data row {int(row)}")
    return block


def _sensor_files(path: Path, rates: dict) -> list:
    """``(file, kinds, rate)`` of each CSV file of the sensor whose channel
    kinds run at ``rates``: ``path`` holds every kind on the gyro's clock,
    and ``<stem>_high.csv`` an ``accel_high`` at another rate."""
    own_clock = rates.get("accel_high", rates["gyro"]) != rates["gyro"]
    main = tuple(k for k in CHANNEL_KINDS
                 if k in rates and not (own_clock and k == "accel_high"))
    files = [(path, main, rates["gyro"])]
    if own_clock:
        files.append((path.with_name(path.stem + "_high" + path.suffix),
                      ("accel_high",), rates["accel_high"]))
    return files


def session_csv(sensor_id: str, block: int | None = None) -> str:
    """The main CSV file of a sensor in a session directory: ``<id>.csv``
    for a headband stream, ``<id>_ev<k>.csv`` for reference block ``k`` (in
    three digits or more).  :func:`_sensor_files` names its companion."""
    if block is None:
        return f"{sensor_id}.csv"
    return f"{sensor_id}_ev{block:03d}.csv"


def reference_block(spec: SensorSpec, name: str) -> tuple[int, str] | None:
    """``(k, main)`` when ``name`` is a file of block ``k`` of the reference
    sensor ``spec``, whose main file is ``main`` (``<id>_ev<digits>.csv``,
    see :func:`session_csv`), or None.  The id is matched literally."""
    block = re.match(re.escape(spec.id) + r"_ev([0-9]+)", name)
    if block:
        main = block[0] + ".csv"
        rates = {c.kind: c.rate for c in spec.channels}
        if any(f.name == name for f, _, _ in _sensor_files(Path(main), rates)):
            return int(block[1]), main
    return None


def parse_imu_csv(path, spec: SensorSpec, column_map: dict | None = None,
                  channels=None, windows=None, read=None) -> ImuRecording:
    """Parse one sensor's CSV export into SI channels.

    The main file carries the gyro (deg/s) plus the accelerometer triples
    (g) at the gyro's rate; a high-g channel declared at another rate is
    read from the ``<stem>_high.csv`` companion.  Channel rates are checked
    against the sensor's channel declaration.

    ``channels`` names the kinds to return; ``None`` means every declared
    channel.  Kinds not requested are ``None`` in the recording, and a file
    holding none of the requested kinds is never opened (see
    :func:`sensor_reads`).  A file that is opened is parsed and validated
    whole, whatever is requested from it, unless ``windows`` lists
    ``(t0, pre, post)`` windows on the sensor's clock: then only the rows
    ``detect.extract_window`` cuts for each window (by
    :func:`~kinereco.core.window_span`) are parsed and validated (see
    :func:`read_sensor_table`).  Each channel keeps a sample per data row,
    on the clock of the whole file; the samples of the rows not parsed are
    zeros.

    ``read`` gets each file's table, called with the arguments of
    :func:`read_sensor_table` (the default) that :func:`sensor_reads` gives,
    and returning what it returns.

    Raises
    ------
    ConfigError
        A requested kind the sensor does not declare.
    FormatError
        Missing file or column.
    DataError
        Non-finite cells, non-monotone or non-uniform time columns, rate
        mismatch.
    """
    path = Path(path)
    declared = [c.kind for c in spec.channels]
    undeclared = sorted(set(channels or ()) - set(declared))
    if undeclared:
        raise ConfigError(f"sensor {spec.id!r}: requested channels {undeclared} "
                          f"are not declared (declared: {', '.join(declared)})")
    series = {}
    for args in sensor_reads(path, spec, channels, column_map, windows):
        _, kinds, rate, wanted = args[:4]
        values, rows, n = (read or read_sensor_table)(*args)
        for j, kind in enumerate(k for k in kinds if k in wanted):
            samples = values[:, 1 + 3 * j:4 + 3 * j]
            if rows is not None:
                samples, parsed = np.zeros((n, 3)), samples
                samples[rows] = parsed
            series[kind] = TimeSeries3(float(values[0, 0]), rate, samples)
    rec = ImuRecording(spec.id, *map(series.get, CHANNEL_KINDS))
    _check_overlap(rec, path)
    return rec


def sensor_reads(path, spec: SensorSpec, channels=None,
                 column_map: dict | None = None, windows=None) -> list:
    """The :func:`read_sensor_table` arguments ``(file, kinds, rate, wanted,
    column_map, windows)`` of each file :func:`parse_imu_csv` opens for
    ``channels`` of the sensor ``spec`` whose main file is ``path``: each
    file holding a requested kind, with the kinds it holds, its rate and
    the set of requested kinds."""
    wanted = {c.kind for c in spec.channels} if channels is None \
        else set(channels)
    return [(file, kinds, rate, wanted, column_map, windows)
            for file, kinds, rate in _sensor_files(
                Path(path), {c.kind: c.rate for c in spec.channels})
            if not wanted.isdisjoint(kinds)]


def read_sensor_table(path, kinds, rate: float, wanted,
                      column_map: dict | None = None,
                      windows=None) -> TableRows:
    """The table :func:`parse_imu_csv` builds channels from, of the sensor
    file at ``path`` that holds the channel ``kinds`` on its time column at
    ``rate``: the file's time column, then the SI samples of each kind of
    ``kinds`` in ``wanted``, in that order.

    The cells of every kind the file holds are checked: the time column by
    :func:`table_clock`, each triple by :func:`finite_block`.  With
    ``windows``, only the rows of the windows are parsed and checked
    (``read_table``'s ``pick``); where those rows cannot be read alone or
    fail a check, the whole file is parsed and checked, so that any error
    is the full parse's.
    """

    def window_rows(header, first):
        try:
            start = first[_column_indices(header, ("time_s",), path,
                                          column_map)[0]]
            return [(i_first, i_last + 1) for i_first, i_last in (
                window_span(start, rate, *window) for window in windows)]
        except (FormatError, OverflowError, ValueError):
            return None  # a missing time column or a time that is not finite

    kept = [k for k in kinds if k in wanted]

    def checked(header, data, rows, n) -> TableRows:
        t, = _column_indices(header, ("time_s",), path, column_map)
        cols = [_column_indices(header, _CHANNEL_COLUMNS[k], path, column_map)
                for k in kinds]
        table_clock(data[:, t], path, header[t], rate, rows)
        values = np.empty((len(data), 1 + 3 * len(kept)))
        values[:, 0] = data[:, t]
        for kind, idx in zip(kinds, cols):
            block = finite_block(data, rows, idx, path)
            if kind in kept:
                j = 1 + 3 * kept.index(kind)
                values[:, j:j + 3] = block * _UNITS[kind]
        return TableRows(values, rows, n)

    if windows is not None:
        try:
            table = read_table(path, pick=window_rows)
            if table is not None:
                return checked(table[1], *table[2])
        except (DataError, FormatError):
            pass  # the whole file below reports the error
    _, header, data = read_table(path)
    return checked(header, data, None, len(data))


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


def parse_reference_csv(path, spec: SensorSpec, column_map: dict | None = None,
                        window: WindowConfig = WindowConfig(),
                        read=None) -> ImuRecording:
    """Parse one reference-device event block.

    Same contract as :func:`parse_imu_csv`, every channel read whole (the
    same ``read`` too), plus the block-geometry check:
    the gyro must span the block ``simulate`` cuts by ``window`` within one
    sample period: ``pre`` before the trigger and ``reference_post`` after
    it, cut by :func:`~kinereco.core.window_span` as
    ``detect.extract_window`` cuts them.
    """
    rec = parse_imu_csv(path, spec, column_map, read=read)
    rate = rec.gyro.sample_rate
    span = (len(rec.gyro) - 1) / rate
    i_first, i_last = window_span(0.0, rate, 0.0, window.pre,
                                  window.reference_post)
    block = (i_last - i_first) / rate
    tol = 1.0001 / rate
    if span < block - tol:
        raise DataError(f"{path}: short event block ({span * 1e3:.2f} ms < "
                        f"{block * 1e3:.2f} ms)")
    if span > block + tol:
        raise DataError(f"{path}: long event block ({span * 1e3:.2f} ms > "
                        f"{block * 1e3:.2f} ms)")
    return rec


def reference_files(config: SessionConfig, in_dir) -> list[Path]:
    """The main file of each block of the session's reference sensor in the
    directory ``in_dir``, not its companion, in block-number order; none
    without a reference sensor.  Raises FormatError when two files hold the
    same block number (``<id>_ev002.csv`` and ``<id>_ev2.csv``)."""
    spec = config.reference_sensor
    if spec is None:
        return []
    blocks = sorted((block[0], path.name, path)
                    for path in Path(in_dir).iterdir()
                    if (block := reference_block(spec, path.name))
                    and block[1] == path.name)
    for (k, first, _), (same, second, _) in zip(blocks, blocks[1:]):
        if k == same:
            raise FormatError(f"{in_dir}: {first} and {second} are both block "
                              f"{k} of sensor {spec.id!r}")
    return [path for _, _, path in blocks]


def load_session(config: SessionConfig, in_dir, channels: dict,
                 windows=None) -> tuple[dict[str, ImuRecording],
                                        list[ImuRecording]]:
    """``(headband, blocks)`` of the session directory ``in_dir``: the
    :func:`parse_imu_csv` recording of ``channels[id]`` (None: every
    declared channel) of each headband sensor, over ``windows`` if given,
    by id, and the :func:`parse_reference_csv` recording of each block of
    :func:`reference_files`.  Every file is read first, one
    :func:`read_sensor_table` job per file, costed by its byte size, in two
    processes (``twoproc.read_in_two``); the recordings are then built here
    in the serial loop's order, each table handed over as its file's
    ``read``, so the first error is that loop's: a ``missing headband
    file``, an undeclared channel, the earliest failed read, or an error
    listing the blocks, in their turn."""
    in_dir = Path(in_dir)
    reads = [args for spec in config.headband_sensors
             for args in sensor_reads(in_dir / session_csv(spec.id), spec,
                                      channels[spec.id], config.column_map,
                                      windows)]
    try:
        blocks = reference_files(config, in_dir)
    except (OSError, FormatError) as exc:
        blocks = exc  # raised in its turn, after the headband sensors
    else:
        reads += [args for path in blocks for args in sensor_reads(
            path, config.reference_sensor, None, config.column_map)]
    tables = dict(zip([args[0] for args in reads], read_in_two([
        (_byte_size(args[0]), functools.partial(read_sensor_table, *args))
        for args in reads])))

    def read(file, *_):
        table = tables.pop(file)
        if isinstance(table, Exception):
            raise table
        return table

    headband = {}
    for spec in config.headband_sensors:
        path = in_dir / session_csv(spec.id)
        if not path.exists():
            raise FormatError(f"missing headband file {path}")
        headband[spec.id] = parse_imu_csv(path, spec, config.column_map,
                                          channels[spec.id], windows, read)
    if isinstance(blocks, Exception):
        raise blocks
    return headband, [parse_reference_csv(path, config.reference_sensor,
                                          config.column_map, config.window,
                                          read)
                      for path in blocks]


def _byte_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0  # its read fails in its turn


def load_session_config(path) -> SessionConfig:
    """Load and validate a session configuration JSON file
    (:func:`load_json`).  An absent ``name`` is the file's stem, and the
    root may hold the ``manifest_sha256`` that ``simulate`` stamps into its
    ``config.json``.  Raises :class:`ConfigError` naming the file."""
    return load_json(path, SessionConfig, "the configuration",
                     ("manifest_sha256",), {"name": Path(path).stem})


def imu_csv_files(path, rec: ImuRecording) -> list[tuple[Path, tuple]]:
    """``(file, kinds)`` of each CSV file of ``rec`` at ``path``, in the
    layout :func:`parse_imu_csv` reads: ``path`` holds every channel on the
    gyro's clock, and the ``<stem>_high.csv`` companion a high-g channel at
    another rate.
    """
    rates = {kind: ts.sample_rate for kind in CHANNEL_KINDS
             if (ts := rec.channel(kind)) is not None}
    return [(file, kinds)
            for file, kinds, _ in _sensor_files(Path(path), rates)]


def write_imu_csv(file, rec: ImuRecording, kinds,
                  header_comments: tuple[str, ...] = ()) -> Path:
    """Write the ``kinds`` of ``rec`` to ``file``, one ``(file, kinds)`` of
    :func:`imu_csv_files`, in the canonical CSV layout (the inverse of
    parse), and return ``file``.

    The times are those of the first kind; a kind whose start, rate or
    length differs from it is a DataError.  SI values are converted back to
    deg/s and g.
    """
    file = Path(file)
    clock = rec.channel(kinds[0])
    cols, arrays = ["time_s"], [clock.times]
    for kind in kinds:
        ts = rec.channel(kind)
        if not same_clock(ts, clock):
            raise DataError(f"{file}: {kind} must share the {kinds[0]} "
                            f"clock in one file")
        # x / g and x * (1 / g) can differ in the last bit: the high-g
        # triple is divided and the others multiplied, so that session
        # files keep their bytes.
        scale = 1.0 / _UNITS[kind]
        cols += _CHANNEL_COLUMNS[kind]
        arrays += [ts.samples[:, k] / G_STANDARD if kind == "accel_high"
                   else ts.samples[:, k] * scale for k in range(3)]
    write_table(file, cols, arrays, header_comments, "%.14g")
    return file


def read_json(path):
    """The parsed content of a JSON file; a FormatError if it cannot be
    opened or is not UTF-8 JSON that Python can hold.  ``json.load`` raises
    a ValueError for a syntax error, for bytes that are not UTF-8 and for an
    integer of more digits than ``sys.get_int_max_str_digits()``, and a
    RecursionError for arrays or objects nested too deep."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def output_dir(path) -> Path:
    """``path`` as a directory, made with its parents where missing; a
    FormatError naming it if it cannot be."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None
    return path


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final
    newline; a FormatError naming ``path`` if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def write_table(path, names, columns, comments, fmt: str):
    """Write a CSV table: ``# comment`` lines, the header, then one row per
    sample of the equal-length ``columns``.

    A label column is written verbatim, so a label repeated on many rows is
    formatted once by the caller: a list of ``str`` cells, or a numpy array
    of ASCII byte strings (dtype ``S``).  Every other cell is formatted as
    ``fmt % x``, the same bytes as ``np.savetxt`` with ``fmt``.  A table of
    at least ``_G_MIN_CELLS`` cells, without a ``str`` column, at ``%.<p>g``
    with p <= 14 gets those bytes from :func:`kinereco.gformat.format_g`,
    with the bytes of its ``S`` columns copied in beside them.  A file that
    cannot be written is a FormatError naming ``path``.
    """
    text = [len(c) > 0 and isinstance(c[0], str) for c in columns]
    label = [isinstance(c, np.ndarray) and c.dtype.kind == "S"
             for c in columns]
    k = len(columns)
    n_rows = len(columns[0])
    g = re.fullmatch(r"%\.(\d+)g", fmt)
    digits = 0
    if g and not any(text) and n_rows * k >= _G_MIN_CELLS:
        from .gformat import MAX_DIGITS
        digits = int(g.group(1)) if int(g.group(1)) <= MAX_DIGITS else 0
    row = ",".join(["%s" if t or s else fmt
                    for t, s in zip(text, label)]) + "\n"
    chunk = (max(1, _CELLS_PER_CHUNK // max(k - sum(label), 1)) if digits
             else _ROWS_PER_CHUNK)
    if digits:
        # The byte written before each cell: none before the first cell of a
        # chunk, a newline before the first cell of every other row, and a
        # comma before the others.
        seps = np.tile(np.array([10] + [44] * (k - 1), np.uint8),
                       min(n_rows, chunk)).reshape(-1, k)
        seps[0, 0] = 0
    try:
        with open(path, "wb") as fh:
            fh.write("".join([f"# {comment}\n" for comment in comments]
                             + [",".join(names) + "\n"]).encode("utf-8"))
            # A chunk of rows is formatted at a time; the whole table is never
            # copied.
            for lo in range(0, n_rows, chunk):
                parts = [c[lo:lo + chunk] for c in columns]
                n = len(parts[0])
                if digits:
                    fh.write(_g_rows(parts, label, digits, seps[:n]))
                    fh.write(b"\n")
                    continue
                args = [None] * (n * k)
                for j, (part, t, s) in enumerate(zip(parts, text, label)):
                    args[j::k] = part if t else (part.astype(str) if s
                                                 else part).tolist()
                fh.write(((row * n) % tuple(args)).encode("utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def _g_rows(parts, label, digits, seps):
    """One chunk of :func:`write_table`'s rows at ``%.<digits>g``, as uint8
    text: each cell after its byte of ``seps`` (chunk rows by table
    columns), the numeric cells from format_g and the ``S`` labels, flagged
    in ``label``, copied in beside them, with the NUL bytes dropped."""
    from .gformat import format_g

    n, k = seps.shape
    numbers = [part for part, s in zip(parts, label) if not s]
    cells = np.empty((n, len(numbers)))
    for j, part in enumerate(numbers):
        cells[:, j] = part
    if len(numbers) == k:
        cells = format_g(cells.ravel(), digits, seps.reshape(-1))
        return cells[cells != 0]
    cells = format_g(cells.ravel(), digits,
                     seps[:, [not s for s in label]].ravel())
    width = cells.shape[1]
    cells = cells.reshape(n, -1)
    # One row of bytes per table row: each label after its separator, each
    # number in its format_g cell, which holds its own separator.
    widths = [1 + part.itemsize if s else width
              for part, s in zip(parts, label)]
    m = np.empty((n, sum(widths)), np.uint8)
    at = cell = 0
    for j, (part, s) in enumerate(zip(parts, label)):
        if s:
            m[:, at] = seps[:, j]
            m[:, at + 1:at + widths[j]] = np.ascontiguousarray(part).view(
                np.uint8).reshape(n, -1)
        else:
            m[:, at:at + width] = cells[:, cell:cell + width]
            cell += width
        at += widths[j]
    return m[m != 0]


#: A smaller table, counting the cells of its ``S`` label columns, is
#: formatted by ``%``, with those labels decoded to ``str``: format_g's
#: hundred-odd numpy calls cost about 0.3 ms, and ``%`` was as fast on
#: 3-column tables of up to about 2000 cells, such as ``report``'s time
#: histories.
_G_MIN_CELLS = 2048
#: Numeric cells formatted by one format_g call in :func:`write_table`, in
#: whole rows.  Its temporary arrays then take about 1.5 MB.  A 48000-row
#: session file of 7 columns took 45-62 ms in 1170-row chunks against 64-86
#: ms in 4096-row ones, whose temporaries raised the peak RSS by 5 MB.  A
#: scalogram grid, one numeric column beside three ``S`` labels, goes 8192
#: rows a chunk: a 125114-row grid took 34 ms, against 47 ms in 2048-row
#: chunks and 45 ms in 32768-row ones.
_CELLS_PER_CHUNK = 8192
#: Rows formatted by one ``%`` operation in :func:`write_table`: the tables
#: with a ``str`` column or another format.  Fewer rows hold fewer temporary
#: floats and strings.
_ROWS_PER_CHUNK = 512
