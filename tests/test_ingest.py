import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kinereco import ingest
from kinereco.core import TimeSeries3
from kinereco.errors import ConfigError, DataError, FormatError
from kinereco.ingest import (G_STANDARD, ChannelSpec, ImuRecording, SensorSpec,
                             load_session_config, parse_imu_csv,
                             parse_reference_csv, write_imu_csv)
from kinereco.synth import config_to_json_dict


def simple_spec(sensor_id="imu1", rate=100.0, high_rate=None):
    channels = [ChannelSpec("gyro", rate), ChannelSpec("accel_low", rate)]
    if high_rate is not None:
        channels.append(ChannelSpec("accel_high", high_rate))
    return SensorSpec(sensor_id, "headband", np.array([0.05, 0.0, 0.0]),
                      np.eye(3), tuple(channels))


def write_rows(path, rows, header="time_s,gx,gy,gz,ax,ay,az"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestParseImuCsv:
    def test_units_converted_to_si(self, tmp_path):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[i / 100.0, 90.0, 0.0, 0.0, 1.0, 0.0, 0.0]
                          for i in range(3)])
        rec = parse_imu_csv(path, simple_spec())
        assert rec.gyro.samples[0, 0] == pytest.approx(math.pi / 2, abs=1e-15)
        assert rec.accel_low.samples[0, 0] == pytest.approx(G_STANDARD)

    def test_duplicated_timestamp_names_row(self, tmp_path):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[0.00, 1, 0, 0, 0, 0, 0],
                          [0.01, 1, 0, 0, 0, 0, 0],
                          [0.01, 1, 0, 0, 0, 0, 0]])
        with pytest.raises(DataError, match="row 2"):
            parse_imu_csv(path, simple_spec())

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[0.00, 1, 0, 0, 0, 0, 0],
                          [0.01, 1, 0, float("nan"), 0, 0, 0],
                          [0.02, 1, 0, 0, 0, 0, 0]])
        with pytest.raises(DataError, match="NaN"):
            parse_imu_csv(path, simple_spec())

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[0.0, 1, 0, 0], [0.01, 1, 0, 0]],
                   header="time_s,gx,gy,gz")
        with pytest.raises(FormatError, match="ax"):
            parse_imu_csv(path, simple_spec())

    def test_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[i / 50.0, 1, 0, 0, 0, 0, 0] for i in range(10)])
        with pytest.raises(DataError, match="rate"):
            parse_imu_csv(path, simple_spec(rate=100.0))

    def test_column_map_adapts_vendor_headers(self, tmp_path):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[i / 100.0, 5, 0, 0, 0, 0, 1] for i in range(4)],
                   header="Time (s),Gyro X,gy,gz,ax,ay,az")
        cmap = {"time_s": "Time (s)", "gx": "Gyro X"}
        rec = parse_imu_csv(path, simple_spec(), column_map=cmap)
        assert rec.gyro.samples[0, 0] == pytest.approx(np.deg2rad(5.0))

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(8)
        spec = simple_spec(rate=1125.0, high_rate=1600.0)
        rec = ImuRecording(
            "imu1",
            gyro=TimeSeries3(0.0, 1125.0, rng.uniform(-30, 30, size=(200, 3))),
            accel_low=TimeSeries3(0.0, 1125.0, rng.uniform(-150, 150, size=(200, 3))),
            accel_high=TimeSeries3(0.0, 1600.0, rng.uniform(-500, 500, size=(285, 3))),
        )
        path = tmp_path / "imu1.csv"
        write_imu_csv(path, rec)
        back = parse_imu_csv(path, spec)
        assert_allclose(back.gyro.samples, rec.gyro.samples, atol=1e-9)
        assert_allclose(back.accel_low.samples, rec.accel_low.samples, atol=1e-9)
        assert_allclose(back.accel_high.samples, rec.accel_high.samples, atol=1e-9)
        assert back.accel_high.sample_rate == 1600.0

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="cannot open"):
            parse_imu_csv(tmp_path / "absent.csv", simple_spec())

    def test_missing_high_companion_rejected(self, tmp_path):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[i / 100.0, 1, 0, 0, 0, 0, 0] for i in range(4)])
        with pytest.raises(FormatError, match="_high"):
            parse_imu_csv(path, simple_spec(high_rate=1600.0))


def kind_subsets(spec):
    """Every non-empty subset of the kinds ``spec`` declares."""
    kinds = [c.kind for c in spec.channels]
    return [combo for r in range(1, len(kinds) + 1)
            for combo in itertools.combinations(kinds, r)]


class TestChannelSubsets:
    """``channels=`` returns exactly the full parse's channels it names."""

    @pytest.fixture(scope="class")
    def session(self, small_pipeline):
        config = load_session_config(small_pipeline["config"])
        files = [(small_pipeline["session"] / f"{spec.id}.csv", spec)
                 for spec in config.headband_sensors]
        ref = config.reference_sensor
        files += [(path, ref) for path in sorted(
            small_pipeline["session"].glob(f"{ref.id}_ev*.csv"))]
        return config, files

    def test_subset_matches_full_parse(self, session):
        config, files = session
        assert len(files) == 5 + 3
        for path, spec in files:
            full = parse_imu_csv(path, spec, config.column_map)
            for subset in kind_subsets(spec):
                part = parse_imu_csv(path, spec, config.column_map, subset)
                for kind in ingest.CHANNEL_KINDS:
                    got = part.channel(kind)
                    if kind not in subset:
                        assert got is None, (path.name, subset, kind)
                        continue
                    want = full.channel(kind)
                    assert got.samples.tobytes() == want.samples.tobytes()
                    assert got.start_time == want.start_time
                    assert got.sample_rate == want.sample_rate

    def test_unknown_or_undeclared_kind_rejected(self, tmp_path):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[i / 100.0, 1, 0, 0, 0, 0, 0] for i in range(4)])
        with pytest.raises(ConfigError, match="magnetometer"):
            parse_imu_csv(path, simple_spec(), channels=("gyro", "magnetometer"))
        with pytest.raises(ConfigError, match="accel_high"):
            parse_imu_csv(path, simple_spec(), channels=("accel_high",))

    def test_spec_checks_run_before_any_file_is_opened(self, tmp_path):
        spec = SensorSpec("imu1", "headband", np.zeros(3), np.eye(3),
                          (ChannelSpec("gyro", 1125.0),
                           ChannelSpec("accel_low", 1600.0),
                           ChannelSpec("accel_high", 1600.0)))
        with pytest.raises(ConfigError, match="accel_low rate"):
            parse_imu_csv(tmp_path / "absent.csv", spec,
                          channels=("accel_high",))

    def test_companion_alone_leaves_main_file_unread(self, tmp_path):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[0.0, 1, 0, "nan", 0, 0, 0], [0.01, 1, 0, 0, 0, 0, 0]])
        write_rows(path.with_name("imu1_high.csv"),
                   [[i / 160.0, 2, 0, 0] for i in range(3)],
                   header="time_s,hx,hy,hz")
        spec = simple_spec(high_rate=160.0)
        rec = parse_imu_csv(path, spec, channels=("accel_high",))
        assert rec.gyro is None and rec.accel_low is None
        assert rec.accel_high.samples[0, 0] == pytest.approx(2 * G_STANDARD)
        with pytest.raises(DataError, match="NaN"):
            parse_imu_csv(path, spec, channels=("gyro",))

    def test_main_file_read_whole_for_one_channel(self, tmp_path):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[0.0, 1, 0, 0, 0, 0, 0], [0.01, 1, 0, 0, "nan", 0, 0]])
        with pytest.raises(DataError, match="NaN"):
            parse_imu_csv(path, simple_spec(), channels=("gyro",))

    def test_no_channels_opens_no_file(self, tmp_path):
        rec = parse_imu_csv(tmp_path / "absent.csv", simple_spec(), channels=())
        assert (rec.gyro, rec.accel_low, rec.accel_high) == (None, None, None)


def reference_spec():
    return SensorSpec("mp", "reference", np.array([0.075, 0.0, -0.035]),
                      np.eye(3), (ChannelSpec("gyro", 3200.0),
                                  ChannelSpec("accel_high", 3200.0)))


def write_reference_block(path, n, rate=3200.0):
    with open(path, "w") as fh:
        fh.write("time_s,gx,gy,gz,hx,hy,hz\n")
        for i in range(n):
            fh.write(f"{i / rate},1,0,0,0.5,0,0\n")


class TestParseReferenceCsv:
    def test_400_sample_block_accepted(self, tmp_path):
        path = tmp_path / "mp_ev001.csv"
        write_reference_block(path, 400)
        rec = parse_reference_csv(path, reference_spec())
        assert len(rec.gyro) == 400
        assert rec.accel_high is not None and rec.accel_low is None

    def test_short_block_rejected(self, tmp_path):
        path = tmp_path / "mp_ev001.csv"
        write_reference_block(path, 200)
        with pytest.raises(DataError, match="short event block"):
            parse_reference_csv(path, reference_spec())

    def test_long_block_rejected(self, tmp_path):
        path = tmp_path / "mp_ev001.csv"
        write_reference_block(path, 800)
        with pytest.raises(DataError, match="long event block"):
            parse_reference_csv(path, reference_spec())


def test_recording_map_passes_each_present_channel_with_its_kind():
    gyro = TimeSeries3(0.0, 100.0, np.zeros((4, 3)))
    high = TimeSeries3(0.5, 200.0, np.ones((6, 3)))
    rec = ImuRecording("imu1", gyro, None, high)
    seen = []
    moved = rec.map(lambda kind, ts: seen.append(kind) or ts.shifted(1.0))
    assert seen == ["gyro", "accel_high"]
    assert moved.sensor_id == "imu1" and moved.accel_low is None
    assert (moved.gyro.start_time, moved.accel_high.start_time) == (1.0, 1.5)


class TestConfigNumbers:
    @pytest.mark.parametrize("block, cls", [
        ("trigger", ingest.TriggerConfig), ("filter", ingest.FilterConfig),
        ("cfc", ingest.CfcConfig), ("window", ingest.WindowConfig)])
    @pytest.mark.parametrize("value", [
        "1", True, None, [1.0], math.nan, math.inf, -1.0, 10 ** 400])
    def test_every_field_rejects_a_bad_number(self, block, cls, value):
        for name in cls.__dataclass_fields__:
            with pytest.raises(ConfigError, match=rf"^{block}\.{name} must be"):
                cls(**{name: value})

    def test_zero_allowed_only_for_minimum_duration_and_pre(self):
        assert ingest.TriggerConfig(min_duration_ms=0).min_duration_ms == 0
        assert ingest.WindowConfig(pre_ms=0.0).pre_ms == 0.0
        for cls, name in ((ingest.TriggerConfig, "threshold_g"),
                          (ingest.FilterConfig, "end_time_ms"),
                          (ingest.CfcConfig, "trans"),
                          (ingest.WindowConfig, "reference_post_ms")):
            with pytest.raises(ConfigError, match=f"{name} must be a finite "
                                                  "number > 0, got 0"):
                cls(**{name: 0})

    def test_numbers_are_kept_as_given(self):
        cfc = ingest.CfcConfig(trans=600, ang_vel=np.float64(100.5))
        assert type(cfc.trans) is int and type(cfc.ang_vel) is np.float64


class TestSessionConfig:
    def test_defaults_applied_when_blocks_absent(self, tmp_path, config):
        raw = config_to_json_dict(config)
        for key in ("filter", "trigger", "cfc", "window"):
            raw.pop(key)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        loaded = load_session_config(path)
        assert loaded.filter.end_time_ms == 150.0
        assert loaded.filter.coeff_threshold == 0.1
        assert loaded.filter.max_cutoff_hz == 180.0
        assert loaded.filter.accel_prefilter_hz == 260.0
        assert loaded.trigger.threshold_g == 3.0
        assert loaded.trigger.min_duration_ms == 3.0

    def test_minimal_valid_config_parses(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_json_dict(config)))
        loaded = load_session_config(path)
        assert len(loaded.sensors) == 6
        assert loaded.reference_sensor is not None

    def test_collinear_a3g1_triple_rejected(self, tmp_path, config):
        raw = config_to_json_dict(config)
        ids = set(raw["a3g1_sensors"])
        for i, s in enumerate(raw["sensors"]):
            if s["id"] in ids:
                s["position_m"] = [0.03 * i, 0.0, 0.0]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="collinear"):
            load_session_config(path)

    def test_non_orthonormal_rotation_rejected(self, tmp_path, config):
        raw = config_to_json_dict(config)
        raw["sensors"][0]["orientation_row_major"] = [1, 0, 0, 0, 1, 0, 0, 0, 2]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_session_config(path)

    def test_trigger_threshold_in_si(self, config):
        assert config.trigger.threshold == pytest.approx(3.0 * G_STANDARD)
        assert config.trigger.min_duration == pytest.approx(0.003)

    def test_unknown_a3g1_sensor_rejected(self, config):
        from dataclasses import replace
        with pytest.raises(ConfigError, match="not in sensor list"):
            replace(config, a3g1_sensor_ids=("nope", "bt_back", "bt_left_outer"))


class TestWriteRows:
    """An all-float table is written as exactly np.savetxt's bytes."""

    SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
               -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1.0, -7.0,
               42.0, 2.0 ** 53, 123456789012345.0, 0.1, 1.0 / 3.0]

    @pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097])
    @pytest.mark.parametrize("fmt", ["%.14g", "%.12g", "%.9g"])
    def test_matches_savetxt(self, tmp_path, fmt, n_rows):
        rng = np.random.default_rng(n_rows)
        cells = n_rows * 7
        values = rng.standard_normal(cells) * 10.0 ** rng.integers(-315, 300, cells)
        if cells >= len(self.SPECIAL):
            values[:len(self.SPECIAL)] = self.SPECIAL
            values[-len(self.SPECIAL):] = self.SPECIAL
        else:
            values[:] = rng.choice(self.SPECIAL, cells)
        data = values.reshape(n_rows, 7)
        names = [f"c{j}" for j in range(7)]

        want_path = tmp_path / "savetxt.csv"
        with open(want_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# k=v\n" + ",".join(names) + "\n")
            np.savetxt(fh, data, delimiter=",", fmt=fmt)
        path = tmp_path / "table.csv"
        ingest.write_table(path, names, [data[:, j] for j in range(7)],
                           ("k=v",), fmt)
        got = path.read_bytes()
        assert got == want_path.read_bytes()
        assert got.count(b"\n") == n_rows + 2


class TestWriteTable:
    """Columns of str cells are written verbatim next to formatted floats."""

    SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300,
               -2.5e-310, 1.0 / 3.0]

    @pytest.mark.parametrize("n_rows", [0, 1, 511, 512, 513, 1100])
    def test_string_and_float_columns(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        floats = []
        for _ in range(2):
            values = rng.standard_normal(n_rows) * 10.0 ** rng.integers(
                -300, 300, n_rows)
            values[::3] = np.resize(self.SPECIAL, len(values[::3]))
            floats.append(values)
        labels = ["%.9g" % x for x in rng.standard_normal(7)] + ["nan", "-0"]
        axis = ["2"] * n_rows
        text = (labels * n_rows)[:n_rows]
        columns = (axis, floats[0], text, floats[1])
        path = tmp_path / "table.csv"
        ingest.write_table(path, ("a", "b", "c", "d"), columns, ("k=v",), "%.9g")

        rows = ["# k=v", "a,b,c,d"] + [
            f"{a},{'%.9g' % b},{c},{'%.9g' % d}"
            for a, b, c, d in zip(*columns)]
        assert path.read_bytes() == "".join(r + "\n" for r in rows).encode()

