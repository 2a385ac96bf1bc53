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
    """The bulk row writer produces exactly np.savetxt's bytes."""

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

        def written(write, name):
            path = tmp_path / name
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                write(fh)
            return path.read_bytes()

        want = written(lambda fh: np.savetxt(fh, data, delimiter=",", fmt=fmt),
                       "savetxt.csv")
        got = written(lambda fh: ingest.write_rows(fh, data, fmt), "bulk.csv")
        assert got == want
        assert got.count(b"\n") == n_rows
