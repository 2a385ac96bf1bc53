import itertools
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kinereco import detect, gformat, ingest
from kinereco.core import TimeSeries3
from kinereco.errors import ConfigError, DataError, FormatError, KinerecoError
from kinereco.ingest import (G_STANDARD, ChannelSpec, ImuRecording, SensorSpec,
                             load_session_config, parse_imu_csv,
                             parse_reference_csv)
from kinereco.synth import config_to_json_dict

from conftest import write_recording


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

    @pytest.mark.parametrize("cell", ["inf", "-inf"])
    def test_infinite_cell_names_file_and_row(self, tmp_path, cell):
        path = tmp_path / "imu1.csv"
        write_rows(path, [[0.00, 1, 0, 0, 0, 0, 0],
                          [0.01, 1, 0, 0, 0, 0, 0],
                          [0.02, 1, 0, 0, 0, cell, 0]])
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "
                                            f"infinite cell at data row 2$"):
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
        write_recording(path, rec)
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
        with pytest.raises(ConfigError, match="accel_low rate"):
            spec = SensorSpec("imu1", "headband", np.zeros(3), np.eye(3),
                              (ChannelSpec("gyro", 1125.0),
                               ChannelSpec("accel_low", 1600.0),
                               ChannelSpec("accel_high", 1600.0)))
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

    @pytest.mark.parametrize("window", [None, ingest.WindowConfig()],
                             ids=["default", "config"])
    @pytest.mark.parametrize("n, error", [
        (399, "short event block (124.38 ms < 125.00 ms)"),
        (400, None), (401, None), (402, None),
        (403, "long event block (125.62 ms > 125.00 ms)"),
    ])
    def test_default_window_is_400_periods_within_one(self, tmp_path, n,
                                                      error, window):
        """The block the default window cuts, 100 + 300 sample periods at
        3200 Hz, within one period: the bounds of a fixed 125 ms block."""
        path = tmp_path / "mp_ev001.csv"
        write_reference_block(path, n)
        args = () if window is None else (None, window)
        if error is None:
            assert len(parse_reference_csv(path, reference_spec(), *args)
                       .gyro) == n
        else:
            with pytest.raises(DataError) as exc:
                parse_reference_csv(path, reference_spec(), *args)
            assert str(exc.value) == f"{path}: {error}"

    @pytest.mark.parametrize("pre_ms, post_ms, periods", [
        (40.0, 60.0, 128 + 192),
        # 100.16 and 300.16 periods, each rounded out.
        (31.3, 93.8, 101 + 301),
        (0.001, 0.5, 1 + 2),
    ])
    def test_block_length_comes_from_the_window(self, tmp_path, pre_ms,
                                                post_ms, periods):
        window = ingest.WindowConfig(pre_ms=pre_ms, reference_post_ms=post_ms)
        path = tmp_path / "mp_ev001.csv"
        write_reference_block(path, periods + 1)
        rec = parse_reference_csv(path, reference_spec(), None, window)
        assert len(rec.gyro) == periods + 1
        write_reference_block(path, periods + 3)
        with pytest.raises(DataError, match=re.escape(
                f"long event block ({(periods + 2) / 3.2:.2f} ms > "
                f"{periods / 3.2:.2f} ms)")):
            parse_reference_csv(path, reference_spec(), None, window)


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


class TestInputRule:
    """``check_number``, ``check_object`` and ``check_vector``: the one
    boundary rule every loader calls."""

    @pytest.mark.parametrize("value", [0, -3, 2.5, -1e308, sys.float_info.max,
                                       10 ** 300, np.float64(0.25)])
    def test_a_finite_number_is_returned_as_given(self, value):
        assert ingest.check_number(value, "x") is value

    @pytest.mark.parametrize("value", [
        True, False, None, "1", [1.0], {}, math.nan, math.inf, -math.inf,
        10 ** 400, -10 ** 400, np.int64(3)],
        ids=["true", "false", "none", "str", "list", "dict", "nan", "inf",
             "neg_inf", "big_int", "big_neg_int", "numpy_int"])
    def test_anything_else_is_rejected(self, value):
        with pytest.raises(ConfigError, match=r"^x must be a finite number, "
                                              r"got "):
            ingest.check_number(value, "x")

    @pytest.mark.parametrize("sign, ok, bad", [
        (">= 0", [0, 0.0, 5e-324], [-5e-324, -1]),
        ("> 0", [5e-324, 1], [0, -0.0, -1])])
    def test_sign_bound(self, sign, ok, bad):
        for value in ok:
            assert ingest.check_number(value, "x", sign=sign) == value
        for value in bad:
            with pytest.raises(ConfigError, match=rf"^x must be a finite "
                                                  rf"number {sign}, got "):
                ingest.check_number(value, "x", sign=sign)

    @pytest.mark.parametrize("value", [None, 1, 2.5, True, ["a"], {}, b"a"],
                             ids=["none", "int", "float", "bool", "list",
                                  "dict", "bytes"])
    def test_text_is_a_str(self, value):
        assert ingest.check_text("", "x") == ""
        assert ingest.check_text("bt_back", "x") == "bt_back"
        with pytest.raises(ConfigError, match=r"^x must be a string, got "):
            ingest.check_text(value, "x")

    def test_the_caller_picks_the_error_class(self):
        with pytest.raises(DataError, match="^noise.x must be"):
            ingest.check_number("1", "noise.x", DataError)
        with pytest.raises(FormatError, match="^p: y must be an object, got list"):
            ingest.check_object([], "p: y", FormatError)

    @pytest.mark.parametrize("value", [None, [], "{}", 3.5])
    def test_an_object_is_a_dict(self, value):
        assert ingest.check_object({"a": 1}, "x") == {"a": 1}
        with pytest.raises(ConfigError, match="^x must be an object"):
            ingest.check_object(value, "x")

    @pytest.mark.parametrize("value", [[1, 2.5, -3], (1, 2.5, -3),
                                       np.array([1.0, 2.5, -3.0])])
    def test_a_vector_is_a_read_only_float_copy(self, value):
        out = ingest.check_vector(value, 3, "v")
        assert out.dtype == np.float64 and not out.flags.writeable
        assert out.tolist() == [1.0, 2.5, -3.0]

    @pytest.mark.parametrize("value, message", [
        ([1, 2], r"v must be a list of 3 numbers"),
        ([1, 2, 3, 4], r"v must be a list of 3 numbers"),
        (np.zeros((3, 1)), r"v\[0\] must be a finite number"),
        ("abc", r"v must be a list of 3 numbers"),
        ({"a": 1}, r"v must be a list of 3 numbers"),
        (["0.1", 0, 0], r"v\[0\] must be a finite number, got '0.1'"),
        ([0, 10 ** 400, 0], r"v\[1\] must be a finite number, got an integer "
                            r"of 401 digits$"),
        ([0, 0, math.nan], r"v\[2\] must be a finite number, got nan")])
    def test_a_bad_vector_names_itself_or_the_bad_entry(self, value, message):
        with pytest.raises(ConfigError, match="^" + message):
            ingest.check_vector(value, 3, "v")


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

    @pytest.mark.parametrize("column_map, names", [
        ({"gx": "gy"}, ("gx", "gy")),
        ({"hz": "time_s"}, ("time_s", "hz")),
        ({"ax": "acc", "hx": "acc"}, ("ax", "hx")),
    ])
    def test_two_columns_from_one_file_column_rejected(self, config,
                                                       column_map, names):
        from dataclasses import replace
        with pytest.raises(ConfigError, match=(
                f"canonical columns '{names[0]}' and '{names[1]}' would both "
                f"read file column")):
            replace(config, column_map=column_map)

    def test_swapped_columns_accepted(self, config):
        from dataclasses import replace
        swapped = replace(config, column_map={"gx": "gy", "gy": "gx"})
        assert swapped.column_map == {"gx": "gy", "gy": "gx"}

    def test_unknown_key_rejected_in_the_library(self, config):
        """A config built in the library checks column_map's keys as the
        loader does, without the file name the loader adds."""
        from dataclasses import replace
        with pytest.raises(ConfigError) as caught:
            replace(config, column_map={"gX": "gyro_x"})
        assert str(caught.value) == (
            "column_map has an unknown key 'gX' (known keys: time_s, gx, gy, "
            "gz, ax, ay, az, hx, hy, hz)")


class TestWriteRows:
    """An all-float table is written as exactly np.savetxt's bytes."""

    SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
               -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1.0, -7.0,
               42.0, 2.0 ** 53, 123456789012345.0, 0.1, 1.0 / 3.0]

    # 7 columns: format_g from 293 rows on, 1170 rows to a chunk.
    @pytest.mark.parametrize("n_rows", [0, 1, 292, 293, 1169, 1170, 1171,
                                        2340, 2341, 4095, 4096, 4097])
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


def percent_cells(values, p, seps):
    """The bytes of ``"%.<p>g" % v`` for each value, each preceded by its
    separator byte (0: none): format_g's reference."""
    return b"".join((bytes([sep]) if sep else b"") + (f"%.{p}g" % v).encode()
                    for sep, v in zip(seps.tolist(), values.tolist()))


def exact_ties(p, rng, n):
    """Floats exactly halfway between two p-digit decimals: K + f / 2**m with
    f odd and K of p + 1 - m digits, whose last decimal digit is a 5."""
    out = []
    for _ in range(n):
        m = int(rng.integers(1, min(p, 8) + 1))
        width = p + 1 - m
        k = int(rng.integers(10 ** (width - 1), 10 ** width))
        f = 2 * int(rng.integers(0, 2 ** (m - 1))) + 1
        out.append((k * 2 ** m + f) / 2 ** m)
    return np.array(out)


class TestFormatG:
    """format_g gives the bytes of Python's ``%``, which rounds correctly,
    ties to even on the exact binary value."""

    SWITCH_POINTS = [9.99995e-5, 1e-4, 99999999999999.5, 1e14, 9.5, 99.95,
                     0.00099999999999999995, 999999999.5, 999999999999.5]

    @staticmethod
    def check(values, p):
        values = np.asarray(values, dtype=np.float64)
        seps = np.full(len(values), 44, np.uint8)
        seps[::3] = 10
        seps[:1] = 0
        got = gformat.format_g(values, p, seps)
        assert got == percent_cells(values, p, seps)

    @pytest.mark.parametrize("p", [9, 12, 14])
    def test_exact_ties(self, p):
        ties = exact_ties(p, np.random.default_rng(p), 4000)
        digits = [len(f"{t:.{p + 8}e}".split("e")[0].rstrip("0")) - 1
                  for t in ties[:50]]
        assert set(digits) == {p + 1}
        self.check(np.concatenate([ties, -ties]), p)

    @pytest.mark.parametrize("p", [9, 12, 14])
    def test_switch_points_and_decade_edges(self, p):
        edges = 10.0 ** np.arange(-30, 31)
        values = np.concatenate([self.SWITCH_POINTS, edges])
        values = np.concatenate([values, np.nextafter(values, 0),
                                 np.nextafter(values, np.inf)])
        self.check(np.concatenate([values, -values]), p)

    @pytest.mark.parametrize("p", [9, 12, 14])
    def test_zeros_subnormals_and_non_finite(self, p):
        tiny = np.array([5e-324, 2.5e-310, 2.2250738585072014e-308,
                         np.nextafter(2.2250738585072014e-308, 0)])
        self.check([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, *tiny,
                    *-tiny, 1.0, 0.0, 1.7976931348623157e308], p)

    @pytest.mark.parametrize("p", [9, 12, 14])
    def test_random_bit_patterns(self, p):
        rng = np.random.default_rng(100 + p)
        bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64,
                            endpoint=False)
        self.check(bits.view(np.float64), p)

    @pytest.mark.parametrize("p", [9, 12, 14])
    def test_an_exponent_one_off_is_mended(self, p, monkeypatch):
        """floor(log10|x|) one off either way, which a log10 that rounds can
        give near a power of ten, is checked against the exact product."""
        rng = np.random.default_rng(200 + p)
        decade = gformat._decade
        monkeypatch.setattr(gformat, "_decade", lambda a: (
            decade(a) + rng.integers(-1, 2, len(a))))
        edges = 10.0 ** np.arange(-25, 20)
        values = np.concatenate([
            rng.standard_normal(20000) * 10.0 ** rng.integers(-25, 20, 20000),
            exact_ties(p, rng, 2000), edges, np.nextafter(edges, 0),
            np.nextafter(edges, np.inf), self.SWITCH_POINTS])
        self.check(np.concatenate([values, -values]), p)

    @pytest.mark.parametrize("p", range(1, 15))
    def test_every_precision(self, p):
        rng = np.random.default_rng(p)
        values = (rng.standard_normal(3000)
                  * 10.0 ** rng.integers(-12, 16, 3000))
        self.check(np.concatenate([values, exact_ties(p, rng, 300)]), p)


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



def first_bad_row(path, header):
    """The first data line of ``path`` that ``np.loadtxt`` rejects, found one
    line and one cell at a time; None if every line parses."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    at = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
    body = [text for text in (ln.split("#", 1)[0].strip()
                              for ln in lines[at + 1:]) if text]
    for row, text in enumerate(body):
        cells = text.split(",")
        if len(cells) != len(header):
            return (f"data row {row} has {len(cells)} cells, the header has "
                    f"{len(header)}")
        for name, cell in zip(header, cells):
            try:
                value = np.loadtxt([cell], delimiter=",") if cell.strip() \
                    else None
            except ValueError:
                value = None
            if value is None or value.shape != ():
                return (f"unparseable cell at data row {row}, column "
                        f"{name!r}: {cell.strip()!r}")
    return None


def old_read_csv_columns(path):
    """The numeric table reader before ``read_table``, kept as the oracle,
    with its parse errors located by ``first_bad_row``."""
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
        except ValueError as exc:
            raise DataError(f"{path}: " + (first_bad_row(path, header) or
                                           f"unparseable cell ({exc})")) from None
    if data.size == 0:
        raise DataError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise FormatError(
            f"{path}: {data.shape[1]} data columns vs {len(header)} header names"
        )
    return header, data, meta


def old_text_lines(path):
    """The text table reader before ``read_table``, kept as the oracle."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    except OSError as exc:
        raise FormatError(f"cannot open {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None


#: Hand-made tables: header and data layouts the session files never have.
EDGE_TABLES = {
    "comments_after_header": b"# a=1\n# b = two = 2\ntime_s,x\n# c=3\n0,1\n"
                             b"# note\n0.5,2\n",
    "blank_lines": b"\n  \n# k=v\n\n t , x \n\n0,1\n\n1,2\n  \n",
    "comment_without_key": b"#\n# plain words\n#=empty key\ntime_s\n1\n",
    "header_only": b"# k=v\ntime_s,x\n",
    "header_only_with_comments": b"time_s,x\n# c=1\n\n",
    "bad_cell": b"time_s,x\n0,1\n0.5,abc\n",
    "empty_cell_after_comments": b"time_s,x\n0,1\n# c\n\n1,2 # d\n2,\n3,4\n",
    "bad_cell_before_short_row": b"time_s,x\n0,1\n1,1_0\n2\n",
    "long_row": b"time_s,x\n0,1\n1,2,3\n",
    "nan_and_inf_cells": b"time_s,x\n0,nan\n1,-inf\n2,inf\n",
    "short_row": b"time_s,x\n0,1\n1\n",
    "column_count": b"time_s,x,y\n0,1\n1,2\n",
    "non_utf8_comment": b"#\xff\ntime_s,x\n0,1\n",
    "non_utf8_header": b"time_s,\xfex\n0,1\n",
    "non_utf8_row": b"time_s,x\n0,1\n#\xff\n1,2\n",
    "no_header": b"# k=v\n\n",
    "empty": b"",
    "crlf": b"# k=v\r\ntime_s,x\r\n0,1\r\n1,2\r\n",
}


def outcome(read, path):
    try:
        return "ok", read(path)
    except KinerecoError as exc:
        return type(exc), str(exc)


class TestReadTable:
    """``read_table`` gives the old readers' arrays, headers, comments and
    errors, byte for byte."""

    @staticmethod
    def assert_numeric_same(path):
        old_kind, old = outcome(old_read_csv_columns, path)
        new_kind, new = outcome(ingest.read_table, path)
        assert new_kind == old_kind
        if old_kind != "ok":
            assert new == old
            return
        header, data, meta = old
        new_meta, new_header, rows = new
        assert (new_header, new_meta) == (header, meta)
        assert list(new_meta) == list(meta)
        assert rows.dtype == data.dtype and rows.shape == data.shape
        assert rows.tobytes() == data.tobytes()

    @staticmethod
    def assert_text_same(path):
        old_kind, old = outcome(old_text_lines, path)
        new_kind, new = outcome(
            lambda p: ingest.read_table(p, numeric=False), path)
        if old_kind != "ok":
            assert (new_kind, new) == (old_kind, old)
            return
        if not old:
            assert (new_kind, new) == (FormatError, f"{path}: no header row found")
            return
        _, header, rows = new
        assert header == [c.strip() for c in old[0].split(",")]
        assert [",".join(cells) for cells in rows] == old[1:]

    @pytest.mark.parametrize("name", [
        "bt_back.csv", "bt_back_high.csv", "bt_left_inner_high.csv",
        "mouthpiece_ev001.csv", "labels.csv", "kin/hb_ev001.csv",
        "kin/ref_ev002.csv", "events.csv"])
    def test_session_files(self, small_pipeline, name):
        root = small_pipeline["root"]
        path = root / name if "/" in name or name == "events.csv" else \
            small_pipeline["session"] / name
        assert path.exists()
        self.assert_numeric_same(path)
        self.assert_text_same(path)

    @pytest.mark.parametrize("name", sorted(EDGE_TABLES))
    def test_edge_tables(self, tmp_path, name):
        path = tmp_path / "table.csv"
        path.write_bytes(EDGE_TABLES[name])
        self.assert_numeric_same(path)
        self.assert_text_same(path)

    @pytest.mark.parametrize("row, cell", [(4095, "1,,2"), (4096, "x,1,2"),
                                           (9000, "1,2"), (9999, "1,2,3,4")])
    def test_parse_error_past_the_first_block_of_rows(self, tmp_path, row,
                                                      cell):
        lines = [f"{i},{i / 7:.6f},-{i}" for i in range(10000)]
        lines[row] = cell
        path = tmp_path / "table.csv"
        path.write_text("# k=v\nt,x,y\n" + "\n".join(lines) + "\n")
        self.assert_numeric_same(path)
        with pytest.raises(DataError, match=f"data row {row}[ ,]"):
            ingest.read_table(path)

    def test_missing_file(self, tmp_path):
        self.assert_numeric_same(tmp_path / "absent.csv")
        self.assert_text_same(tmp_path / "absent.csv")


class TestTableClock:
    """A measured clock is the one the kinematics reader computed inline."""

    @pytest.mark.parametrize("name", ["hb_ev001.csv", "hb_ev003.csv",
                                      "ref_ev001.csv", "ref_ev002.csv"])
    def test_measured_rate_matches_median_step(self, small_pipeline, name):
        path = small_pipeline["kin"] / name
        _, header, data = ingest.read_table(path)
        t = data[:, header.index("t_s")]
        start, rate = ingest.table_clock(t, path, "t_s")
        assert repr(start) == repr(float(t[0]))
        assert repr(rate) == repr(1.0 / float(np.median(np.diff(t))))

    @pytest.mark.parametrize("times, rate, message", [
        ([0.0, float("nan"), 0.2], 10.0, "column 't' is not finite at data row 1"),
        ([float("-inf"), 0.1, 0.2], None, "column 't' is not finite at data row 0"),
        ([0.0, 0.1, 0.1], 10.0, "column 't' does not increase at data row 2"),
        ([0.0, 0.05, 0.1], 10.0, "measured rate 20.00 Hz does not match"),
        ([0.0, 0.1, 0.2, 0.33, 0.4], None, "non-uniform sampling at data row 3"),
        ([0.0], None, "column 't' needs 2 rows to measure its rate"),
    ], ids=["nan", "neg_inf", "repeat", "rate", "off_grid", "one_row"])
    def test_rejects(self, times, rate, message):
        with pytest.raises(DataError, match=f"^table.csv: {message}"):
            ingest.table_clock(np.array(times), "table.csv", "t", rate)

    @pytest.mark.parametrize("rate", [None, 1125.0])
    @pytest.mark.parametrize("step", [0.4, -0.3])
    def test_first_time_off_the_grid_names_row_0(self, rate, step):
        t = 3.25 + np.arange(3000) / 1125.0
        t[0] += step / 1125.0
        by = abs(step) / 1125.0 * 1e3
        with pytest.raises(DataError, match=rf"^table.csv: non-uniform sampling "
                                            rf"at data row 0 \(off grid by "
                                            rf"{by:.3f} ms\)$"):
            ingest.table_clock(t, "table.csv", "t", rate)

    @pytest.mark.parametrize("lo, hi", [(1, 1600), (500, 3000), (1600, 3000)])
    def test_a_step_in_the_clock_names_a_row_after_it(self, lo, hi):
        """As after a deleted or a duplicated line: the rows from ``lo`` to
        ``hi`` are a sample late, and one of them is named."""
        t = 3.25 + np.arange(3000) / 1125.0
        t[lo:hi] += 1 / 1125.0
        with pytest.raises(DataError, match="non-uniform sampling") as info:
            ingest.table_clock(t, "table.csv", "t", 1125.0)
        assert lo <= int(str(info.value).split("data row ")[1].split()[0]) < hi

    def test_one_row_at_a_declared_rate(self):
        assert ingest.table_clock(np.array([2.5]), "table.csv", "t", 8.0) == (2.5, 8.0)


def edit_row(path, row, column, cell):
    """The CSV at ``path`` with data row ``row``'s ``column`` set to
    ``cell``, or the row cut before ``column`` when ``cell`` is None."""
    lines = path.read_text().splitlines(keepends=True)
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cells = lines[head + 1 + row].rstrip("\n").split(",")
    k = lines[head].strip().split(",").index(column)
    cells = cells[:k] if cell is None else cells[:k] + [cell] + cells[k + 1:]
    lines[head + 1 + row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


class TestWindowedRead:
    """``parse_imu_csv(..., windows=...)`` against the full parse: the same
    clock and length for each channel, bit-identical excerpts of every
    window, and the same error text for a bad cell inside a window."""

    RATE, HIGH, START, N, M = 1125.0, 1600.0, 3.25, 3000, 4300
    #: ``(t0, pre, post)`` of reconstruct's padded window.
    PRE, POST = 0.03325, 0.152

    @pytest.fixture(params=[1 << 20, 4096, 97], ids=["1MiB", "4KiB", "97B"])
    def scan_bytes(self, request, monkeypatch):
        """The chunk size of the line scan: the default, and sizes that
        split lines and ranges across chunks."""
        monkeypatch.setattr(ingest, "_SCAN_BYTES", request.param)
        return request.param

    @pytest.fixture
    def path(self, tmp_path, scan_bytes):
        rng = np.random.default_rng(3)

        def series(rate, n):
            return TimeSeries3(self.START, rate, rng.normal(0, 50, (n, 3)))

        path = tmp_path / "imu1.csv"
        write_recording(path, ImuRecording(
            "imu1", series(self.RATE, self.N), series(self.RATE, self.N),
            series(self.HIGH, self.M)), ("manifest_sha256=0",))
        return path

    @property
    def spec(self):
        return simple_spec(rate=self.RATE, high_rate=self.HIGH)

    def windows(self, triggers):
        return [(t, self.PRE, self.POST) for t in triggers]

    def excerpts(self, rec, triggers):
        """What reconstruct cuts from ``rec`` at each trigger: the excerpts'
        clocks and bytes, or the error."""
        out = []
        for t in triggers:
            try:
                window = detect.extract_window(rec, t, self.PRE, self.POST)
            except KinerecoError as exc:
                out.append((type(exc), str(exc)))
                continue
            out.append([(kind, ts.start_time, ts.sample_rate,
                         ts.samples.tobytes())
                        for kind in ingest.CHANNEL_KINDS
                        if (ts := window.channel(kind)) is not None])
        return out

    def assert_same(self, path, triggers):
        full = parse_imu_csv(path, self.spec)
        part = parse_imu_csv(path, self.spec, windows=self.windows(triggers))
        for kind in ingest.CHANNEL_KINDS:
            a, b = full.channel(kind), part.channel(kind)
            assert (b.start_time, b.sample_rate, len(b)) == (
                a.start_time, a.sample_rate, len(a))
        assert self.excerpts(part, triggers) == self.excerpts(full, triggers)
        return full, part

    def test_windows_at_the_first_and_last_rows(self, path):
        first = self.START + self.PRE
        last = self.START + (self.N - 1) / self.RATE - self.POST
        full, part = self.assert_same(path, [first, last])
        # Only the windows were parsed: the rows between them are zeros.
        middle = part.gyro.samples[self.N // 2]
        assert not middle.any() and full.gyro.samples[self.N // 2].all()

    def test_overlapping_windows(self, path):
        self.assert_same(path, [self.START + 1.0, self.START + 1.1,
                                self.START + 1.05])

    @pytest.mark.parametrize("trigger", [0.01, 2.6, 5.0, -1.0])
    def test_windows_that_overrun_the_file(self, path, trigger):
        """Each gives the WindowError of the full parse."""
        self.assert_same(path, [self.START + trigger, self.START + 1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_random_windows(self, path, seed):
        rng = np.random.default_rng(seed)
        self.assert_same(path, list(self.START + rng.uniform(-0.2, 2.9, 6)))

    @pytest.mark.parametrize("column, cell", [
        ("gy", "nan"), ("gy", "inf"), ("az", "-inf"), ("gx", "abc"),
        ("az", None), ("gz", "1,2"), ("time_s", "nan"), ("time_s", "4.3"),
        ("time_s", "off_grid"), ("time_s", "repeat"), ("hy", "nan"),
        ("hx", "abc"), ("hz", None),
    ])
    @pytest.mark.parametrize("where", ["window", "first_row"])
    def test_bad_cell_gives_the_full_parse_error(self, path, column, cell,
                                                 where):
        trigger = self.START + 1.0
        file = path.with_name("imu1_high.csv") if column[0] == "h" else path
        rate = self.HIGH if column[0] == "h" else self.RATE
        row = int((trigger - self.START) * rate) if where == "window" else 0
        if cell in ("off_grid", "repeat"):
            step = 0.4 if cell == "off_grid" else -1.0
            cell = "%.14g" % (self.START + (row + step) / rate)
        edit_row(file, row, column, cell)
        want = outcome(lambda p: parse_imu_csv(p, self.spec), path)
        got = outcome(lambda p: parse_imu_csv(
            p, self.spec, windows=self.windows([trigger])), path)
        assert want[0] in (DataError, FormatError)
        assert got == want

    def test_first_time_off_the_grid_names_row_0(self, path):
        """Both the window's own check and the full parse name data row 0,
        off the grid of the other rows by 0.4 samples."""
        edit_row(path, 0, "time_s", "%.14g" % (self.START + 0.4 / self.RATE))
        want = (f"{path}: non-uniform sampling at data row 0 (off grid by "
                f"{0.4 / self.RATE * 1e3:.3f} ms)")
        windows = self.windows([self.START + 1.0])
        _, header, table = ingest.read_table(
            path, pick=lambda h, first: [
                (int((t - pre - self.START) * self.RATE),
                 int((t + post - self.START) * self.RATE))
                for t, pre, post in windows])
        assert table.index is not None and len(table.index) < self.N // 4
        with pytest.raises(DataError) as window:
            ingest.table_clock(table.values[:, 0], path, "time_s", self.RATE,
                               table.index)
        for windows in (None, windows):
            with pytest.raises(DataError) as full:
                parse_imu_csv(path, self.spec, windows=windows)
            assert str(full.value) == str(window.value) == want

    def test_bad_cell_outside_every_window_is_not_read(self, path):
        edit_row(path, 100, "gy", "abc")
        with pytest.raises(DataError, match="unparseable cell"):
            parse_imu_csv(path, self.spec)
        part = parse_imu_csv(path, self.spec,
                             windows=self.windows([self.START + 1.0]))
        assert not part.gyro.samples[100].any()

    @pytest.mark.parametrize("edit", [
        lambda b: with_line(b, b"# note\n"),
        lambda b: with_line(b, b"\n"),
        lambda b: b.replace(b"\n", b"\r\n"),
        lambda b: b.rstrip(b"\n"),
        lambda b: with_line(b, "\u00b5\n".encode()),
    ], ids=["body_comment", "blank_line", "crlf", "no_final_newline",
            "non_ascii"])
    def test_any_doubt_parses_the_whole_file(self, path, edit):
        """A body that is not one data row per line parses whole: every
        row, not just the windows, is the full parse's."""
        for file in (path, path.with_name("imu1_high.csv")):
            file.write_bytes(edit(file.read_bytes()))
        triggers = [self.START + 1.0]
        want = outcome(lambda p: parse_imu_csv(p, self.spec), path)
        got = outcome(lambda p: parse_imu_csv(
            p, self.spec, windows=self.windows(triggers)), path)
        if want[0] != "ok":
            assert got == want
            return
        for kind in ingest.CHANNEL_KINDS:
            a, b = want[1].channel(kind), got[1].channel(kind)
            assert (b.start_time, b.sample_rate) == (a.start_time,
                                                      a.sample_rate)
            assert b.samples.tobytes() == a.samples.tobytes()


def with_line(data: bytes, line: bytes, at: int = 1500) -> bytes:
    """``data`` with ``line`` inserted before its line ``at``: in the main
    file after the window at 1 s, in the companion before it."""
    lines = data.splitlines(keepends=True)
    return b"".join(lines[:at] + [line] + lines[at:])


def pick_all(header, first):
    return [(0, 10 ** 6)]


class TestReadTableRows:
    """``read_table(pick=...)`` returns the full parse's rows, and errors,
    for every table whose body it reads."""

    @pytest.mark.parametrize("name", sorted(EDGE_TABLES))
    def test_edge_tables(self, tmp_path, name):
        path = tmp_path / "table.csv"
        path.write_bytes(EDGE_TABLES[name])
        want = outcome(ingest.read_table, path)
        got = outcome(lambda p: ingest.read_table(p, pick=pick_all), path)
        if want[0] != "ok":
            assert got == want
            return
        meta, header, data = want[1]
        got_meta, got_header, (values, index, n) = got[1]
        assert (got_meta, got_header, n) == (meta, header, len(data))
        assert index is None or index.tolist() == list(range(n))
        assert values.tobytes() == data.tobytes()

    def test_ranges_are_merged_and_clipped(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"# k=v\nt,x\n" + b"".join(
            b"%d,%d\n" % (i, 10 * i) for i in range(20)))
        _, _, (values, index, n) = ingest.read_table(
            path, pick=lambda h, f: [(15, 40), (3, 6), (-4, 1), (5, 8), (9, 9)])
        assert n == 20
        assert index.tolist() == [0, 3, 4, 5, 6, 7] + list(range(15, 20))
        assert values[:, 1].tolist() == [10.0 * i for i in index]

    @pytest.mark.parametrize("edit", [
        lambda b: b.replace(b"3,30\n", b"3,30\n\n"),
        lambda b: b.replace(b"3,30\n", b"3,30\n#\n"),
        lambda b: b.replace(b"3,30\n", b"3,30\r\n"),
        lambda b: b.rstrip(b"\n"),
    ], ids=["blank_line", "comment_line", "cr", "no_final_newline"])
    def test_doubt_at_every_chunk_boundary(self, tmp_path, monkeypatch, edit):
        """Wherever the line scan's chunks split the file, a body that is
        not one data row per line parses every row."""
        path = tmp_path / "table.csv"
        path.write_bytes(edit(b"t,x\n" + b"".join(
            b"%d,%d\n" % (i, 10 * i) for i in range(10))))
        _, _, data = ingest.read_table(path)
        for size in range(1, len(path.read_bytes()) + 1):
            monkeypatch.setattr(ingest, "_SCAN_BYTES", size)
            _, _, (values, index, n) = ingest.read_table(
                path, pick=lambda h, f: [(6, 8)])
            assert (index, n) == (None, 10), size
            assert values.tobytes() == data.tobytes()

    def test_no_ranges_falls_back_to_every_row(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"t,x\n0,1\n1,2\n2,3\n")
        _, _, (values, index, n) = ingest.read_table(
            path, pick=lambda h, f: None)
        assert (index, n) == (None, 3)
        assert values.tolist() == [[0, 1], [1, 2], [2, 3]]


class TestTableClockRows:
    def test_rows_anchor_the_grid_and_name_the_global_row(self):
        rows = np.array([0, 50, 51, 52, 53])
        t = 2.0 + rows / 10.0
        assert ingest.table_clock(t, "table.csv", "t", 10.0, rows) == (2.0, 10.0)
        t[3] += 0.03
        with pytest.raises(DataError, match="non-uniform sampling at data "
                                            "row 52 "):
            ingest.table_clock(t, "table.csv", "t", 10.0, rows)
        t[3] = t[2]
        with pytest.raises(DataError, match="does not increase at data row 52"):
            ingest.table_clock(t, "table.csv", "t", 10.0, rows)


class TestSessionFileNames:
    """session_csv names a sensor's main file, and reference_block finds a
    reference block's files by that rule, with the id taken literally."""

    @staticmethod
    def reference(sensor_id, high_rate=3200.0):
        return SensorSpec(sensor_id, "reference", (0.0, 0.0, 0.0), np.eye(3),
                          (ChannelSpec("gyro", 3200.0),
                           ChannelSpec("accel_high", high_rate)))

    def test_names(self):
        assert ingest.session_csv("bt_back") == "bt_back.csv"
        assert ingest.session_csv("mp", 7) == "mp_ev007.csv"
        assert ingest.session_csv("mp", 1234) == "mp_ev1234.csv"

    @pytest.mark.parametrize("name, block", [
        ("mp[1]_ev001.csv", (1, "mp[1]_ev001.csv")),
        ("mp[1]_ev7.csv", (7, "mp[1]_ev7.csv")),
        ("mp[1]_ev1000.csv", (1000, "mp[1]_ev1000.csv")),
        ("mp1_ev001.csv", None), ("mp[1]_evx.csv", None),
        ("mp[1]_ev001_high.csv", None), ("mp[1]_ev001.csv.bak", None),
        ("mp[1].csv", None), ("mp[1]_ev.csv", None),
    ])
    def test_reference_block(self, name, block):
        assert ingest.reference_block(self.reference("mp[1]"), name) == block

    def test_companion_on_its_own_clock(self):
        spec = self.reference("mp", high_rate=1600.0)
        assert ingest.reference_block(spec, "mp_ev002_high.csv") == (
            2, "mp_ev002.csv")
        assert ingest.reference_block(spec, "mp_ev002_low.csv") is None
