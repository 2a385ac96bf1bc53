"""Bad input at the CLI boundary: one ``kinereco: error:`` line, never a
traceback, a warning, or a silently accepted value."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kinereco.cli import main
from kinereco.synth import dump_profile

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    """``(exit code, stderr lines)`` of an in-process CLI run; pytest's
    config turns any warning into an error."""
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().err.strip().splitlines()


def edited(path: Path, out: Path, edit) -> Path:
    """A copy of the JSON file ``path`` at ``out``, changed by ``edit``."""
    raw = json.loads(path.read_text())
    edit(raw)
    out.write_text(json.dumps(raw))
    return out


def sensor(raw, sensor_id):
    return next(s for s in raw["sensors"] if s["id"] == sensor_id)


def put(keys, value):
    """An edit that sets ``raw[k0][k1]...`` to ``value``."""
    def edit(raw):
        for key in keys[:-1]:
            raw = raw[key]
        raw[keys[-1]] = value
    return edit


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory, clean_profile_small):
    return dump_profile(clean_profile_small,
                        tmp_path_factory.mktemp("profile") / "profile.json")


CONFIG_ROWS = pytest.mark.parametrize("command, edit, expected", [
    ("detect", lambda raw: sensor(raw, "bt_back").update(channels=3.5),
     "ConfigError: {config}: sensors[2].channels must be an object, got "
     "float"),
    ("detect", put(["column_map"], [1]),
     "ConfigError: {config}: column_map must be an object, got list"),
    ("detect", put(["column_map"], {"gx": 1}),
     "ConfigError: {config}: column_map.gx must be a string, got 1"),
    ("simulate",
     lambda raw: sensor(raw, "mouthpiece")["channels"]["gyro"].update(
         rate_hz=math.nan),
     "ConfigError: {config}: sensors[5].channels.gyro.rate_hz must be a "
     "finite number > 0, got nan"),
    ("simulate",
     lambda raw: sensor(raw, "bt_back")["channels"]["accel_high"].update(
         rate_hz=1e308),
     "DataError: sensor 'bt_back' accel_high: 4.5 s at 1e+308 Hz is above the "
     "ceiling of 1e+08 samples per channel"),
    ("detect", lambda raw: sensor(raw, "bt_back").update(
        position_m=[0.1, 10 ** 400, 0.0]),
     "ConfigError: {config}: sensors[2].position_m[1] must be a finite "
     "number, got an integer of 401 digits"),
    ("detect", lambda raw: sensor(raw, "bt_back").update(
        position_m=["0.1", "0", "0"]),
     "ConfigError: {config}: sensors[2].position_m[0] must be a finite "
     "number, got '0.1'"),
    ("detect", lambda raw: sensor(raw, "bt_back").update(
        orientation_row_major=[1, 0, 0, 0, 1, 0, 0, 0]),
     "ConfigError: {config}: sensors[2].orientation_row_major must be a list "
     "of 9 numbers, got [1, 0, 0, 0, 1, 0, 0, 0]"),
    ("detect", put(["trigger"], [3.0]),
     "ConfigError: {config}: trigger must be an object, got list"),
    ("simulate", lambda raw: sensor(raw, "mouthpiece")["channels"].pop("gyro"),
     "ConfigError: {config}: sensor 'mouthpiece' declares no gyro channel"),
    ("simulate", lambda raw: sensor(raw, "bt_back").update(id=None),
     "ConfigError: {config}: sensors[2].id must be a string, got None"),
    ("detect", lambda raw: sensor(raw, "bt_back").update(role=1),
     "ConfigError: {config}: sensors[2].role must be a string, got 1"),
    ("detect",
     lambda raw: sensor(raw, "bt_back")["channels"]["gyro"].update(range=None),
     "ConfigError: {config}: sensors[2].channels.gyro.range must be a "
     "string, got None"),
    ("detect", put(["name"], 7),
     "ConfigError: {config}: name must be a string, got 7"),
    ("detect", put(["a3g1_channel"], None),
     "ConfigError: {config}: a3g1_channel must be a string, got None"),
    ("detect", put(["a3g1_gyro"], ["bt_back"]),
     "ConfigError: {config}: a3g1_gyro must be a string, got ['bt_back']"),
    ("simulate", put(["a3g1_sensors", 1], None),
     "ConfigError: {config}: a3g1_sensors[1] must be a string, got None"),
    ("detect", put(["a3g1_sensors"], "abc"),
     "ConfigError: {config}: a3g1_sensors must be a list of 3 strings, got "
     "str"),
    ("detect", put(["column_map"], {"gx": "gy"}),
     "ConfigError: {config}: column_map: canonical columns 'gx' and 'gy' would both "
     "read file column 'gy'"),
    ("detect",
     lambda raw: sensor(raw, "bt_back")["channels"]["accel_low"].update(
         rate_hz=1600.0),
     "ConfigError: {config}: sensor 'bt_back': accel_low rate 1600 Hz must match the "
     "gyro rate 1125 Hz in a shared file"),
    *[("simulate", lambda raw, sid=sid: sensor(raw, "bt_right_inner").update(
        id=sid), f"ConfigError: {{config}}: sensor {sid!r}: the id names the "
        "sensor's files, so it may not be empty, '.' or '..', or hold '/', '\\' or NUL")
      for sid in ("", ".", "..", "../escaped", "a\\b", "a\0b")],
    *[("simulate", lambda raw, sid=sid: sensor(raw, "bt_right_inner").update(
        id=sid), f"ConfigError: {{config}}: sensor {sid!r}: its session file "
        f"{sid}.csv is also {owner}")
      for sid, owner in (("labels", "the labels file"),
                         ("mouthpiece_ev001", "a file of sensor 'mouthpiece'"),
                         ("mouthpiece_ev7", "a file of sensor 'mouthpiece'"))],
    ("simulate", lambda raw: sensor(raw, "bt_right_inner").update(
        id="bt_back_high"),
     "ConfigError: {config}: sensor 'bt_back': its session file bt_back_high.csv is "
     "also a file of sensor 'bt_back_high'"),
    ("simulate", lambda raw: sensor(raw, "bt_right_inner").update(
        id="mouthpiece_ev001_high") or
     sensor(raw, "mouthpiece")["channels"]["accel_high"].update(rate_hz=1600.0),
     "ConfigError: {config}: sensor 'mouthpiece_ev001_high': its session file "
     "mouthpiece_ev001_high.csv is also a file of sensor 'mouthpiece'"),
    ("simulate", lambda raw: sensor(raw, "bt_right_inner").update(
        id="bt_back") or sensor(raw, "bt_back").update(id="bt_back"),
     "ConfigError: {config}: duplicate sensor ids in configuration"),
    ("simulate", lambda raw: raw["sensors"].append(
        {**sensor(raw, "mouthpiece"), "id": "mp2"}),
     "ConfigError: {config}: sensor 'mp2': a second reference sensor (a session has "
     "one, 'mouthpiece')"),
    ("detect", put(["filter", "end_time_ms"], 200.0),
     "ConfigError: {config}: filter.end_time_ms 200 must not exceed "
     "window.headband_post_ms 150: the adaptive filter's end slice lies in "
     "the headband window"),
    ("detect", lambda raw: raw["sensors"][0].pop("position_m"),
     "ConfigError: {config}: sensors[0].position_m is missing"),
    ("simulate", put(["sensors"], {"a": 1}),
     "ConfigError: {config}: sensors must be a list of objects, got dict"),
], ids=["channels_float", "column_map_list", "column_map_int", "rate_nan",
        "rate_1e308", "position_big_int", "position_strings",
        "orientation_8_numbers", "trigger_list", "no_gyro", "id_null",
        "role_int", "range_null", "name_int", "a3g1_channel_null",
        "a3g1_gyro_list", "a3g1_sensor_null", "a3g1_sensors_str",
        "column_map_shared_column", "accel_low_rate", "id_empty", "id_dot",
        "id_dot_dot", "id_parent_path", "id_backslash", "id_nul",
        "id_labels", "id_reference_block", "id_reference_block_unpadded",
        "id_companion", "id_reference_block_companion", "id_duplicate",
        "second_reference", "end_time_past_window", "position_missing",
        "sensors_object"])


@CONFIG_ROWS
def test_bad_config_gives_one_error_line(small_pipeline, profile_path, tmp_path,
                                         capsys, command, edit, expected):
    config = edited(small_pipeline["config"], tmp_path / "config.json", edit)
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--profile", profile_path, "--config", config,
                     "--out", out],
        "detect": ["detect", "--config", config,
                   "--in", small_pipeline["session"], "--out", out],
    }[command]
    code, err = run(argv, capsys)
    assert (code, len(err)) == (1, 1)
    assert err[0].startswith("kinereco: error: " + expected.format(config=config))


PROFILE_ROWS = pytest.mark.parametrize("edit, expected", [
    (put(["noise"], 3),
     "DataError: {path}: noise must be an object, got int"),
    (put(["duration_s"], math.nan),
     "FormatError: {path}: duration_s must be a finite number > 0, got nan"),
    (put(["duration_s"], 1e308),
     "DataError: sensor 'bt_right_outer' accel_high: 1e+308 s at 1600 Hz is "
     "above the ceiling of 1e+08 samples per channel"),
    (put(["gravity"], [0.0, 9.8]),
     "FormatError: {path}: gravity must be a list of 3 numbers, got "
     "[0.0, 9.8]"),
    (put(["gravity"], [0.0, 10 ** 400, 9.8]),
     "FormatError: {path}: gravity[1] must be a finite number, got an "
     "integer of 401 digits"),
    (put(["reference_clock_offset_s"], math.inf),
     "FormatError: {path}: reference_clock_offset_s must be a finite number, "
     "got inf"),
    (put(["impacts", 0, "time_s"], math.nan),
     "FormatError: {path}: impacts[0].time_s must be a finite number, got nan"),
    (put(["noise", "burst", "duration_s"], math.nan),
     "DataError: {path}: noise.burst.duration_s must be a finite number "
     ">= 0, got nan"),
    (put(["noise", "per_sensor_scale"], {"bt_back": math.nan}),
     "DataError: {path}: noise.per_sensor_scale.bt_back must be a finite "
     "number >= 0, got nan"),
    (put(["noise", "per_sensor_scale"], {"bt_back": -1.0}),
     "DataError: {path}: noise.per_sensor_scale.bt_back must be a finite "
     "number >= 0, got -1.0"),
    (put(["omega_components", 0, 0, "amplitude"], "0.3"),
     "FormatError: {path}: omega_components[0][0].amplitude must be a "
     "finite number, got '0.3'"),
    (put(["omega_components"], [[], []]),
     "FormatError: {path}: omega_components must be a list of 3 lists, got "
     "a list of 2"),
    (put(["noise", "burst", "n_tones"], 2.5),
     "DataError: {path}: noise.burst.n_tones must be an int from 1 to 1000, "
     "got 2.5"),
    (put(["noise", "burst", "n_tones"], 1e308),
     "DataError: {path}: noise.burst.n_tones must be an int from 1 to 1000, "
     "got 1e+308"),
    (put(["impacts", 0, "label"], None),
     "FormatError: {path}: impacts[0].label must be a string, got None"),
    (lambda raw: raw.pop("duration_s"),
     "FormatError: {path}: duration_s is missing"),
    (put(["impacts"], 3),
     "FormatError: {path}: impacts must be a list of objects, got int"),
    (put(["omega_components", 0], 4),
     "FormatError: {path}: omega_components[0] must be a list of objects, "
     "got int"),
    (put(["noise", "per_sensor_scale"], {"bt_bak": 3.0}),
     "DataError: noise.per_sensor_scale has an unknown key 'bt_bak' (known "
     "keys: bt_right_outer, bt_right_inner, bt_back, bt_left_inner, "
     "bt_left_outer)"),
    (put(["noise", "per_sensor_scale"], {"bt_back": 2.0, "mouthpiece": 3.0}),
     "DataError: noise.per_sensor_scale has an unknown key 'mouthpiece' "
     "(known keys: bt_right_outer, bt_right_inner, bt_back, bt_left_inner, "
     "bt_left_outer)"),
], ids=["noise_int", "duration_nan", "duration_1e308", "gravity_2_numbers",
        "gravity_big_int", "clock_offset_inf", "impact_time_nan",
        "burst_duration_nan", "scale_nan", "scale_negative", "amplitude_str",
        "omega_2_axes", "n_tones_2_5", "n_tones_1e308", "label_null",
        "duration_missing", "impacts_int", "axis_int", "scale_unknown_id",
        "scale_reference_id"])


@PROFILE_ROWS
def test_bad_profile_gives_one_error_line(small_pipeline, profile_path, tmp_path,
                                          capsys, edit, expected):
    profile = edited(profile_path, tmp_path / "profile.json", edit)
    out = tmp_path / "out"
    code, err = run(["simulate", "--profile", profile,
                     "--config", small_pipeline["config"], "--out", out], capsys)
    assert (code, len(err)) == (1, 1)
    assert err[0].startswith("kinereco: error: " + expected.format(path=profile))
    assert not out.exists()


@pytest.mark.parametrize("command, edit, expected", [
    ("simulate", put(["nosie"], {"gyro_sigma": 0.5}),
     "FormatError: {profile}: the profile has an unknown key 'nosie' (known "
     "keys: duration_s, gravity, reference_clock_offset_s, impacts, noise, "
     "omega_components, q_components)"),
    ("simulate", put(["reference_clock_offset"], 0.02),
     "FormatError: {profile}: the profile has an unknown key "
     "'reference_clock_offset'"),
    ("simulate", put(["noise", "gyro_sigmaa"], 0.5),
     "DataError: {profile}: noise has an unknown key 'gyro_sigmaa'"),
    ("simulate", put(["noise", "burst", "centre_hz"], 250.0),
     "DataError: {profile}: noise.burst has an unknown key 'centre_hz'"),
    ("simulate", put(["impacts", 1, "time"], 2.0),
     "FormatError: {profile}: impacts[1] has an unknown key 'time'"),
    ("simulate", put(["omega_components", 0, 0, "widht_s"], 0.01),
     "FormatError: {profile}: omega_components[0][0] has an unknown key "
     "'widht_s' (known keys: amplitude, freq_hz, phase, center_s, "
     "width_s)"),
    ("detect", put(["windows"], {}),
     "ConfigError: {config}: the configuration has an unknown key 'windows'"),
    ("detect", lambda raw: sensor(raw, "bt_back").update(rol="reference"),
     "ConfigError: {config}: sensors[2] has an unknown key 'rol'"),
    ("detect",
     lambda raw: sensor(raw, "bt_back")["channels"]["gyro"].update(rate=1),
     "ConfigError: {config}: sensors[2].channels.gyro has an unknown key "
     "'rate' (known keys: rate_hz, range)"),
    ("detect", put(["window", "pre"], 40.0),
     "ConfigError: {config}: window has an unknown key 'pre' (known keys: "
     "pre_ms, headband_post_ms, reference_post_ms)"),
    ("detect", put(["column_map"], {"gX": "gx"}),
     "ConfigError: {config}: column_map has an unknown key 'gX' (known keys: "
     "time_s, gx, gy, gz, ax, ay, az, hx, hy, hz)"),
], ids=["profile_nosie", "profile_clock_offset", "noise", "burst", "impact",
        "component_widht", "config_windows", "sensor_rol", "channel_rate",
        "window_pre", "column_map_gX"])
def test_unknown_key_gives_one_error_line(small_pipeline, profile_path,
                                          tmp_path, capsys, command, edit,
                                          expected):
    """A misspelled key fails at load, naming the file, the object and the
    key, with the error class of that object's values."""
    profile, config = profile_path, small_pipeline["config"]
    if command == "simulate":
        profile = edited(profile, tmp_path / "profile.json", edit)
    else:
        config = edited(config, tmp_path / "config.json", edit)
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--profile", profile, "--config", config,
                     "--out", out],
        "detect": ["detect", "--config", config,
                   "--in", small_pipeline["session"], "--out", out],
    }[command]
    code, err = run(argv, capsys)
    assert (code, len(err)) == (1, 1)
    assert err[0].startswith("kinereco: error: " + expected.format(
        profile=profile, config=config))
    assert not out.exists()


def test_negative_seed_gives_one_error_line(small_pipeline, profile_path,
                                            tmp_path, capsys):
    out = tmp_path / "out"
    code, err = run(["simulate", "--profile", profile_path, "--config",
                     small_pipeline["config"], "--out", out, "--seed", -1],
                    capsys)
    assert (code, err) == (1, ["kinereco: error: ConfigError: --seed must be "
                               "a finite number >= 0, got -1"])
    assert not out.exists()


def test_a_fresh_process_prints_one_line_on_failure(small_pipeline,
                                                   profile_path, tmp_path):
    """The logging set-up of a fresh ``python -m kinereco.cli`` adds no
    line to the error line of a config whose rate is above the ceiling."""
    config = edited(small_pipeline["config"], tmp_path / "config.json",
                    lambda raw: sensor(raw, "bt_back")["channels"]
                    ["accel_high"].update(rate_hz=1e308))
    proc = subprocess.run(
        [sys.executable, "-m", "kinereco.cli", "simulate", "--profile",
         str(profile_path), "--config", str(config), "--out",
         str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "kinereco: error: DataError: sensor 'bt_back' accel_high: 4.5 s at "
        "1e+308 Hz is above the ceiling of 1e+08 samples per channel"]


@pytest.mark.parametrize("value, expected", [
    ("basic_format", "ConfigError: KINERECO_LOG must be debug, info or "
     "warning, got 'basic_format'"),
    ("verbose", "ConfigError: KINERECO_LOG must be debug, info or warning, "
     "got 'verbose'"),
    ("Info", "FormatError: cannot open"),
    ("", "FormatError: cannot open"),
], ids=["basic_format", "verbose", "Info", "empty"])
def test_log_level_takes_only_its_documented_values(tmp_path, value,
                                                    expected):
    """A fresh process: an undocumented ``KINERECO_LOG`` is one error line
    before any input is read; a documented one, in any case, or an empty
    one, lets the command fail on its missing config instead."""
    proc = subprocess.run(
        [sys.executable, "-m", "kinereco.cli", "detect", "--config",
         str(tmp_path / "missing.json"), "--in", str(tmp_path), "--out",
         str(tmp_path / "events.csv")],
        env={**os.environ, "PYTHONPATH": str(SRC), "KINERECO_LOG": value},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("kinereco: error: " + expected)


@pytest.mark.parametrize("edit", [
    put(["omega_components", 1, 0, "freq_hz"], 1e308),
    put(["q_components", 0, 0, "amplitude"], 1e308),
    put(["gravity"], [0.0, 0.0, 1e308]),
    put(["noise", "gyro_sigma"], 1e308),
], ids=["freq_1e308", "amplitude_1e308", "gravity_1e308", "sigma_1e308"])
def test_profile_that_overflows_the_simulation(small_pipeline, profile_path,
                                               tmp_path, capsys, edit):
    """Finite numbers too large for the motion model fail as one DataError,
    not as a warning or a session of infinite samples."""
    profile = edited(profile_path, tmp_path / "profile.json", edit)
    code, err = run(["simulate", "--profile", profile,
                     "--config", small_pipeline["config"],
                     "--out", tmp_path / "out"], capsys)
    assert (code, len(err)) == (1, 1)
    assert err[0].startswith("kinereco: error: DataError: ")


def test_config_that_overflows_the_computation(small_pipeline, tmp_path, capsys):
    config = edited(small_pipeline["config"], tmp_path / "config.json",
                    lambda raw: sensor(raw, "bt_back").update(
                        position_m=[1e308, 0.0, 0.0]))
    code, err = run(["detect", "--config", config,
                     "--in", small_pipeline["session"],
                     "--out", tmp_path / "events.csv"], capsys)
    assert (code, len(err)) == (1, 1)
    assert err[0].startswith("kinereco: error: DataError: detect: the input "
                             "numbers overflow the computation (")


@pytest.fixture(scope="module")
def report_path(small_pipeline, tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "report.json"
    assert main(["evaluate", "--config", str(small_pipeline["config"]),
                 "--hb", str(small_pipeline["kin"]),
                 "--ref", str(small_pipeline["kin"]),
                 "--pairs", str(small_pipeline["events"]),
                 "--out", str(path)]) == 0
    return path


def report_error(report_path, tmp_path, capsys, edit):
    """The one error line of ``report`` on a copy of the report with
    ``edit``, which writes no output directory."""
    bad = edited(report_path, tmp_path / "report.json", edit)
    code, err = run(["report", "--in", bad, "--out", tmp_path / "t"], capsys)
    assert (code, len(err)) == (1, 1)
    assert not (tmp_path / "t").exists()
    return err[0].replace(str(bad), "<path>")


def test_report_with_an_integer_beyond_float_range(report_path, tmp_path, capsys):
    assert report_error(report_path, tmp_path, capsys, put(
        ["events", 0, "peaks", "angular_velocity", "headband"], 10 ** 400)) \
        == ("kinereco: error: FormatError: <path>: events[0].peaks."
            "angular_velocity.headband must be a finite number, got an "
            "integer of 401 digits")


def test_report_with_a_non_integer_pair_id(report_path, tmp_path, capsys):
    assert report_error(report_path, tmp_path, capsys,
                        put(["events", 0, "pair_id"], "1")) == \
        "kinereco: error: FormatError: <path>: events[0].pair_id must be an " \
        "int, got '1'"


def test_report_with_an_unknown_key(report_path, tmp_path, capsys):
    """The parent accepted ``aggregate.extra`` silently."""
    assert report_error(report_path, tmp_path, capsys,
                        put(["aggregate", "extra"], 1)) == \
        "kinereco: error: FormatError: <path>: aggregate has an unknown key " \
        "'extra' (known keys: bland_altman, t_tests, cora_stats, by_label)"


def test_report_with_a_missing_nested_key(report_path, tmp_path, capsys):
    def drop(raw):
        del raw["events"][0]["peaks"]["angular_velocity"]["headband"]

    assert report_error(report_path, tmp_path, capsys, drop) == \
        "kinereco: error: FormatError: <path>: events[0].peaks." \
        "angular_velocity.headband is missing"


class TestPairKeyedReading:
    """``evaluate`` reads the tables of the pairs in ``--pairs``, and
    ``report --hb/--ref`` those of the pairs in the report."""

    @staticmethod
    def evaluate(small_pipeline, kin, out) -> int:
        return main(["evaluate", "--config", str(small_pipeline["config"]),
                     "--hb", str(kin), "--ref", str(kin),
                     "--pairs", str(small_pipeline["events"]),
                     "--out", str(out)])

    def test_a_copied_table_is_not_counted_twice(self, small_pipeline,
                                                 tmp_path):
        kin = Path(shutil.copytree(small_pipeline["kin"], tmp_path / "kin"))
        assert self.evaluate(small_pipeline, kin, tmp_path / "before.json") == 0
        shutil.copyfile(kin / "hb_ev001.csv", kin / "hb_ev009.csv")
        assert self.evaluate(small_pipeline, kin, tmp_path / "after.json") == 0
        assert (tmp_path / "after.json").read_bytes() == \
            (tmp_path / "before.json").read_bytes()

    def test_a_listed_pair_needs_its_headband_table(self, small_pipeline,
                                                    tmp_path, capsys):
        kin = Path(shutil.copytree(small_pipeline["kin"], tmp_path / "kin"))
        (kin / "hb_ev002.csv").unlink()
        code = self.evaluate(small_pipeline, kin, tmp_path / "report.json")
        err = capsys.readouterr().err.strip().splitlines()
        assert (code, len(err)) == (1, 1)
        assert err[0].startswith(
            f"kinereco: error: FormatError: cannot open {kin / 'hb_ev002.csv'}")

    def test_pair_id_comment_must_match_the_file_name(self, small_pipeline,
                                                      tmp_path, capsys):
        kin = Path(shutil.copytree(small_pipeline["kin"], tmp_path / "kin"))
        shutil.copyfile(kin / "hb_ev001.csv", kin / "hb_ev002.csv")
        code = self.evaluate(small_pipeline, kin, tmp_path / "report.json")
        err = capsys.readouterr().err.strip().splitlines()
        assert (code, len(err)) == (1, 1)
        assert err[0] == (f"kinereco: error: FormatError: {kin / 'hb_ev002.csv'}"
                          ": 'pair_id' header comment 1 does not match the "
                          "file name")

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    @pytest.mark.parametrize("f0", [None, "nan", "inf", "-inf", "0", "-171.3",
                                    "x", "1e3"])
    def test_a_headband_table_needs_a_finite_positive_f0(
            self, small_pipeline, report_path, tmp_path, capsys, command, f0):
        """Without its ``f0_hz`` comment, or with one that is not a finite
        number > 0, a headband table is one FormatError; with 1e3, the
        report holds 1000.0 and parses as strict JSON."""
        kin = Path(shutil.copytree(small_pipeline["kin"], tmp_path / "kin"))
        lines = (kin / "hb_ev002.csv").read_text().splitlines(keepends=True)
        at = next(i for i, ln in enumerate(lines) if ln.startswith("# f0_hz="))
        lines[at:at + 1] = [] if f0 is None else [f"# f0_hz={f0}\n"]
        (kin / "hb_ev002.csv").write_text("".join(lines))
        out = tmp_path / ("report.json" if command == "evaluate" else "t")
        if command == "evaluate":
            code = self.evaluate(small_pipeline, kin, out)
        else:
            code = main(["report", "--in", str(report_path), "--out", str(out),
                         "--hb", str(kin), "--ref", str(kin)])
        err = capsys.readouterr().err.strip().splitlines()
        if f0 != "1e3":
            assert (code, err) == (1, [
                f"kinereco: error: FormatError: {kin / 'hb_ev002.csv'}: "
                "missing or bad 'f0_hz' header comment"])
            assert not out.exists()
            return
        assert (code, err) == (0, [])
        if command == "evaluate":
            def reject(constant):
                raise ValueError(f"{constant} is not JSON")

            report = json.loads(out.read_text(), parse_constant=reject)
            assert [ev["f0_hz"] for ev in report["events"]][1] == 1000.0

    @pytest.mark.parametrize("command, name, column, cell, what", [
        ("evaluate", "hb_ev001.csv", "omega_h_y", "nan", "NaN"),
        ("evaluate", "ref_ev002.csv", "alpha_z", "inf", "infinite"),
        ("evaluate", "hb_ev003.csv", "residual", "-inf", "infinite"),
        ("report", "hb_ev002.csv", "omega_hf_x", "nan", "NaN"),
    ], ids=["headband", "reference", "residual", "report_overlays"])
    def test_a_non_finite_cell_names_its_file_and_row(
            self, small_pipeline, report_path, tmp_path, capsys, command,
            name, column, cell, what):
        kin = Path(shutil.copytree(small_pipeline["kin"], tmp_path / "kin"))
        lines = (kin / name).read_text().splitlines()
        header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        cells = lines[header + 1 + 7].split(",")  # data row 7
        cells[lines[header].split(",").index(column)] = cell
        lines[header + 1 + 7] = ",".join(cells)
        (kin / name).write_text("\n".join(lines) + "\n")
        if command == "evaluate":
            code = self.evaluate(small_pipeline, kin, tmp_path / "report.json")
        else:
            code = main(["report", "--in", str(report_path), "--out",
                         str(tmp_path / "t"), "--hb", str(kin), "--ref",
                         str(kin)])
        err = capsys.readouterr().err.strip().splitlines()
        assert (code, err) == (1, [f"kinereco: error: DataError: {kin / name}: "
                                   f"{what} cell at data row 7"])

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_a_partial_series_names_its_missing_column(
            self, small_pipeline, report_path, tmp_path, capsys, command):
        kin = Path(shutil.copytree(small_pipeline["kin"], tmp_path / "kin"))
        lines = (kin / "hb_ev001.csv").read_text().splitlines()
        header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        drop = lines[header].split(",").index("alpha_a3g1_z")
        for i in range(header, len(lines)):
            cells = lines[i].split(",")
            lines[i] = ",".join(cells[:drop] + cells[drop + 1:])
        (kin / "hb_ev001.csv").write_text("\n".join(lines) + "\n")
        if command == "evaluate":
            code = self.evaluate(small_pipeline, kin, tmp_path / "report.json")
        else:
            code = main(["report", "--in", str(report_path), "--out",
                         str(tmp_path / "t"), "--hb", str(kin), "--ref",
                         str(kin)])
        err = capsys.readouterr().err.strip().splitlines()
        assert (code, err) == (1, [
            f"kinereco: error: FormatError: {kin / 'hb_ev001.csv'}: missing "
            "column 'alpha_a3g1_z'"])
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("flag", ["--hb", "--ref"])
    def test_report_needs_both_kinematics_directories(
            self, small_pipeline, report_path, tmp_path, capsys, flag):
        code, err = run(["report", "--in", report_path, "--out", tmp_path / "t",
                         flag, small_pipeline["kin"]], capsys)
        assert (code, err) == (1, [
            "kinereco: error: ConfigError: report: --hb and --ref go together "
            "(the time histories need both kinematics directories)"])
        assert not (tmp_path / "t").exists()

    def test_report_overlays_only_the_reported_pairs(self, small_pipeline,
                                                     report_path, tmp_path):
        one = edited(report_path, tmp_path / "report.json",
                     lambda raw: raw.update(events=raw["events"][1:2]))
        assert main(["report", "--in", str(one), "--out", str(tmp_path / "t"),
                     "--hb", str(small_pipeline["kin"]),
                     "--ref", str(small_pipeline["kin"])]) == 0
        overlays = sorted(p.name for p in (tmp_path / "t").glob("timehistory_*"))
        assert overlays and all(name.startswith("timehistory_ev002_")
                                for name in overlays)
