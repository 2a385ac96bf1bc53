"""Bad input at the CLI boundary: one ``kinereco: error:`` line, never a
traceback, a warning, or a silently accepted value."""

import json
import math
import shutil
from pathlib import Path

import pytest

from kinereco.cli import main
from kinereco.synth import dump_profile


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
     "ConfigError: sensor 'bt_back': channels must be an object, got float"),
    ("detect", put(["column_map"], [1]),
     "ConfigError: column_map must be an object, got list"),
    ("detect", put(["column_map"], {"gx": 1}),
     "ConfigError: column_map.gx must be a string, got 1"),
    ("simulate",
     lambda raw: sensor(raw, "mouthpiece")["channels"]["gyro"].update(
         rate_hz=math.nan),
     "ConfigError: sensor 'mouthpiece': channels.gyro.rate_hz must be a finite "
     "number > 0, got nan"),
    ("simulate",
     lambda raw: sensor(raw, "bt_back")["channels"]["accel_high"].update(
         rate_hz=1e308),
     "DataError: sensor 'bt_back' accel_high: 4.5 s at 1e+308 Hz is above the "
     "ceiling of 1e+08 samples per channel"),
    ("detect", lambda raw: sensor(raw, "bt_back").update(
        position_m=[0.1, 10 ** 400, 0.0]),
     "ConfigError: sensor 'bt_back': position_m[1] must be a finite number, "
     "got 1000"),
    ("detect", lambda raw: sensor(raw, "bt_back").update(
        position_m=["0.1", "0", "0"]),
     "ConfigError: sensor 'bt_back': position_m[0] must be a finite number, "
     "got '0.1'"),
    ("detect", lambda raw: sensor(raw, "bt_back").update(
        orientation_row_major=[1, 0, 0, 0, 1, 0, 0, 0]),
     "ConfigError: sensor 'bt_back': orientation_row_major must be a list of "
     "9 numbers"),
    ("detect", put(["trigger"], [3.0]),
     "ConfigError: trigger must be an object, got list"),
    ("simulate", lambda raw: sensor(raw, "mouthpiece")["channels"].pop("gyro"),
     "ConfigError: sensor 'mouthpiece' declares no gyro channel"),
], ids=["channels_float", "column_map_list", "column_map_int", "rate_nan",
        "rate_1e308", "position_big_int", "position_strings",
        "orientation_8_numbers", "trigger_list", "no_gyro"])


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
    assert err[0].startswith("kinereco: error: " + expected)


PROFILE_ROWS = pytest.mark.parametrize("edit, expected", [
    (put(["noise"], 3), "DataError: noise must be an object, got int"),
    (put(["duration_s"], math.nan),
     "FormatError: {path}: duration_s must be a finite number > 0, got nan"),
    (put(["duration_s"], 1e308),
     "DataError: sensor 'bt_right_outer' accel_high: 1e+308 s at 1600 Hz is "
     "above the ceiling of 1e+08 samples per channel"),
    (put(["gravity"], [0.0, 9.8]),
     "FormatError: {path}: gravity must be a list of 3 numbers"),
    (put(["gravity"], [0.0, 10 ** 400, 9.8]),
     "FormatError: {path}: gravity[1] must be a finite number, got 1000"),
    (put(["reference_clock_offset_s"], math.inf),
     "FormatError: {path}: reference_clock_offset_s must be a finite number, "
     "got inf"),
    (put(["impacts", 0, "time_s"], math.nan),
     "FormatError: {path}: impacts[0].time_s must be a finite number, got nan"),
    (put(["noise", "burst", "duration_s"], math.nan),
     "DataError: noise.burst.duration_s must be a finite number, got nan"),
    (put(["noise", "per_sensor_scale"], {"bt_back": math.nan}),
     "DataError: noise.per_sensor_scale.bt_back must be a finite number, "
     "got nan"),
    (put(["noise", "per_sensor_scale"], {"bt_back": -1.0}),
     "DataError: noise.per_sensor_scale.bt_back must be a finite number >= 0, "
     "got -1.0"),
    (put(["omega_components", 0, 0, "amplitude"], "0.3"),
     "FormatError: {path}: omega_components axis 0 component 0: amplitude must "
     "be a finite number, got '0.3'"),
    (put(["omega_components"], [[], []]),
     "FormatError: {path}: omega_components must be a list of 3 axes"),
    (put(["noise", "burst", "n_tones"], 2.5),
     "DataError: noise.burst.n_tones must be an int from 1 to 1000, got 2.5"),
    (put(["noise", "burst", "n_tones"], 1e308),
     "DataError: noise.burst.n_tones must be an int from 1 to 1000, "
     "got 1e+308"),
], ids=["noise_int", "duration_nan", "duration_1e308", "gravity_2_numbers",
        "gravity_big_int", "clock_offset_inf", "impact_time_nan",
        "burst_duration_nan", "scale_nan", "scale_negative", "amplitude_str",
        "omega_2_axes", "n_tones_2_5", "n_tones_1e308"])


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


def test_report_with_an_integer_beyond_float_range(report_path, tmp_path, capsys):
    bad = edited(report_path, tmp_path / "report.json",
                 put(["events", 0, "peaks", "angular_velocity", "headband"],
                     10 ** 400))
    code, err = run(["report", "--in", bad, "--out", tmp_path / "t"], capsys)
    assert (code, len(err)) == (1, 1)
    assert err[0].startswith(f"kinereco: error: FormatError: {bad}: malformed "
                             "agreement report (OverflowError: ")
    assert not (tmp_path / "t").exists()


def test_report_with_a_non_integer_pair_id(report_path, tmp_path, capsys):
    bad = edited(report_path, tmp_path / "report.json",
                 put(["events", 0, "pair_id"], "1"))
    code, err = run(["report", "--in", bad, "--out", tmp_path / "t"], capsys)
    assert (code, len(err)) == (1, 1)
    assert "malformed agreement report (TypeError: a pair_id is not an " \
           "integer)" in err[0]


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
