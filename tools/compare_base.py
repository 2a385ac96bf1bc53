"""Compare what the kinereco CLI writes at a change's head and at its base.

Usage::

    python3 tools/compare_base.py HEAD BASE [CASE ...]

HEAD and BASE are two checkouts of the repository, for example the working
tree and a ``git worktree add`` of the base commit.  Each case runs once per
tree, head first, in a fresh work directory: it writes its inputs there, runs
that tree's CLI (``python3 -m kinereco.cli`` with ``PYTHONPATH=<tree>/src``,
checked to import the tree's ``kinereco``) in a fresh process per call, and
returns one text to compare between the trees:

- the sha256 list of every file in the work directory, or of one directory
  in it, in ``sha256sum`` format in C byte order of the paths;
- or the exit codes and the stderr of the calls, with the ``<path>:<line>: ``
  prefix of each warning and its echoed source line stripped, because the
  two trees' paths differ.

Where the texts match, the script prints the text and one summary line;
otherwise a diff from base to head and one error line.  With no CASE, every
case runs.  The exit status is 1 if any case differs or fails.

Both trees run a case with the same relative paths, from their work
directories: the manifest hash stamped into every output covers the input
paths, so an absolute path would change every output byte.  This script is
not a test; ``.github/workflows/tests.yml`` runs each case as its own step.
"""

import argparse
import contextlib
import difflib
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

IMPORT_CHECK = ('import sys, kinereco; f = kinereco.__file__; '
                'sys.exit(None if f.startswith(sys.argv[1]) else f"imported {f}")')

# What a case compares: the words of its error line, and its summary words
# with the count of the compared lines that ``counted`` accepts.
FILES = ("outputs differ", "{} files identical", lambda line: True)
WARNINGS = ("stderr differs", "the same {} warning lines",
            lambda line: "Warning: " in line)
FAILED_RUNS = ("exit codes or stderr differ",
               "{} failed runs with the same error lines",
               lambda line: line.endswith(" exit 1"))

CASES = {}


def case(label, compared=FILES):
    """Register the decorated function as the case of its name."""
    def register(fn):
        CASES[fn.__name__] = (fn, label, compared)
        return fn
    return register


class Run:
    """One case in one tree: its work directory and the tree's CLI."""

    def __init__(self, tree: Path, work: Path):
        self.profiles = tree / "src" / "kinereco" / "profiles"
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        work.mkdir()
        subprocess.run([sys.executable, "-c", IMPORT_CHECK, f"{tree}/src/"],
                       cwd=work, env=self.env, check=True)

    def copy(self, profile, name):
        """Copy a bundled profile or config into the work directory."""
        shutil.copyfile(self.profiles / profile, self.work / name)

    def load(self, profile):
        return json.loads((self.profiles / profile).read_text())

    def write(self, name, data):
        (self.work / name).write_text(json.dumps(data, indent=2))

    def cli(self, args, err=None, check=True):
        """Run ``kinereco.cli`` on the space-separated ``args``, with its
        stderr to the work file ``err``; return the exit code."""
        command = [sys.executable, "-m", "kinereco.cli", *args.split()]
        with open(self.work / err, "wb") if err else contextlib.nullcontext() as stderr:
            return subprocess.run(command, cwd=self.work, env=self.env,
                                  stderr=stderr, check=check).returncode

    def sha256(self, top="."):
        """``find <top> -type f | LC_ALL=C sort | xargs sha256sum``."""
        names = [f"{top}/{path.relative_to(self.work / top).as_posix()}"
                 for path in (self.work / top).rglob("*") if path.is_file()]
        return "".join(f"{hashlib.sha256((self.work / name).read_bytes()).hexdigest()}  {name}\n"
                       for name in sorted(names, key=os.fsencode))


def strip_warnings(text):
    """The lines of a stderr text, each warning without its
    ``<path>:<line>: `` prefix and without the source line echoed under it."""
    lines, echoed = [], False
    for line in text.splitlines():
        if echoed and line.startswith("  "):
            echoed = False
            continue
        warning = re.match(r"^.+?:\d+: (\w*Warning: .*)$", line)
        echoed = warning is not None
        lines.append(warning.group(1) if warning else line)
    return lines


@case("alpha methods diff and a3g1, evaluate and report")
def alpha(run):
    """The benchmark reconstructs with --alpha-method both only, and never
    sets the evaluate parameters.  Simulate the bundled clean profile, then
    detect and reconstruct with diff and with a3g1, then evaluate and report
    on the diff kinematics at the default parameters and with a wide NRMSE
    window and CORA shift (which put the NRMSE span near the window edges):
    every output file must have the same sha256."""
    run.copy("field_session_18_clean.json", "profile.json")
    run.copy("field_config.json", "config.json")
    run.cli("simulate --profile profile.json --config config.json --out session --seed 7")
    run.cli("detect --config config.json --in session --out events.csv")
    for method in ("diff", "a3g1"):
        run.cli(f"reconstruct --config config.json --in session --events events.csv "
                f"--out kin-{method} --alpha-method {method}")
    run.cli("evaluate --config config.json --hb kin-diff --ref kin-diff "
            "--pairs events.csv --out report-diff.json")
    run.cli("report --in report-diff.json --out tables-diff --hb kin-diff --ref kin-diff")
    run.cli("evaluate --config config.json --hb kin-diff --ref kin-diff "
            "--pairs events.csv --nrmse-window 0.1 --max-shift-fraction 0.5 "
            "--out report-wide.json")
    run.cli("report --in report-wide.json --out tables-wide --hb kin-diff --ref kin-diff")
    return run.sha256()


@case("skewed reference clock")
def skew(run):
    """The benchmark profiles keep the reference clock on the headband's, so
    the cut of the reference blocks, the lag search and the shift and clip of
    the reference kinematics never see an offset there.  Simulate copies of
    the clean profile with reference clock offsets of 20 ms and -13.1 ms, and
    of the noisy profile with 7.7 ms, at seed 3, then detect, reconstruct,
    evaluate and report: every output file must have the same sha256.  No
    benchmark session has an unpaired event, so the 20 ms session is also
    detected with --max-offset 0.0203, which pairs 11 of its events and leaves
    14 unpaired, then reconstructed, evaluated and reported, and with
    --max-offset 0.01, which leaves all 36 unpaired (reconstruct rejects an
    events file without a pair)."""
    run.copy("field_config.json", "config.json")
    for source, name, offset in (
            ("field_session_18_clean.json", "clean_p020", 0.020),
            ("field_session_18_clean.json", "clean_m0131", -0.0131),
            ("field_session_18.json", "noisy_p0077", 0.0077)):
        profile = run.load(source)
        profile["reference_clock_offset_s"] = offset
        run.write(f"{name}.json", profile)
    for name in ("clean_p020", "clean_m0131", "noisy_p0077"):
        run.cli(f"simulate --profile {name}.json --config config.json "
                f"--out {name}-session --seed 3")
        run.cli(f"detect --config config.json --in {name}-session --out {name}-events.csv")
        run.cli(f"reconstruct --config config.json --in {name}-session "
                f"--events {name}-events.csv --out {name}-kin")
        run.cli(f"evaluate --config config.json --hb {name}-kin --ref {name}-kin "
                f"--pairs {name}-events.csv --out {name}-report.json")
        run.cli(f"report --in {name}-report.json --out {name}-tables "
                f"--hb {name}-kin --ref {name}-kin")
    run.cli("detect --config config.json --in clean_p020-session "
            "--out mixed-events.csv --max-offset 0.0203")
    run.cli("reconstruct --config config.json --in clean_p020-session "
            "--events mixed-events.csv --out mixed-kin")
    run.cli("evaluate --config config.json --hb mixed-kin --ref mixed-kin "
            "--pairs mixed-events.csv --out mixed-report.json")
    run.cli("report --in mixed-report.json --out mixed-tables --hb mixed-kin --ref mixed-kin")
    run.cli("detect --config config.json --in clean_p020-session "
            "--out unpaired-events.csv --max-offset 0.01")
    return run.sha256()


@case("simulate at seeds 1-5, noisy, gyro_sigma 0 and scaled")
def seeds(run):
    """The benchmark simulates at seeds 7 and 11 only.  Simulate the bundled
    noisy profile at seeds 1-5, a copy of it with gyro_sigma 0, so that the
    gyro bursts land on a zero base and on each other, and a copy with
    noise.per_sensor_scale {"bt_back": 1.5, "bt_left_outer": 0}, which no
    benchmark input sets: every session file must have the same sha256."""
    run.copy("field_session_18.json", "noisy.json")
    run.copy("field_config.json", "config.json")
    for name, key, value in (
            ("gyro_sigma_0", "gyro_sigma", 0),
            ("scaled", "per_sensor_scale", {"bt_back": 1.5, "bt_left_outer": 0})):
        profile = run.load("field_session_18.json")
        profile["noise"][key] = value
        run.write(f"{name}.json", profile)
    for profile in ("noisy", "gyro_sigma_0", "scaled"):
        for seed in range(1, 6):
            run.cli(f"simulate --profile {profile}.json --config config.json "
                    f"--out {profile}-seed{seed} --seed {seed}")
    return run.sha256()


@case("integer-valued inputs")
def ints(run):
    """Config numbers are kept as given (config.json writes an int back as an
    int) and profile numbers are stored as floats (truth.json prints them),
    so an input holding integers must give the same bytes at the head and at
    the base.  Simulate a copy of the clean profile whose impact times,
    gravity and duration are integers with a copy of the config whose cfc,
    trigger and channel rates are integers, then detect: every output file
    must have the same sha256."""
    profile = run.load("field_session_18_clean.json")
    for impact in profile["impacts"]:
        impact["time_s"] = int(impact["time_s"])
    profile["gravity"] = [0, 0, 10]
    profile["duration_s"] = 20
    run.write("profile.json", profile)
    config = run.load("field_config.json")
    config["cfc"] = {"trans": 1000, "ang_vel": 155}
    config["trigger"] = {"threshold_g": 3, "min_duration_ms": 3}
    for sensor in config["sensors"]:
        for channel in sensor["channels"].values():
            channel["rate_hz"] = int(channel["rate_hz"])
    run.write("config.json", config)
    run.cli("simulate --profile profile.json --config config.json --out session --seed 7")
    run.cli("detect --config config.json --in session --out events.csv")
    return run.sha256()


@case("other file layouts")
def layouts(run):
    """The benchmark config writes each headband's high-g channel to a
    <id>_high.csv companion and the mouthpiece's to its event blocks.  Copy
    the clean profile and the config twice: with the headband accel_high at
    1125 Hz (no companions) and with the mouthpiece accel_high at 1600 Hz
    (block companions).  Simulate, detect, reconstruct with --scalograms,
    evaluate and report: every output file must have the same sha256."""
    run.copy("field_session_18_clean.json", "profile.json")
    for name, role, rate in (("headband_high_1125", "headband", 1125.0),
                             ("mouthpiece_high_1600", "reference", 1600.0)):
        config = run.load("field_config.json")
        for sensor in config["sensors"]:
            if sensor["role"] == role:
                sensor["channels"]["accel_high"]["rate_hz"] = rate
        run.write(f"{name}.json", config)
    for name in ("headband_high_1125", "mouthpiece_high_1600"):
        run.cli(f"simulate --profile profile.json --config {name}.json "
                f"--out {name}-session --seed 7")
        run.cli(f"detect --config {name}.json --in {name}-session --out {name}-events.csv")
        run.cli(f"reconstruct --config {name}.json --in {name}-session "
                f"--events {name}-events.csv --out {name}-kin --scalograms")
        run.cli(f"evaluate --config {name}.json --hb {name}-kin --ref {name}-kin "
                f"--pairs {name}-events.csv --out {name}-report.json")
        run.cli(f"report --in {name}-report.json --out {name}-tables "
                f"--hb {name}-kin --ref {name}-kin")
    return run.sha256()


@case("non-default windows")
def windows(run):
    """The benchmark and the cases above run the default window only, and one
    rule cuts every impact window, the rows reconstruct parses for it and the
    reference blocks.  Copy the config with windows
    pre/reference_post/headband_post of 40/60/150 ms and of 31.3/93.8/160 ms
    (not whole sample periods at 1125, 1600 or 3200 Hz), then simulate the
    bundled noisy profile at seed 3, detect, reconstruct with --scalograms
    and evaluate: every output file must have the same sha256."""
    run.copy("field_session_18.json", "profile.json")
    for name, window in (
            ("w40_60_150", {"pre_ms": 40.0, "reference_post_ms": 60.0,
                            "headband_post_ms": 150.0}),
            ("w31.3_93.8_160", {"pre_ms": 31.3, "reference_post_ms": 93.8,
                                "headband_post_ms": 160.0})):
        config = run.load("field_config.json")
        config["window"] = window
        run.write(f"{name}.json", config)
    for name in ("w40_60_150", "w31.3_93.8_160"):
        run.cli(f"simulate --profile profile.json --config {name}.json "
                f"--out {name}-session --seed 3")
        run.cli(f"detect --config {name}.json --in {name}-session --out {name}-events.csv")
        run.cli(f"reconstruct --config {name}.json --in {name}-session "
                f"--events {name}-events.csv --out {name}-kin --scalograms")
        run.cli(f"evaluate --config {name}.json --hb {name}-kin --ref {name}-kin "
                f"--pairs {name}-events.csv --out {name}-report.json")
    return run.sha256()


def comment_line(data):
    """``data`` with a "#" line after data row 1000."""
    lines = data.splitlines(keepends=True)
    head = next(i for i, ln in enumerate(lines) if not ln.startswith(b"#"))
    at = head + 1 + 1000
    return b"".join(lines[:at] + [b"# hand-edited\n"] + lines[at:])


@case("hand-edited sensor files")
def edited(run):
    """The benchmark's sensor files are written by simulate: LF line ends, no
    comment or blank line after the header, a final newline and the
    canonical column names.  Simulate the clean profile, then copy the
    session with every file that holds a gyro (the headband main files and
    the reference blocks) rewritten: with CRLF line ends, with a "#" line
    after data row 1000, and without its final newline (reconstruct parses
    such files whole), and with the gx column renamed and the config's
    column_map naming it.  Detect and reconstruct each copy: every output
    file must have the same sha256."""
    run.copy("field_session_18_clean.json", "profile.json")
    run.copy("field_config.json", "config.json")
    run.cli("simulate --profile profile.json --config config.json --out clean --seed 7")
    for name, edit in (
            ("crlf", lambda data: data.replace(b"\n", b"\r\n")),
            ("comment", comment_line),
            ("no_final_newline", lambda data: data.rstrip(b"\n")),
            ("renamed", lambda data: data.replace(b"time_s,gx,", b"time_s,gyro_x,", 1))):
        shutil.copytree(run.work / "clean", run.work / name)
        # The headband main files and the reference blocks hold a gyro.
        for path in (run.work / name).glob("*.csv"):
            data = path.read_bytes()
            if b"time_s,gx," in data:
                path.write_bytes(edit(data))
    config = run.load("field_config.json")
    config["column_map"] = {"gx": "gyro_x"}
    run.write("renamed.json", config)
    for name in ("crlf", "comment", "no_final_newline", "renamed"):
        cfg = "renamed.json" if name == "renamed" else "config.json"
        run.cli(f"detect --config {cfg} --in {name} --out {name}-events.csv")
        run.cli(f"reconstruct --config {cfg} --in {name} --events {name}-events.csv "
                f"--out {name}-kin")
    return run.sha256()


@case("fresh default reconstruct", WARNINGS)
def stderr(run):
    """reconstruct runs its first pair, then forks and splits the other pairs
    between two processes.  Python shows a warning once per process, so a
    fresh default reconstruct must print the same warnings, the same number
    of times, at the head and at the base.  Simulate the bundled noisy
    profile, detect and reconstruct; the stripped stderr lines of reconstruct
    are compared sorted."""
    run.copy("field_session_18.json", "profile.json")
    run.copy("field_config.json", "config.json")
    run.cli("simulate --profile profile.json --config config.json --out session --seed 7")
    run.cli("detect --config config.json --in session --out events.csv")
    run.cli("reconstruct --config config.json --in session --events events.csv --out kin",
            err="reconstruct.err")
    text = (run.work / "reconstruct.err").read_text(encoding="utf-8")
    return "\n".join(sorted(strip_warnings(text))) + "\n"


def break_cell(path, row, column=1, cell=lambda old: "x"):
    """Cell ``column`` of data row ``row`` becomes ``cell(old cell)``; with no
    row, the column is cut from every line."""
    lines = path.read_text().splitlines(keepends=True)
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    for at in range(head, len(lines)) if row is None else [head + 1 + row]:
        cells = lines[at].rstrip("\n").split(",")
        if row is None:
            del cells[column]
        else:
            cells[column] = cell(cells[column])
        lines[at] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


@case("broken cells", FAILED_RUNS)
def errors(run):
    """detect and reconstruct read their session files in two processes, and
    then build and check the recordings in the serial order, so the first bad
    cell in that order names the error, whichever process parsed it.  The
    benchmark's sessions have no bad cell.  Simulate the bundled clean
    profile, detect it, then copy the session with one cell broken: in the
    first headband _high file, in the last, in both, in the last reference
    block, and in a headband main file (which only reconstruct reads), each
    headband cell in a row inside a pair's window, which reconstruct parses
    too.  Three more copies hold cells that parse but fail a check: a NaN
    gyro cell in a main file and a _high time cell 0.4 samples off the grid,
    each inside a pair's window, and a main file without its gz column.
    Detect and reconstruct (with the clean events) each copy: the exit codes
    and the stripped stderr must match."""
    run.copy("field_session_18_clean.json", "profile.json")
    run.copy("field_config.json", "config.json")
    run.cli("simulate --profile profile.json --config config.json --out clean --seed 7")
    run.cli("detect --config config.json --in clean --out events.csv")
    config = run.load("field_config.json")
    headband = [s["id"] for s in config["sensors"] if s["role"] == "headband"]
    blocks = sorted((run.work / "clean").glob("mouthpiece_ev*.csv"))
    rows = [ln.split(",") for ln in (run.work / "events.csv").read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    # The data row at pair k's headband trigger, inside its window.
    t0 = {int(r[0]): float(r[2]) for r in rows if r[0] and r[1] == "headband"}
    high = {k: int(t * 1600.0) for k, t in t0.items()}
    copies = {
        "first_high": [(f"{headband[0]}_high.csv", high[1])],
        "last_high": [(f"{headband[-1]}_high.csv", high[1])],
        "both_high": [(f"{headband[0]}_high.csv", high[2]),
                      (f"{headband[-1]}_high.csv", high[1])],
        "last_block": [(blocks[-1].name, 100)],
        "main_window": [(f"{headband[2]}.csv", int(t0[1] * 1125.0))],
        "main_nan": [(f"{headband[1]}.csv", int(t0[1] * 1125.0), 2, lambda old: "nan")],
        "high_off_grid": [(f"{headband[3]}_high.csv", high[2], 0,
                           lambda old: "%.14g" % (float(old) + 0.4 / 1600.0))],
        "main_no_gz": [(f"{headband[0]}.csv", None, 3)]}
    for name, cells in copies.items():
        shutil.copytree(run.work / "clean", run.work / name)
        for file, *edit in cells:
            break_cell(run.work / name / file, *edit)
    exits = []
    for name in copies:
        code = run.cli(f"detect --config config.json --in {name} --out {name}-events.csv",
                       err=f"{name}-detect.err", check=False)
        exits.append(f"{name} detect exit {code}\n")
        code = run.cli(f"reconstruct --config config.json --in {name} "
                       f"--events events.csv --out {name}-kin",
                       err=f"{name}-reconstruct.err", check=False)
        exits.append(f"{name} reconstruct exit {code}\n")
    return "".join(exits) + "".join(
        "\n  ".join([path.name, *strip_warnings(path.read_text(encoding="utf-8"))]) + "\n"
        for path in sorted(run.work.glob("*.err")))


@case("simulate without a reference and with a gyro-only sensor")
def sensors(run):
    """simulate builds each sensor in the process that writes it: one job per
    headband sensor and one for the reference device's blocks.  The
    benchmark's config always has a reference sensor and three channels per
    headband sensor.  Copy the config twice: without the reference sensor (no
    reference job), and with bt_right_inner keeping only its gyro (one file,
    no _high companion).  Simulate the bundled noisy profile with each: every
    output file must have the same sha256."""
    run.copy("field_session_18.json", "profile.json")
    config = run.load("field_config.json")
    run.write("no_reference.json", dict(config, sensors=[
        s for s in config["sensors"] if s["role"] != "reference"]))
    for sensor in config["sensors"]:
        if sensor["id"] == "bt_right_inner":
            sensor["channels"] = {"gyro": sensor["channels"]["gyro"]}
    run.write("gyro_only.json", config)
    for name in ("no_reference", "gyro_only"):
        run.cli(f"simulate --profile profile.json --config {name}.json "
                f"--out {name}-session --seed 7")
    return run.sha256()


@case("simulate at motion scales 1e-6 and 1e6")
def scales(run):
    """The benchmark's session cells are mostly in fixed notation and within
    1e14 of zero.  Simulate the bundled clean profile with every motion
    amplitude (omega_components and q_components) scaled by 1e-6, which gives
    cells in exponent notation and cells below 1e-9 that the table writer
    formats with Python's %, and by 1e6, which gives integer parts of up to
    12 digits.  The reference sensor is dropped from the config, because at
    1e6 its trigger fires from the first sample.  Every output file must have
    the same sha256."""
    config = run.load("field_config.json")
    config["sensors"] = [s for s in config["sensors"] if s["role"] != "reference"]
    run.write("config.json", config)
    for scale in (1e-6, 1e6):
        profile = run.load("field_session_18_clean.json")
        for key in ("omega_components", "q_components"):
            profile[key] = [[dict(comp, amplitude=comp["amplitude"] * scale)
                             for comp in axis] for axis in profile[key]]
        run.write(f"scaled_{scale:g}.json", profile)
    for scale in (1e-6, 1e6):
        run.cli(f"simulate --profile scaled_{scale:g}.json --config config.json "
                f"--out session_{scale:g} --seed 7")
    return run.sha256()


@case("reconstruct at seeds 1-5 and thresholds 0.05, 0.1 and 0.2")
def cutoffs(run):
    """reconstruct takes each adaptive cutoff from two scalogram columns and
    computes the full scalogram only where a slice value lies close to the
    threshold; the benchmark meets seeds 7 and 11 at the default threshold
    only.  Simulate the bundled noisy profile at seeds 1-5, then detect, and
    reconstruct with the bundled config and with filter.coeff_threshold 0.05
    and 0.2: every kin/ file must have the same sha256."""
    run.copy("field_session_18.json", "profile.json")
    run.copy("field_config.json", "bundled.json")
    for threshold in ("0.05", "0.2"):
        config = run.load("field_config.json")
        config["filter"]["coeff_threshold"] = float(threshold)
        run.write(f"t{threshold}.json", config)
    for seed in range(1, 6):
        run.cli(f"simulate --profile profile.json --config bundled.json "
                f"--out session-{seed} --seed {seed}")
        run.cli(f"detect --config bundled.json --in session-{seed} --out events-{seed}.csv")
        for name in ("bundled", "t0.05", "t0.2"):
            run.cli(f"reconstruct --config {name}.json --in session-{seed} "
                    f"--events events-{seed}.csv --out kin/{name}-{seed}")
    return run.sha256("kin")


def compare(name, head, base):
    """Run case ``name`` in both trees and report; True if the texts match."""
    fn, label, (differ, same, counted) = CASES[name]
    texts = {}
    with tempfile.TemporaryDirectory(prefix=f"compare-base-{name}-") as tmp:
        for side, tree in (("head", head), ("base", base)):
            try:
                texts[side] = fn(Run(tree, Path(tmp) / side))
            except subprocess.CalledProcessError as exc:
                print(f"{label}: exit {exc.returncode} at the {side}: "
                      f"{' '.join(exc.cmd[1:])}", file=sys.stderr)
                return False
    if texts["head"] != texts["base"]:
        sys.stdout.writelines(difflib.unified_diff(
            texts["base"].splitlines(keepends=True),
            texts["head"].splitlines(keepends=True), "base", "head"))
        sys.stdout.flush()
        print(f"{label}: {differ} from the base", file=sys.stderr)
        return False
    count = sum(map(counted, texts["head"].splitlines()))
    sys.stdout.write(f"{texts['head']}{label}: {same.format(count)} at head and base\n")
    sys.stdout.flush()
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare what the kinereco CLI writes at two trees.",
        epilog=f"cases: {' '.join(CASES)}")
    parser.add_argument("head", type=Path, help="the changed tree")
    parser.add_argument("base", type=Path, help="the tree it is compared with")
    parser.add_argument("cases", nargs="*", metavar="case",
                        help="the cases to run (default: every case)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.cases if name not in CASES]
    if unknown:
        parser.error(f"unknown case {' '.join(unknown)}; cases: {' '.join(CASES)}")
    head, base = args.head.resolve(), args.base.resolve()
    failed = [name for name in args.cases or CASES if not compare(name, head, base)]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
