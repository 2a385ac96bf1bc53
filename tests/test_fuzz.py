"""Deterministic mutation fuzz of the inputs at the CLI boundary.

Each JSON case replaces one value of the session config, the session
profile or an agreement report (a leaf or a whole block) with a hostile
one, or deletes it, and runs the command that reads the file in-process on
a clean 3-impact session.  Each CSV case deletes, duplicates, swaps or
truncates a data line of one session CSV, or replaces one of its cells, and
runs ``detect`` and ``reconstruct`` on a clean 1-impact session.  Whatever
the input, the command must exit 0, or exit 1 with exactly one error line;
no exception may escape and no warning may be raised except the CFC
low-rate one that pytest's config ignores.  The seed and the case counts
are fixed, so every run tries the same cases.
"""

import copy
import dataclasses
import json
import math
import random
import traceback
import warnings
from pathlib import Path

import pytest

from kinereco.cli import main
from kinereco.synth import (dump_profile, simulate_session,
                            write_simulated_session)

SEED = 20261019
CASES = 60

#: The replacement values; DELETE removes the entry instead.
DELETE = object()
VALUES = (None, "0.5", True, math.nan, math.inf, 1e308, 10 ** 400, [], {},
          DELETE)


def paths(node, prefix=()):
    """The path of every value below ``node``, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def inputs(small_pipeline, clean_profile_small, tmp_path_factory):
    """The clean config, profile and report, and the files they go with."""
    root = tmp_path_factory.mktemp("fuzz")
    profile = dump_profile(clean_profile_small, root / "profile.json")
    report = root / "report.json"
    assert main(["evaluate", "--config", str(small_pipeline["config"]),
                 "--hb", str(small_pipeline["kin"]),
                 "--ref", str(small_pipeline["kin"]),
                 "--pairs", str(small_pipeline["events"]),
                 "--out", str(report)]) == 0
    docs = {"config": small_pipeline["config"], "profile": profile,
            "report": report}
    return {name: json.loads(path.read_text()) for name, path in docs.items()}


def command(kind, mutant, out, pipeline, profile, rng):
    """The argv that reads the mutated ``kind`` file at ``mutant``."""
    if kind == "profile":
        return ["simulate", "--profile", mutant, "--config", pipeline["config"],
                "--out", out]
    if kind == "report":
        return ["report", "--in", mutant, "--out", out,
                "--hb", pipeline["kin"], "--ref", pipeline["kin"]]
    stage = rng.choice(("simulate", "detect", "reconstruct", "evaluate"))
    return {
        "simulate": ["simulate", "--profile", profile, "--config", mutant,
                     "--out", out],
        "detect": ["detect", "--config", mutant, "--in", pipeline["session"],
                   "--out", out],
        "reconstruct": ["reconstruct", "--config", mutant,
                        "--in", pipeline["session"],
                        "--events", pipeline["events"], "--out", out],
        "evaluate": ["evaluate", "--config", mutant, "--hb", pipeline["kin"],
                     "--ref", pipeline["kin"], "--pairs", pipeline["events"],
                     "--out", out],
    }[stage]


def json_cases(inputs, pipeline, tmp_path):
    """``(case, kind, path, value, argv)`` of every JSON case, in order, each
    mutated file written under ``tmp_path``."""
    rng = random.Random(SEED)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(inputs["profile"]))
    for case in range(CASES):
        kind = rng.choice(sorted(inputs))
        path = rng.choice(list(paths(inputs[kind])))
        value = rng.choice(VALUES)
        mutant = tmp_path / f"{kind}{case}.json"
        mutant.write_text(json.dumps(mutated(inputs[kind], path, value)))
        argv = [str(a) for a in command(kind, mutant, tmp_path / f"out{case}",
                                        pipeline, profile, rng)]
        yield case, kind, path, value, argv


def test_mutated_inputs_exit_cleanly(inputs, small_pipeline, tmp_path, capsys):
    failures = []
    for case, kind, path, value, argv in json_cases(inputs, small_pipeline,
                                                    tmp_path):
        what = (f"case {case}: {kind} {list(path)} = "
                f"{'deleted' if value is DELETE else repr(value)[:20]}, "
                f"{argv[0]}")
        failures += run_cleanly(what, argv, capsys)
    assert not failures, "\n".join(failures)


#: The report cases whose mutated value is a block or entry of the wrong
#: type; each used to fail without naming the field.
REPORT_TYPE_CASES = (4, 31, 55, 59)


def test_report_type_errors_name_the_field(inputs, small_pipeline, tmp_path,
                                           capsys):
    """``events[2].peaks.linear_acceleration = inf`` is reported as
    ``events[2].peaks.linear_acceleration must be an object, got float``,
    and no output directory is made."""
    seen = []
    for case, kind, path, value, argv in json_cases(inputs, small_pipeline,
                                                    tmp_path):
        if case not in REPORT_TYPE_CASES:
            continue
        assert kind == "report" and value is not DELETE
        field = "".join(f"[{key}]" if type(key) is int else f".{key}"
                        for key in path).lstrip(".")
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"kinereco: error: FormatError: {argv[2]}: {field} "
                       f"must be an object, got {type(value).__name__}"]
        assert not Path(argv[4]).exists()
        seen.append(case)
    assert seen == list(REPORT_TYPE_CASES)


def run_cleanly(what, argv, capsys) -> list[str]:
    """What went wrong when ``main(argv)`` ran: nothing, if it exited 0, or
    1 with one error line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings(
                "ignore", "sample rate .* is below the recommended",
                UserWarning)
            code = main(argv)
    except BaseException as exc:
        capsys.readouterr()
        return [f"{what}: {type(exc).__name__}: {exc} at "
                f"{traceback.extract_tb(exc.__traceback__)[-1]}"]
    err = capsys.readouterr().err.strip().splitlines()
    if code not in (0, 1):
        return [f"{what}: exit {code}"]
    if code == 1 and not (len(err) == 1 and
                          err[0].startswith("kinereco: error: ")):
        return [f"{what}: stderr {err}"]
    return []


CSV_CASES = 30
#: Four line edits, then the values the cell edits put in one cell.
CSV_EDITS = ("delete", "duplicate", "swap", "truncate", "nan", "", "1e999",
             "abc")


@pytest.fixture(scope="module")
def one_impact(config, clean_profile_small, tmp_path_factory):
    """A clean session of the first impact alone, and its events file."""
    profile = clean_profile_small
    first = profile.impacts[0]
    profile = dataclasses.replace(profile, impacts=(first,),
                                  duration_s=first.time_s + 0.5)
    root = tmp_path_factory.mktemp("fuzz_csv")
    session = root / "session"
    write_simulated_session(simulate_session(profile, config, seed=5), session)
    events = root / "events.csv"
    assert main(["detect", "--config", str(session / "config.json"),
                 "--in", str(session), "--out", str(events)]) == 0
    return session, events, first.time_s


def mutated_csv(text: str, edit: str, rng, near: float) -> str:
    """``text`` with one data line edited: half the time a line within
    0.1 s of the time ``near``, where a file has such lines.  The cell
    edits pick a cell."""
    lines = text.splitlines(keepends=True)
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    rows = range(head + 1, len(lines) - 1)
    close = [i for i in rows
             if abs(float(lines[i].split(",", 1)[0]) - near) < 0.1]
    i = rng.choice(close if close and rng.random() < 0.5 else rows)
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "swap":
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif edit == "truncate":
        lines[i] = lines[i][:rng.randrange(len(lines[i]) - 1)] + "\n"
    else:
        cells = lines[i].rstrip("\n").split(",")
        cells[rng.randrange(len(cells))] = edit
        lines[i] = ",".join(cells) + "\n"
    return "".join(lines)


def test_mutated_csvs_exit_cleanly(one_impact, tmp_path, capsys):
    session, events, impact = one_impact
    config = str(session / "config.json")
    names = sorted(p.name for p in session.glob("*.csv")
                   if p.name != "labels.csv")
    rng = random.Random(SEED)
    failures = []
    for case in range(CSV_CASES):
        name, edit = rng.choice(names), rng.choice(CSV_EDITS)
        path = session / name
        clean = path.read_text()
        path.write_text(mutated_csv(clean, edit, rng, impact))
        try:
            for argv in (["detect", "--config", config, "--in", str(session),
                          "--out", str(tmp_path / f"events{case}.csv")],
                         ["reconstruct", "--config", config,
                          "--in", str(session), "--events", str(events),
                          "--out", str(tmp_path / f"kin{case}")]):
                failures += run_cleanly(f"case {case}: {name} {edit!r}, "
                                        f"{argv[0]}", argv, capsys)
        finally:
            path.write_text(clean)
    assert not failures, "\n".join(failures)
