"""Deterministic mutation fuzz of the JSON inputs at the CLI boundary.

Each case replaces one value of the session config, the session profile or
an agreement report (a leaf or a whole block) with a hostile one, or deletes
it, and runs the command that reads the file in-process on a clean 3-impact
session.  Whatever the input, the command must exit 0, or exit 1 with
exactly one error line; no exception may escape and no warning may be raised
except the CFC low-rate one that pytest's config ignores.  The seed and the
case count are fixed, so every run tries the same cases.
"""

import copy
import json
import math
import random
import traceback
import warnings

import pytest

from kinereco.cli import main
from kinereco.synth import dump_profile

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


def test_mutated_inputs_exit_cleanly(inputs, small_pipeline, tmp_path, capsys):
    rng = random.Random(SEED)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(inputs["profile"]))
    failures = []
    for case in range(CASES):
        kind = rng.choice(sorted(inputs))
        path = rng.choice(list(paths(inputs[kind])))
        value = rng.choice(VALUES)
        mutant = tmp_path / f"{kind}{case}.json"
        mutant.write_text(json.dumps(mutated(inputs[kind], path, value)))
        argv = [str(a) for a in command(kind, mutant, tmp_path / f"out{case}",
                                        small_pipeline, profile, rng)]
        what = (f"case {case}: {kind} {list(path)} = "
                f"{'deleted' if value is DELETE else repr(value)[:20]}, "
                f"{argv[0]}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.filterwarnings(
                    "ignore", "sample rate .* is below the recommended",
                    UserWarning)
                code = main(argv)
        except BaseException as exc:
            failures.append(f"{what}: {type(exc).__name__}: {exc} at "
                            f"{traceback.extract_tb(exc.__traceback__)[-1]}")
            capsys.readouterr()
            continue
        err = capsys.readouterr().err.strip().splitlines()
        if code not in (0, 1):
            failures.append(f"{what}: exit {code}")
        elif code == 1 and not (len(err) == 1 and
                                err[0].startswith("kinereco: error: ")):
            failures.append(f"{what}: stderr {err}")
    assert not failures, "\n".join(failures)
