"""Start-up cost: ``import kinereco`` loads no scipy module, no subcommand
loads scipy.signal or scipy.stats, and ``reconstruct`` loads scipy.fft only
for the full scalograms.

Importing scipy.signal (which imports scipy.stats) costs most of a second
and about 40 MB, more than most subcommands spend on their work, so kinereco
filters with its own numpy code and imports the scipy parts it does use
inside the functions that use them.  Each check runs in a fresh interpreter, because the test
process itself has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prints the scipy modules loaded after the import and after each command.
SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

loaded = {}
import kinereco.cli
loaded["import"] = scipy_modules()
for name, argv in json.loads(sys.argv[1]):
    if kinereco.cli.main(argv) != 0:
        sys.exit(f"{name} failed")
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def loaded_after(commands):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_simulate_and_detect_load_no_scipy(tmp_path, config):
    from kinereco.synth import (config_to_json_dict, dump_profile,
                                standard_session_profile)

    profile = dump_profile(
        standard_session_profile(seed=30, with_noise=False, n_per_tier=1),
        tmp_path / "profile.json")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_json_dict(config)))
    session = tmp_path / "session"
    loaded = loaded_after([
        ("simulate", ["simulate", "--profile", str(profile), "--config",
                      str(config_path), "--out", str(session)]),
        ("detect", ["detect", "--config", str(config_path), "--in",
                    str(session), "--out", str(tmp_path / "events.csv")]),
    ])
    assert loaded == {"import": [], "simulate": [], "detect": []}


def test_evaluate_loads_neither_scipy_signal_nor_stats(tmp_path,
                                                       small_pipeline):
    loaded = loaded_after([
        ("evaluate", ["evaluate", "--config", str(small_pipeline["config"]),
                      "--hb", str(small_pipeline["kin"]),
                      "--ref", str(small_pipeline["kin"]),
                      "--pairs", str(small_pipeline["events"]),
                      "--out", str(tmp_path / "report.json")]),
    ])
    assert loaded["import"] == []
    assert not {"scipy.signal", "scipy.stats"} & set(loaded["evaluate"])


def reconstruct_argv(small_pipeline, out, *flags):
    return ["reconstruct", "--config", str(small_pipeline["config"]),
            "--in", str(small_pipeline["session"]),
            "--events", str(small_pipeline["events"]),
            "--out", str(out), "--alpha-method", "both", *flags]


def test_reconstruct_loads_neither_scipy_signal_nor_stats(
        tmp_path, small_pipeline, monkeypatch, cwt_calls):
    # Nor scipy.fft, which computes the full scalograms only: every cutoff of
    # this session is decided from two scalogram columns (a one-process run
    # shows it), so none is computed.
    from kinereco import cli

    monkeypatch.delattr(os, "fork")
    assert cli.main(reconstruct_argv(small_pipeline, tmp_path / "spied")) == 0
    assert cwt_calls and None not in cwt_calls

    loaded = loaded_after([
        ("reconstruct", reconstruct_argv(small_pipeline, tmp_path / "kin")),
    ])
    assert loaded["import"] == []
    assert not {"scipy.signal", "scipy.stats"} & set(loaded["reconstruct"])
    assert not [m for m in loaded["reconstruct"] if m.startswith("scipy.fft")]


def test_reconstruct_with_scalograms_loads_scipy_fft(tmp_path, small_pipeline):
    loaded = loaded_after([
        ("reconstruct", reconstruct_argv(small_pipeline, tmp_path / "kin",
                                         "--scalograms")),
    ])
    assert "scipy.fft" in loaded["reconstruct"]


#: Prints the thread count of each OpenBLAS library loaded once numpy and the
#: scipy modules that ``reconstruct`` uses are imported, optionally after
#: ``kinereco`` itself.
BLAS_SCRIPT = r"""
import ctypes, json, re, sys
if sys.argv[1] == "kinereco":
    import kinereco.cli
import numpy, scipy.fft, scipy.linalg

counts = {}
with open("/proc/self/maps") as fh:
    libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
for lib in libs:
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            counts[lib.rpartition("/")[2]] = fn()
            break
print(json.dumps(counts))
"""


def blas_threads(first: str, env: dict) -> dict:
    proc = subprocess.run([sys.executable, "-c", BLAS_SCRIPT, first],
                          env={**env, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_openblas_runs_one_thread_unless_the_user_sets_a_count():
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find the loaded libraries in")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    counts = blas_threads("kinereco", env)
    if not counts:
        pytest.skip("numpy and scipy use no OpenBLAS here")
    assert set(counts.values()) == {1}, counts
    # A count the user set wins: OpenBLAS makes of it what it makes of it
    # without kinereco (it caps the count at the number of CPUs).
    env["OPENBLAS_NUM_THREADS"] = "2"
    assert blas_threads("kinereco", env) == blas_threads("numpy", env)
