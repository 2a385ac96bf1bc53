# kinereco first: it sets OpenBLAS to one thread before numpy loads it, so
# the test process runs one thread, as a kinereco command does, and
# write_session forks its second process here too (it simulates each sensor
# in the process that writes it).
import kinereco  # noqa: F401  (isort: skip)

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from kinereco import cli
from kinereco.cli import main
from kinereco.ingest import imu_csv_files, load_session_config, write_imu_csv
from kinereco.synth import (SessionProfile, config_to_json_dict, dump_profile,
                            example_session_config, simulate_session,
                            standard_session_profile, write_simulated_session)


def rotation_about(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    if axis == 0:
        return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
    if axis == 1:
        return np.array([[c, 0, s], [0, 1.0, 0], [-s, 0, c]])
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def write_recording(path, rec, header_comments=()):
    """Write every CSV file of ``rec`` at ``path``, as write_session writes
    each sensor's."""
    for file, kinds in imu_csv_files(path, rec):
        write_imu_csv(file, rec, kinds, header_comments)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids :func:`os.fork` returned in this process."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


@pytest.fixture
def cwt_calls(monkeypatch):
    """The ``columns`` argument of every ``cwt`` call ``adaptive_filter``
    makes in this process (None for the full scalogram)."""
    from kinereco import kinematics

    calls, real = [], kinematics.cwt

    def spy(x, columns=None):
        calls.append(columns)
        return real(x, columns)

    monkeypatch.setattr(kinematics, "cwt", spy)
    return calls


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    # QR of a Gaussian matrix, sign-fixed to det +1.
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture(scope="session")
def config():
    return example_session_config()


@pytest.fixture(scope="session")
def clean_profile_small() -> SessionProfile:
    """Three impacts (one per tier), no noise: the fast pipeline fixture."""
    return standard_session_profile(seed=11, with_noise=False, n_per_tier=1)


@pytest.fixture(scope="session")
def clean_session_small(config, clean_profile_small):
    return simulate_session(clean_profile_small, config, seed=5)


@pytest.fixture(scope="session")
def small_pipeline(tmp_path_factory, config, clean_session_small):
    """clean_session_small written out -> detect -> reconstruct, via the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    session = root / "session"
    write_simulated_session(clean_session_small, session)
    config_path = session / "config.json"
    events = root / "events.csv"
    assert main(["detect", "--config", str(config_path), "--in", str(session),
                 "--out", str(events)]) == 0
    kin = root / "kin"
    assert main(["reconstruct", "--config", str(config_path),
                 "--in", str(session), "--events", str(events),
                 "--out", str(kin), "--alpha-method", "both"]) == 0
    return dict(root=root, session=session, config=config_path, events=events,
                kin=kin)


@pytest.fixture(scope="session")
def skewed_session(config):
    """Full 18-impact session with a 20 ms reference clock offset."""
    profile = standard_session_profile(seed=21, with_noise=False,
                                       reference_clock_offset_s=0.020)
    return simulate_session(profile, config, seed=9)


@pytest.fixture(scope="session", params=["sparse6", "field18"])
def bench(request, tmp_path_factory):
    """perfbench's sparse6 or field18 session at seed 7, detected:
    ``(config, session directory, events file)``."""
    root = tmp_path_factory.mktemp(request.param)
    profile, config = root / "profile.json", root / "config.json"
    if request.param == "field18":
        bundled = Path(cli.__file__).parent / "profiles"
        shutil.copyfile(bundled / "field_session_18.json", profile)
        shutil.copyfile(bundled / "field_config.json", config)
    else:
        dump_profile(standard_session_profile(7, n_per_tier=2, spacing_s=6.0),
                     profile)
        config.write_text(json.dumps(config_to_json_dict(
            example_session_config())))
    session, events = root / "session", root / "events.csv"
    assert main(["simulate", "--profile", str(profile), "--config",
                 str(config), "--out", str(session), "--seed", "7"]) == 0
    assert main(["detect", "--config", str(config), "--in", str(session),
                 "--out", str(events)]) == 0
    return load_session_config(config), session, events
