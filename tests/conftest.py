import numpy as np
import pytest

from kinereco.cli import main
from kinereco.synth import (SessionProfile, example_session_config,
                            simulate_session, standard_session_profile,
                            write_simulated_session)


def rotation_about(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    if axis == 0:
        return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
    if axis == 1:
        return np.array([[c, 0, s], [0, 1.0, 0], [-s, 0, c]])
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


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
    write_simulated_session(clean_session_small, config, session)
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
