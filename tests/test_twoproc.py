import functools
import os

import pytest

from kinereco.errors import DataError
from kinereco.ingest import imu_csv_files
from kinereco.twoproc import run_in_two

from conftest import assert_no_child_left


def test_shares_balance_cost_largest_job_first(tmp_path, clean_session_small):
    """The jobs this process ran are the only ones it saw; the child's
    appends stay in the child."""
    sim = clean_session_small
    cells = [c for r in list(sim.headband) + list(sim.reference_blocks)
             for _, _, c in imu_csv_files(tmp_path / f"{r.sensor_id}.csv", r)]
    seen = []
    run_in_two([(c, functools.partial(seen.append, i))
                for i, c in enumerate(cells)])
    child = set(range(len(cells))) - set(seen)
    assert seen == sorted(seen) and child
    mine = sum(cells[i] for i in seen)
    theirs = sum(cells[i] for i in child)
    assert abs(mine - theirs) <= max(cells)
    assert cells[seen[0]] == max(cells)
    assert_no_child_left()


def test_jobs_before_the_fork_run_first_and_stay_out_of_the_split(forks):
    """The first ``before_fork`` jobs run here before the fork, and the
    rest are balanced among themselves."""
    seen = []

    def job(i):
        seen.append((i, len(forks)))

    run_in_two([(100, functools.partial(job, 0)), (1, functools.partial(job, 1)),
                (1, functools.partial(job, 2))], before_fork=1)
    assert seen == [(0, 0), (1, 1)]
    assert len(forks) == 1
    assert_no_child_left()


def test_jobs_before_the_fork_run_until_one_returns(forks):
    """A job that fails before the fork leaves nothing for the child to
    inherit, so the next job runs before the fork too."""
    seen = []

    def job(i):
        seen.append((i, len(forks)))
        if i < 2:
            raise DataError(f"job {i} failed")

    with pytest.raises(DataError, match="^job 0 failed$"):
        run_in_two([(1, functools.partial(job, i)) for i in range(5)],
                   before_fork=1)
    assert seen[:3] == [(0, 0), (1, 0), (2, 0)]
    assert sorted(seen[3:]) == [(3, 1)]
    assert len(forks) == 1
    assert_no_child_left()


def test_every_job_may_run_before_the_fork(forks):
    seen = []

    def job(i):
        seen.append(i)
        raise DataError(f"job {i} failed")

    with pytest.raises(DataError, match="^job 0 failed$"):
        run_in_two([(1, functools.partial(job, i)) for i in range(3)],
                   before_fork=1)
    assert seen == [0, 1, 2]
    assert forks == []


@pytest.mark.parametrize("before_fork", [0, 1])
def test_every_job_runs_and_the_earliest_error_is_raised(tmp_path, forks,
                                                         before_fork):
    """Jobs 0, 3 and 4 fail, in both shares: every other job still leaves
    its file, and job 0's error is raised."""
    def job(i):
        if i in (0, 3, 4):
            raise DataError(f"job {i} failed")
        (tmp_path / f"{i}.txt").write_text(str(i))

    with pytest.raises(DataError, match="^job 0 failed$"):
        run_in_two([(1, functools.partial(job, i)) for i in range(8)],
                   before_fork)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "1.txt", "2.txt", "5.txt", "6.txt", "7.txt"]
    assert len(forks) == 1
    assert_no_child_left()


def test_no_job_starts_no_process(forks):
    run_in_two([])
    assert forks == []


def test_without_fork_every_job_runs_here_in_order(monkeypatch):
    monkeypatch.delattr(os, "fork")
    seen = []
    run_in_two([(c, functools.partial(seen.append, i))
                for i, c in enumerate([3, 9, 1, 4])])
    assert seen == [0, 1, 2, 3]


def test_the_child_share_runs_here_when_the_child_fails(tmp_path, forks):
    """A job that fails only in the child costs nothing: this process runs
    the child's whole share again once the child has exited."""
    parent = os.getpid()

    def job(i):
        if os.getpid() != parent:
            raise DataError("no room in the child")
        (tmp_path / f"{i}.txt").write_text(str(i))

    run_in_two([(1, functools.partial(job, i)) for i in range(4)])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "0.txt", "1.txt", "2.txt", "3.txt"]
    assert len(forks) == 1
    assert_no_child_left()
