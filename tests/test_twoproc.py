import functools
import logging
import mmap
import os
import signal

import numpy as np
import pytest

from kinereco import twoproc
from kinereco.errors import DataError
from kinereco.twoproc import read_in_two, run_in_two

from conftest import assert_no_child_left


def test_shares_balance_cost_largest_job_first():
    """The jobs this process ran are the only ones it saw; the child's
    appends stay in the child."""
    costs = [300_308, 75_077, 124_802, 9_000, 300_308, 2_561, 216_054,
             300_308, 75_077, 48_005, 12_803, 300_308, 5_000, 75_077]
    seen = []
    run_in_two([(c, functools.partial(seen.append, i))
                for i, c in enumerate(costs)])
    child = set(range(len(costs))) - set(seen)
    assert seen == sorted(seen) and child
    mine = sum(costs[i] for i in seen)
    theirs = sum(costs[i] for i in child)
    assert abs(mine - theirs) <= max(costs)
    assert costs[seen[0]] == max(costs)
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


def test_one_job_runs_here_and_starts_no_process(forks):
    seen = []
    assert run_in_two([(5, functools.partial(seen.append, 0))]) == [None]
    assert seen == [0]
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


def child_share(n: int) -> list:
    """The jobs of ``n`` jobs of cost 1 that the child runs."""
    seen = []
    run_in_two([(1, functools.partial(seen.append, i)) for i in range(n)])
    return sorted(set(range(n)) - set(seen))


def test_a_job_raising_only_in_the_child_runs_again_here_alone(forks, caplog):
    """The child records which of its jobs raised and runs the rest, and it
    exits by itself: this process runs that one job again, with no
    warning."""
    failing = child_share(6)[1]
    parent, seen = os.getpid(), []

    def job(i):
        if i == failing and os.getpid() != parent:
            raise DataError("only in the child")
        seen.append(i)

    with caplog.at_level(logging.WARNING, logger="kinereco.twoproc"):
        run_in_two([(1, functools.partial(job, i)) for i in range(6)])
    assert sorted(seen) == sorted(set(range(6)) - set(child_share(6))
                                  | {failing})
    assert caplog.records == []
    assert len(forks) == 3
    assert_no_child_left()


def test_a_killed_child_is_warned_of_and_its_unfinished_jobs_run_here(
        forks, caplog):
    """The child is killed in its second job: the job it finished stays
    done, and this process runs the others, with one warning."""
    theirs = child_share(6)
    parent, seen = os.getpid(), []

    def job(i):
        if i == theirs[1] and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        seen.append(i)

    with caplog.at_level(logging.WARNING, logger="kinereco.twoproc"):
        run_in_two([(1, functools.partial(job, i)) for i in range(6)])
    assert sorted(seen) == sorted(set(range(6)) - {theirs[0]})
    assert [r.getMessage() for r in caplog.records] == [
        f"the second process exited with code -{signal.SIGKILL.value}; this "
        f"process runs the {len(theirs) - 1} jobs it did not finish"]
    assert_no_child_left()


def tables(n: int) -> list:
    """``n`` tables, every other with a row index, of NaNs with payloads,
    infinities and negative zeros among random values."""
    rng = np.random.default_rng(5)
    out = []
    for k in range(n):
        values = rng.normal(size=(50 + k, 1 + k % 4))
        values.flat[::7] = [np.nan, -0.0, np.inf, -np.inf][k % 4]
        values.view(np.uint64).flat[3] = 0x7FF8DEADBEEF0001  # a NaN payload
        index = np.arange(2, 2 + 3 * len(values), 3) if k % 2 else None
        out.append((values, index, 1000 + k))
    return out


def test_read_in_two_hands_back_every_table_bit_for_bit(forks):
    """The child's tables come back as views of their maps, with the
    values' bits, the index and the row count the job returned."""
    want = tables(6)
    got = read_in_two([(8 * t[0].size, functools.partial(lambda t: t, t))
                       for t in want])
    assert len(forks) == 1
    assert_no_child_left()
    mapped = 0
    for (values, index, n), (v, i, m) in zip(want, got):
        assert v.tobytes() == values.tobytes() and v.shape == values.shape
        assert (i is None) == (index is None) and m == n
        if i is not None:
            assert i.dtype == np.int64 and np.array_equal(i, index)
        while isinstance(v, np.ndarray):
            v = v.base
        mapped += isinstance(v, memoryview) and isinstance(v.obj, mmap.mmap)
    assert 0 < mapped < len(want)


def test_read_in_two_returns_each_error_and_reads_an_oversize_table_here(
        forks):
    """A read that raises gives its exception, raised here; a table larger
    than its map is read again here, by the same job."""
    parent, ran_here = os.getpid(), []
    big = np.zeros((100, 4))

    def read(k):
        if os.getpid() == parent:
            ran_here.append(k)
        if k == 1:
            raise DataError(f"read {k} failed in process {os.getpid()}")
        return big, None, 100

    got = read_in_two([(1, functools.partial(read, k)) for k in range(4)])
    assert isinstance(got[1], DataError)
    assert str(got[1]) == f"read 1 failed in process {parent}"
    for k in (0, 2, 3):
        assert got[k][0].tobytes() == big.tobytes()
    assert sorted(ran_here) == [0, 1, 2, 3]
    assert len(forks) == 1
    assert_no_child_left()


def test_without_a_map_one_process_runs_every_job(forks, monkeypatch):
    def no_memory(*args):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(twoproc.mmap, "mmap", no_memory)
    want = tables(3)
    got = read_in_two([(1 << 20, functools.partial(lambda t: t, t))
                       for t in want])
    assert all(g is w for g, w in zip(got, want))
    assert forks == []


def test_run_in_two_hands_back_tables_and_none(forks):
    """A job returns None or a table; the child's tables come back bit for
    bit from its maps, in the order of the jobs."""
    want = tables(6)
    got = run_in_two([(1, functools.partial(lambda t: t, t)) for t in want]
                     + [(1, lambda: None), (1, lambda: None)])
    assert len(forks) == 1
    assert_no_child_left()
    assert got[6:] == [None, None]
    for (values, index, n), (v, i, m) in zip(want, got):
        assert v.tobytes() == values.tobytes() and v.shape == values.shape
        assert (i is None) == (index is None) and m == n
        if i is not None:
            assert np.array_equal(i, index)


def test_run_in_two_computes_a_table_over_the_reserve_again_here(
        forks, monkeypatch):
    """The child's map holds ``_RESERVE`` bytes; a larger table is computed
    again here, by the same job, and a smaller one is not."""
    monkeypatch.setattr(twoproc, "_RESERVE", 8 * 40)
    parent, ran_here = os.getpid(), []

    def job(rows):
        if os.getpid() == parent:
            ran_here.append(rows)
        return np.full((rows, 2), float(rows)), None, rows

    theirs = child_share(4)
    sizes = [30 if k == theirs[0] else 10 for k in range(4)]
    got = run_in_two([(1, functools.partial(job, rows)) for rows in sizes])
    assert [table[0].tobytes() for table in got] == [
        np.full((rows, 2), float(rows)).tobytes() for rows in sizes]
    assert sorted(ran_here) == sorted([sizes[k] for k in range(4)
                                       if k not in theirs] + [30])
    assert len(forks) == 2
    assert_no_child_left()
