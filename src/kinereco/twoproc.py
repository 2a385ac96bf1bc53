"""Run a list of independent jobs in two processes.

``simulate`` simulates and writes its sensors, and computes its ground
truth, and ``reconstruct`` reconstructs and writes its impact pairs, through
:func:`run_in_two`: each process computes what it writes, and the child
hands a table a job returned back through shared memory.  ``detect`` and
``reconstruct`` read their session files through :func:`read_in_two`: each
process parses a share of the files, and the child hands each table it
parsed back the same way.  A job is a function of no arguments that reads
what the process already holds (for ``simulate``, the motion evaluated on
each headband channel rate's grid before the fork); the forked child shares
the parent's memory copy-on-write, so nothing is sent to it.  Each job of
the child has one shared anonymous map, mapped before the fork, where the
child records whether the job returned and the table it returned, if any.
There is no setting for the second process: it starts where it can, and
where it cannot, one process runs every job.
"""

from __future__ import annotations

import gc
import logging
import mmap
import os

import numpy as np

log = logging.getLogger(__name__)

#: The first byte of a child job's map: 0 until the job ends, then one of
#: these: it returned None, it raised, or it returned a table, which the map
#: holds.
_RETURNED, _RAISED, _TABLE = 1, 2, 3
#: The int64 words at the start of a table's map: the status byte's word,
#: then the table's rows, columns, row count ``n`` and whether it has a row
#: index.  The float64 values follow, then the int64 row index.
_WORDS = 5
#: The bytes a :func:`run_in_two` job of the child may return a table in.  A
#: page of a map that is never written is never backed, so the reserve costs
#: nothing where a job returns nothing.
_RESERVE = 1 << 20


def run_in_two(jobs: list, before_fork: int = 0) -> list:
    """What ``job()`` returned for each ``(cost, job)`` of ``jobs``, in
    order, with the jobs run in two processes, and with the outcome of the
    serial loop that calls every job in order and then raises the error of
    the earliest that failed.

    The first jobs run in order in this process before it forks, until
    ``before_fork`` of them have returned, so the child inherits what a job
    that ran to its end leaves behind (a module it imports, a warning Python
    shows once per process), even where an earlier job failed before it got
    there.  The rest are split as :func:`_run` splits them.  A job may run
    twice, and must give the same result when it runs again, as a write
    that truncates its file and writes bytes fixed by its inputs does.

    A job returns None or a table (see :func:`read_in_two`); the child
    writes a table into a map of ``_RESERVE`` bytes, and a table that does
    not fit is computed again here.
    """
    outcomes = _run(jobs, before_fork, lambda cost: _RESERVE)
    failed = [value for done, value in outcomes if not done]
    if failed:
        raise failed[0]
    return [value for _, value in outcomes]


def read_in_two(jobs: list) -> list:
    """The table each ``(size, read)`` of ``jobs`` returns, or the exception
    it raised, in the order of ``jobs``, with the reads split between two
    processes as :func:`_run` splits them.

    ``read()`` returns a table ``(values, index, n)``: a C-ordered 2-D
    float64 array, a 1-D int64 array of a row per values row or None, and
    an int.  ``size`` is the byte size of the text the table is parsed from:
    a CSV row of ``c`` cells takes at least ``2c - 1`` bytes, so the child
    writes the table into a shared map of ``8 * (size + 1)`` bytes, and its
    values and index here are views of that map.  A table that does not fit
    its map is read again here.
    """
    return [value for _, value in
            _run(jobs, 0, lambda size: 8 * (size + 1))]


def _run(jobs: list, before_fork: int, reserve) -> list:
    """``[(True, what job returned) or (False, the exception it raised)]``
    of each ``(cost, job)`` of ``jobs``, in their order.

    After the first ``before_fork`` returned jobs (see :func:`run_in_two`),
    the jobs are split largest cost first, each to the share with less cost
    so far, and a forked child runs the second share in order while this
    process runs the first.  Every job runs, whether or not an earlier one
    failed.  Once the child has exited, this process runs in order the jobs
    no child finished: every job where no child starts, and the jobs of the
    child's share that raised there or that it never finished.  The child
    exits with status 0 once it has run its share; any other status (it was
    killed, or it crashed) is logged in one warning.  A job of the child's
    share has a map of ``reserve(cost)`` bytes for the table it returns, and
    the table is read back from it.
    """
    outcomes, first = [], 0
    while first < len(jobs) and sum(done for done, _ in outcomes) < before_fork:
        outcomes.append(_call(jobs[first][1]))
        first += 1
    rest = range(first, len(jobs))
    outcomes += [None] * len(rest)
    shares, loads = ([], []), [0, 0]
    for i in sorted(rest, key=lambda i: -jobs[i][0]):
        k = int(loads[1] < loads[0])
        shares[k].append(i)
        loads[k] += jobs[i][0]
    own, theirs = sorted(shares[0]), sorted(shares[1])
    maps = _maps([reserve(jobs[i][0]) for i in theirs])
    pid = _fork([jobs[i][1] for i in theirs], maps) if maps else None
    try:
        for i in own if pid else rest:
            outcomes[i] = _call(jobs[i][1])
    finally:
        status = pid and os.waitpid(pid, 0)[1]
    if status:
        log.warning("the second process exited with code %d; this process "
                    "runs the %d jobs it did not finish",
                    os.waitstatus_to_exitcode(status),
                    sum(m[0] == 0 for m in maps))
    if pid:
        for i, m in zip(theirs, maps):
            outcomes[i] = ((True, _get_table(m)) if m[0] == _TABLE else
                           (True, None) if m[0] == _RETURNED else
                           _call(jobs[i][1]))
    return outcomes


def _call(job) -> tuple:
    try:
        return True, job()
    except Exception as exc:
        return False, exc


def _maps(sizes: list) -> list | None:
    """One shared anonymous map per job of the child's share, of
    ``_WORDS`` words and ``sizes[k]`` bytes more; None when there is no
    such job or a map cannot be made.  A page of a map that is never
    written is never backed."""
    try:
        return [mmap.mmap(-1, 8 * _WORDS + size) for size in sizes] or None
    except OSError:
        return None


def _put_table(m: mmap.mmap, table) -> None:
    values, index, n = table
    rows, cols = values.shape
    if 8 * (_WORDS + values.size + rows) > len(m):
        raise ValueError("the table does not fit its map")
    np.frombuffer(m, np.int64, 4, 8)[:] = rows, cols, n, index is not None
    np.frombuffer(m, np.float64, values.size, 8 * _WORDS)[:] = values.ravel()
    if index is not None:
        np.frombuffer(m, np.int64, rows, 8 * (_WORDS + values.size))[:] = index


def _get_table(m: mmap.mmap) -> tuple:
    """The table :func:`_put_table` wrote into ``m``, as views of it."""
    rows, cols, n, indexed = np.frombuffer(m, np.int64, 4, 8).tolist()
    values = np.frombuffer(m, np.float64, rows * cols, 8 * _WORDS)
    index = (np.frombuffer(m, np.int64, rows, 8 * (_WORDS + rows * cols))
             if indexed else None)
    return values.reshape(rows, cols), index, n


def _fork(share: list, maps: list) -> int | None:
    """Fork a child that calls each function of ``share`` in order and
    records in the first byte of its map whether it returned or raised
    (writing the table it returned, if any, into the map first), and return
    its pid; or None where this process does not fork: without
    ``os.fork``, when the fork fails, or unless this process runs one
    thread.  A fork copies only the calling thread, so a lock that another
    thread holds stays held in the child.  Linux lists the threads of a
    process in ``/proc/self/task``; where it cannot be read, no child
    starts.

    The child exits with status 0 once every call has ended, returned or
    raised.  It leaves by ``os._exit``, so that no buffer it shares with its
    parent is flushed twice and no handler of the parent's runs."""
    try:
        if not (hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1):
            return None
        pid = os.fork()
    except OSError:
        return None
    if pid:
        return pid
    code = 1
    try:
        # A collection could finalize the parent's garbage, and it would
        # copy the pages of every object it visits.
        gc.disable()
        for job, m in zip(share, maps):
            done, value = _call(job)
            if done and value is not None:
                done, _ = _call(lambda: _put_table(m, value))
            m[0] = (_RAISED if not done else _RETURNED if value is None
                    else _TABLE)
        code = 0
    finally:
        os._exit(code)
