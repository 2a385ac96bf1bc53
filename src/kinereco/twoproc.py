"""Run a list of independent jobs in two processes.

``simulate`` simulates and writes its sensors, and ``reconstruct`` its
impact pairs, through :func:`run_in_two`: each process computes what it
writes.  A job is a function of no arguments that reads what the process
already holds (for ``simulate``, the motion evaluated on each headband
channel rate's grid before the fork) and writes its own files; the forked
child shares the parent's memory copy-on-write, so nothing is sent to it,
and it reports nothing but its exit status.  There is no setting for the
second process: it starts where it can, and where it cannot, one process
runs every job.
"""

from __future__ import annotations

import gc
import logging
import os

log = logging.getLogger(__name__)


def run_in_two(jobs: list, before_fork: int = 0) -> None:
    """Call ``job()`` for each ``(cost, job)`` of ``jobs``, in two processes,
    with the outcome of the serial loop that calls every job in order and
    then raises the error of the earliest that failed.

    The first jobs run in order in this process before it forks, until
    ``before_fork`` of them have returned, so the child inherits what a job
    that ran to its end leaves behind (a module it imports, a warning Python
    shows once per process), even where an earlier job failed before it got
    there.  The rest are split largest cost first, each job to the share
    with less cost so far, and a forked child runs the second share in order
    while this process runs the first.

    Every job runs, whether or not an earlier one failed.  The child exits
    with status 0 only if every job of its share returned.  Once it has
    exited, this process runs in order the jobs no child ran: every job
    where :func:`_fork` starts no child, and the child's share where the
    child failed or was killed (with one warning that it does).  Then the
    error of the earliest failed job in the order of ``jobs`` is raised.  A
    job may so run twice, and must give the same result when it runs again,
    as a write that truncates its file and writes bytes fixed by its inputs
    does.
    """
    failed, first = [], 0
    while first < len(jobs) and first - len(failed) < before_fork:
        failed += _run_each(jobs, [first])
        first += 1
    rest = range(first, len(jobs))
    shares, loads = ([], []), [0, 0]
    for i in sorted(rest, key=lambda i: -jobs[i][0]):
        k = int(loads[1] < loads[0])
        shares[k].append(i)
        loads[k] += jobs[i][0]
    own, theirs = sorted(shares[0]), sorted(shares[1])
    pid = _fork([jobs[i][1] for i in theirs]) if theirs else None
    try:
        failed += _run_each(jobs, own if pid else rest)
    finally:
        status = pid and os.waitpid(pid, 0)[1]
    if status:
        log.warning("the second process exited with code %d; this process "
                    "runs its %d jobs again",
                    os.waitstatus_to_exitcode(status), len(theirs))
        failed += _run_each(jobs, theirs)
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


def _run_each(jobs: list, indices) -> list:
    """Call the jobs of ``indices`` in order, each whether or not an earlier
    one failed: ``[(i, exception)]`` of those that raised."""
    failed = []
    for i in indices:
        try:
            jobs[i][1]()
        except Exception as exc:
            failed.append((i, exc))
    return failed


def _fork(share: list) -> int | None:
    """Fork a child that calls each function of ``share`` in order, and
    return its pid, or None where this process does not fork: without
    ``os.fork``, when the fork fails, or unless this process runs one
    thread.  A fork copies only the calling thread, so a lock that another
    thread holds stays held in the child.  Linux lists the threads of a
    process in ``/proc/self/task``; where it cannot be read, no child
    starts.

    The child exits with status 0 only if every call returned; it stops at
    its first failure, since this process then runs the whole share again.
    It leaves by ``os._exit``, so that no buffer it shares with its parent
    is flushed twice and no handler of the parent's runs."""
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
        for job in share:
            job()
        code = 0
    finally:
        os._exit(code)
