"""Child processes of the test process: the ones forked, and the ones left.

The package forks its workers with ``os.fork`` alone (``_kernels._fork``),
so these look at ``os.fork`` and at this process's children, not at any
``multiprocessing`` bookkeeping.
"""

import os


def record_forks(monkeypatch):
    """The list that the pid of each child ``os.fork`` makes in this
    process is appended to, from now to the end of the test."""
    pids, fork = [], os.fork

    def record():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", record)
    return pids


def running(pid):
    """Whether the child ``pid`` has not exited; it is not reaped."""
    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
    return os.waitid(os.P_PID, pid, flags) is None


def no_child_left():
    """Whether this process has no child left, running or unreaped.

    A child left unreaped is reaped by the check.
    """
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
