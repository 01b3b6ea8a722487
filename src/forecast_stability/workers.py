"""Forked workers: the one way the package runs work in another process.

:func:`cpus` says whether this process may fork a worker, and where the
worker may run; :func:`fork` runs a function in a forked child, and
:meth:`Child.join` takes back its pickled result. A child is pinned to
every CPU of this process's set but the one this process runs on, because
unpinned, the kernel of a shared 2-vCPU VM kept a forked child on its
parent's CPU; this process's own CPU set is never changed. A child ends
with ``os._exit``, so it runs no exit handler and flushes nothing of its
parent's, and every child is reaped.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable


class NoResult(Exception):
    """A child exited without sending its result."""

    def __init__(self, status: int):
        super().__init__(f"exited with status {status} and sent no result")
        self.status = status


def cpus() -> set[int]:
    """The CPUs a forked worker may run on: every CPU of this process's set
    but the one it last ran on.

    Empty when this process may not fork one: it has more than one thread
    (forking then could deadlock the child), there is no ``os.fork``, or
    its CPU set holds fewer than 2 CPUs.
    """
    if not hasattr(os, "fork"):
        return set()
    try:
        if len(os.listdir("/proc/self/task")) != 1:
            return set()
        allowed = os.sched_getaffinity(0)
        # The CPU this process last ran on: field 39 of its stat line.
        with open("/proc/self/stat", "rb") as stat:
            current = int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, AttributeError, ValueError, IndexError):
        return set()
    return allowed - {current} if len(allowed) >= 2 else set()


class Child:
    """A forked child running one function, and the pipe its result comes back on."""

    def __init__(self, pid: int, pipe) -> None:
        self.pid: int | None = pid
        self.pipe = pipe

    def join(self):
        """The child's result, once it has exited; raises :class:`NoResult`
        when it exited without sending one."""
        with self.pipe:
            data = self.pipe.read()
        status = os.waitstatus_to_exitcode(self._reap())
        if status or not data:
            raise NoResult(status)
        return pickle.loads(data)

    def close(self) -> None:
        """Close the pipe and, unless :meth:`join` has, end and reap the child."""
        self.pipe.close()
        if self.pid is not None:
            # Imported here: building its enums at import costs every process about 1 ms.
            import signal

            os.kill(self.pid, signal.SIGKILL)  # an exited child is a zombie until reaped
            self._reap()

    def _reap(self) -> int:
        pid, self.pid = self.pid, None
        return os.waitpid(pid, 0)[1]


def fork(work: Callable[[], object], cpu_set: set[int]) -> Child | None:
    """Run ``work()`` in a forked child on ``cpu_set``; None when the fork fails.

    The child sends back ``work()``'s result, pickled, and exits with
    status 0; if ``work`` raises, it exits with status 1 and sends nothing.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            try:
                os.sched_setaffinity(0, cpu_set)
            except OSError:
                pass  # not pinned, the work is the same
            data = pickle.dumps(work())
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return Child(pid, open(read, "rb"))
