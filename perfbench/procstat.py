"""Process resources and the per-op watchdog (Linux ``/proc``)."""

from __future__ import annotations

import os
import resource
import signal
import time
from contextlib import contextmanager


class OpTimeout(Exception):
    """An op overran its watchdog deadline."""


def _alarm(signum, frame):
    raise OpTimeout("op overran its deadline")


@contextmanager
def deadline(seconds: float):
    """Raise :class:`OpTimeout` in the calling (main) thread if the body
    runs longer than ``seconds``.  SIGALRM interrupts blocking waits too,
    so a stalled pipe read or join ends instead of hanging the run."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _child_pids() -> list[int]:
    pids = []
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/children") as f:
            pids.extend(int(p) for p in f.read().split())
    return pids


def stop_children(grace_s: float = 5.0) -> None:
    """Terminate every child process still alive (worker processes of an
    interrupted fit, the shared-memory resource tracker) and reap it."""
    pids = _child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline_at = time.monotonic() + grace_s
    for pid in pids:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline_at:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


class ResourceCounter:
    """OS threads, live child processes and ``/dev/shm`` entries held
    beyond a baseline taken after set-up; the maxima over all ops."""

    def __init__(self):
        self.base_threads = len(os.listdir("/proc/self/task"))
        self.base_children = len(_child_pids())
        self.base_shm = _shm_entries()
        self.max = {"threads": 0, "children": 0, "shm": 0}

    def sample(self) -> dict:
        extra = {
            "threads": len(os.listdir("/proc/self/task")) - self.base_threads,
            "children": len(_child_pids()) - self.base_children,
            "shm": len(_shm_entries() - self.base_shm),
        }
        for key, value in extra.items():
            self.max[key] = max(self.max[key], value)
        return extra


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, plus that of its largest reaped
    child if ``children``, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0
