"""Worker processes made with ``os.fork`` and pipes.

A long table search and a census run with workers hand their jobs to
children of the calling process.  A child inherits, by the fork, the
function that runs a job and everything that function reads; only the
jobs and their results cross the pipes, pickled.  A child never forks
again, and a process with more than one Python thread never forks: a
child forked while another thread holds a lock can deadlock on it.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, List, Sequence, Tuple

_in_worker = False


def usable_cpus() -> int:
    """The CPUs this process may run on, which can be fewer than the
    machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def may_fork() -> bool:
    """Whether this process may start workers: it is not a worker itself,
    and it runs one Python thread."""
    if _in_worker:
        return False
    threading = sys.modules.get("threading")
    return threading is None or threading.active_count() == 1


def _send(fd: int, obj) -> None:
    import pickle

    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytes:
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            raise EOFError
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _recv(fd: int):
    import pickle

    return pickle.loads(_read(fd, int.from_bytes(_read(fd, 8), "little")))


def _serve(run: Callable, jobs: int, results: int) -> None:
    """A child's loop: one result, ``(True, value)`` or ``(False,
    exception)``, per job, until the job pipe closes."""
    while True:
        try:
            job = _recv(jobs)
        except EOFError:
            return
        try:
            result = (True, run(job))
        except Exception as exc:
            result = (False, exc)
        try:
            _send(results, result)
        except Exception as exc:  # a result or an exception pickle refused
            _send(results, (False, RuntimeError(
                f"worker result not sendable: {type(exc).__name__}: {exc}")))


class Workers:
    """Up to ``count`` forked children, each running ``run(job)`` on one
    job at a time.

    ``submit`` hands a job to an idle child under a tag.  ``wait`` blocks
    until at least one busy child has answered and returns ``(tag, ok,
    value)`` per answer: ``run``'s return value, or the exception it
    raised.  ``close`` kills every child and reaps it; the context
    manager calls it on every path out.
    """

    def __init__(self, run: Callable, count: int):
        self._children: Dict[int, list] = {}  # result fd -> [pid, job fd, tag]
        self._idle: List[int] = []
        try:
            for _ in range(count):
                self._start(run)
        except BaseException:
            self.close()
            raise

    def _start(self, run: Callable) -> None:
        global _in_worker
        jobs_r, jobs_w = os.pipe()
        results_r, results_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _in_worker = True
                os.close(jobs_w)
                os.close(results_r)
                for fd, (_, job_fd, _) in self._children.items():
                    os.close(fd)
                    os.close(job_fd)
                _serve(run, jobs_r, results_w)
                code = 0
            finally:
                os._exit(code)
        os.close(jobs_r)
        os.close(results_w)
        self._children[results_r] = [pid, jobs_w, None]
        self._idle.append(results_r)

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def idle(self) -> bool:
        return bool(self._idle)

    def busy(self) -> bool:
        return len(self._idle) < len(self._children)

    def submit(self, tag, job) -> None:
        fd = self._idle.pop(0)
        child = self._children[fd]
        child[2] = tag
        _send(child[1], job)

    def wait(self) -> List[Tuple[object, bool, object]]:
        import select

        poll = select.poll()
        for fd in self._children:
            if fd not in self._idle:
                poll.register(fd, select.POLLIN)
        answers = []
        for fd, _ in poll.poll():
            child = self._children[fd]
            try:
                ok, value = _recv(fd)
            except EOFError:
                raise RuntimeError(f"worker process {child[0]} ended "
                                   "without answering") from None
            answers.append((child[2], ok, value))
            child[2] = None
            self._idle.append(fd)
        return answers

    def close(self) -> None:
        import signal

        children, self._children, self._idle = self._children, {}, []
        for pid, _, _ in children.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for fd, (pid, job_fd, _) in children.items():
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            os.close(fd)
            os.close(job_fd)


def run_all(run: Callable, jobs: Sequence, count: int) -> list:
    """``[run(job) for job in jobs]`` on ``count`` forked workers, each
    handed the index of its next job.  The first exception in job order
    is raised."""
    results: list = [None] * len(jobs)
    with Workers(lambda i: run(jobs[i]), min(count, len(jobs))) as workers:
        nxt = 0
        while nxt < len(jobs) or workers.busy():
            while nxt < len(jobs) and workers.idle():
                workers.submit(nxt, nxt)
                nxt += 1
            for i, ok, value in workers.wait():
                results[i] = (ok, value)
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]
