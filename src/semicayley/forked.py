"""Worker processes made with ``os.fork`` and pipes.

A long table search and a census hand their jobs to children of the
calling process through ``ordered``, which yields the answers in job
order.  A child inherits, by the fork, the function that runs a job and
everything that function reads; only the jobs and their results cross
the pipes, pickled.  A child never forks again, and a process with more
than one Python thread never forks: a child forked while another thread
holds a lock can deadlock on it.
"""

from __future__ import annotations

import itertools
import os
import sys
from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

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

    ``submit`` hands a job to an idle child under a tag other than None;
    the caller keeps count of the idle ones.  ``wait`` blocks until at
    least one child has answered and returns ``(tag, ok, value)`` per
    answer: ``run``'s return value, or the exception it raised.  A child
    that ends without answering is reaped, and its job's answer is
    ``(tag, None, RuntimeError)``.  ``close`` kills every child and reaps
    it.
    """

    def __init__(self, run: Callable, count: int):
        # result fd -> [pid, job fd, tag of its job or None while idle]
        self._children: Dict[int, list] = {}
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

    def submit(self, tag, job) -> None:
        child = next(c for c in self._children.values() if c[2] is None)
        child[2] = tag
        _send(child[1], job)

    def wait(self) -> List[Tuple[object, bool, object]]:
        import select

        poll = select.poll()  # an idle child has nothing to read
        for fd in self._children:
            poll.register(fd, select.POLLIN)
        answers = []
        for fd, _ in poll.poll():
            child = self._children[fd]
            try:
                ok, value = _recv(fd)
            except EOFError:
                self._end(fd)
                error = RuntimeError(
                    f"worker process {child[0]} ended without answering")
                if child[2] is None:
                    raise error from None
                ok, value = None, error
            answers.append((child[2], ok, value))
            child[2] = None
        return answers

    def _end(self, fd: int) -> None:
        """Kill the child that answers on ``fd`` and reap it."""
        import signal

        pid, job_fd, _ = self._children.pop(fd)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        os.close(fd)
        os.close(job_fd)

    def close(self) -> None:
        for fd in list(self._children):
            self._end(fd)


def ordered(run: Callable, jobs: Iterable, count: int) -> Iterator:
    """Run each ``(tag, job)`` of ``jobs`` as ``run(job)`` on ``count``
    forked workers and yield ``(tag, ok, value)`` per job, in job order:
    ``run``'s return value, or the exception it raised.

    A job is drawn from ``jobs`` only when a worker is idle, and only
    after every answer ready in order has been yielded, so at most
    ``count`` drawn jobs are unanswered at a time; answers that arrive
    before an earlier one wait for it.  A worker that ends without
    answering ends the stream with ``RuntimeError`` in its job's place,
    after the answers before it; no job is drawn after it ends.  Closing
    the generator, or leaving it on an exception, kills and reaps every
    worker.
    """
    workers = Workers(run, count)
    try:
        jobs = iter(jobs)
        pending: deque = deque()  # [tag, (ok, value) or None], in job order
        running = 0
        while True:
            while pending and pending[0][1] is not None:
                tag, (ok, value) = pending.popleft()
                if ok is None:
                    raise value
                yield tag, ok, value
            for tag, job in itertools.islice(jobs, count - running):
                pending.append([tag, None])
                workers.submit(pending[-1], job)
                running += 1
            if not running:
                return
            for entry, ok, value in workers.wait():
                entry[1] = (ok, value)
                running -= 1
                if ok is None:
                    jobs = iter(())
    finally:
        workers.close()


def run_all(run: Callable, jobs: Sequence, count: int) -> list:
    """``[run(job) for job in jobs]`` on ``count`` forked workers, each
    handed the index of its next job.  The first exception in job order
    is raised."""
    answers = list(ordered(lambda i: run(jobs[i]),
                           ((i, i) for i in range(len(jobs))),
                           min(count, len(jobs))))
    for _, ok, value in answers:
        if not ok:
            raise value
    return [value for _, _, value in answers]
