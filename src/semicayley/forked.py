"""Worker processes made with ``os.fork`` and pipes.

A long table search and a census hand their jobs to children of the
calling process through ``ordered``, the one loop that starts workers,
hands them jobs and yields the answers in job order.  Its helpers
``_start`` forks one child and ``_end`` kills one, reaps it and closes
its pipes.  A child inherits, by the fork, the function that runs a job and
everything that function reads; only the jobs and their results cross
the pipes, pickled.  A child never forks again, and a process with more
than one Python thread never forks: a child forked while another thread
holds a lock can deadlock on it.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from typing import Callable, Dict, Iterable, Iterator

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


def _start(run: Callable, children: Dict[int, list]) -> None:
    """Fork a child that runs ``run(job)`` on one job at a time and enter
    it in ``children``, idle."""
    global _in_worker
    jobs_r, jobs_w = os.pipe()
    results_r, results_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (jobs_r, jobs_w, results_r, results_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            _in_worker = True
            os.close(jobs_w)
            os.close(results_r)
            for fd, (_, job_fd, _) in children.items():
                os.close(fd)
                os.close(job_fd)
            _serve(run, jobs_r, results_w)
            code = 0
        finally:
            os._exit(code)
    os.close(jobs_r)
    os.close(results_w)
    children[results_r] = [pid, jobs_w, None]


def _end(children: Dict[int, list], fd: int) -> None:
    """Kill the child that answers on ``fd``, reap it and close its pipes."""
    import signal

    pid, job_fd, _ = children.pop(fd)
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


def ordered(run: Callable, jobs: Iterable, count: int) -> Iterator:
    """Run each ``(tag, job)`` of ``jobs`` as ``run(job)`` on ``count``
    forked workers and yield ``(tag, ok, value)`` per job, in job order:
    ``run``'s return value, or the exception it raised.

    A job is drawn from ``jobs`` only when a worker is idle, and only
    after every answer ready in order has been yielded, so at most
    ``count`` drawn jobs are unanswered at a time; answers that arrive
    before an earlier one wait for it.  A worker that ends without
    answering ends the stream with ``RuntimeError`` in its job's place,
    or, if it ended idle, after the jobs drawn so far; the answers before
    the error come first, and no job is drawn after it.  Closing the
    generator, or leaving it on an exception, kills and reaps every
    worker.
    """
    import select

    # result fd -> [pid, job fd, pending entry of its job or None while idle]
    children: Dict[int, list] = {}

    def lose(fd: int, entry: list) -> None:
        """End the child on ``fd``, which ended without answering, put the
        error in ``entry``'s place and draw no further job."""
        nonlocal jobs
        pid = children[fd][0]
        _end(children, fd)
        entry[1] = None, RuntimeError(
            f"worker process {pid} ended without answering")
        jobs = iter(())

    try:
        for _ in range(count):
            _start(run, children)
        jobs = iter(jobs)
        pending: deque = deque()  # [tag, (ok, value) or None], in job order
        while True:
            while pending and pending[0][1] is not None:
                tag, (ok, value) = pending.popleft()
                if ok is None:
                    raise value
                yield tag, ok, value
            idle = [fd for fd, child in children.items() if child[2] is None]
            for fd, (tag, job) in zip(idle, jobs):  # draws one job per idle fd
                pending.append([tag, None])
                try:
                    _send(children[fd][1], job)
                except BrokenPipeError:  # the child ended while idle
                    lose(fd, pending[-1])
                    break
                children[fd][2] = pending[-1]
            if all(child[2] is None for child in children.values()):
                if not pending:
                    return
                continue  # to the error in the last entry's place
            poll = select.poll()  # an idle child that reads ready has ended
            for fd in children:
                poll.register(fd, select.POLLIN)
            for fd, _ in poll.poll():
                entry = children[fd][2]
                try:
                    answer = _recv(fd)
                except EOFError:
                    if entry is None:
                        entry = [None, None]
                        pending.append(entry)
                    lose(fd, entry)
                    continue
                entry[1] = answer
                children[fd][2] = None
    finally:
        for fd in list(children):
            _end(children, fd)
