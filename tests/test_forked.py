"""``forked.ordered``: the one loop that hands jobs to forked workers and
collects their answers in job order."""

from __future__ import annotations

import errno
import itertools
import os
import signal
import time

import pytest

from semicayley import forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sleep_then_clock(delay):
    time.sleep(delay)
    return time.monotonic()


def test_answers_come_in_job_order_when_a_later_job_finishes_first():
    jobs = [(i, delay) for i, delay in enumerate([0.3, 0.0, 0.0, 0.1])]
    answers = list(forked.ordered(_sleep_then_clock, jobs, 2))
    assert [(tag, ok) for tag, ok, _ in answers] == [
        (0, True), (1, True), (2, True), (3, True)]
    finished = [value for _, _, value in answers]
    assert finished[1] < finished[0] and finished[2] < finished[0]
    assert_no_child_left()


def test_a_job_is_drawn_only_when_a_worker_is_idle():
    """Each worker writes a byte once it has run a job, before it answers;
    at every draw, at most ``count`` drawn jobs have not finished."""
    done_r, done_w = os.pipe()
    os.set_blocking(done_r, False)
    delays = [0.2, 0.0, 0.0, 0.0, 0.05, 0.0, 0.0, 0.1, 0.0]
    drawn = finished = 0

    def run(delay):
        time.sleep(delay)
        os.write(done_w, b"x")
        return delay

    def jobs():
        nonlocal drawn, finished
        for i, delay in enumerate(delays):
            try:
                finished += len(os.read(done_r, 64))
            except BlockingIOError:
                pass
            assert drawn - finished < 2, (drawn, finished)
            drawn += 1
            yield i, delay

    try:
        answers = list(forked.ordered(run, jobs(), 2))
    finally:
        os.close(done_r)
        os.close(done_w)
    assert [value for _, _, value in answers] == delays
    assert drawn == len(delays)
    assert_no_child_left()


def test_an_exception_arrives_in_its_place():
    def run(x):
        if x == 1:
            raise ValueError("job 1 failed")
        return 10 * x

    answers = list(forked.ordered(run, [(i, i) for i in range(4)], 2))
    assert [(tag, ok) for tag, ok, _ in answers] == [
        (0, True), (1, False), (2, True), (3, True)]
    assert [value for _, ok, value in answers if ok] == [0, 20, 30]
    error = answers[1][2]
    assert isinstance(error, ValueError) and str(error) == "job 1 failed"
    assert_no_child_left()


def test_closing_after_the_first_answer_leaves_no_child():
    """The jobs never end; the stream draws them lazily and stops when it
    is closed."""
    stream = forked.ordered(lambda x: x, ((i, i) for i in itertools.count()), 2)
    assert next(stream) == (0, True, 0)
    stream.close()
    assert_no_child_left()


def test_a_worker_that_dies_ends_the_stream_and_leaves_no_child():
    def run(x):
        if x == 2:
            os._exit(3)
        return x

    seen = []
    with pytest.raises(RuntimeError, match="ended without answering"):
        for tag, ok, value in forked.ordered(run, [(i, i) for i in range(5)], 2):
            seen.append(value)
    assert seen == [0, 1]
    assert_no_child_left()


def test_a_worker_that_dies_before_an_earlier_answer_waits_for_it():
    """Job 2's worker dies while job 1 is still running: job 1's answer
    still comes first, then the error, and job 3 is never drawn."""
    drawn = []

    def jobs():
        for i in range(4):
            drawn.append(i)
            yield i, i

    def run(x):
        if x == 1:
            time.sleep(0.3)
        if x == 2:
            os._exit(3)
        return x

    seen = []
    with pytest.raises(RuntimeError, match="ended without answering"):
        for tag, ok, value in forked.ordered(run, jobs(), 2):
            seen.append(value)
    assert seen == [0, 1]
    assert drawn == [0, 1, 2]
    assert_no_child_left()


def _answer_then_die_soon(x):
    """Job 0 answers, then its worker is killed by an alarm 50 ms later,
    while it waits idle for its next job.  Job 1 answers after 200 ms, so
    job 0's answer comes first and job 2, drawn only once a worker is
    idle, goes to job 0's dead worker."""
    if x == 0:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.setitimer(signal.ITIMER_REAL, 0.05)
    elif x == 1:
        time.sleep(0.2)
    return x


def test_a_worker_that_dies_while_idle_ends_the_stream_after_the_answers():
    """Job 2 is drawn only after job 0's worker has died idle: writing the
    job to it fails, and the error takes job 2's place."""
    drawn = []

    def jobs():
        for i in range(4):
            if i == 2:
                time.sleep(0.3)
            drawn.append(i)
            yield i, i

    seen = []
    with pytest.raises(RuntimeError, match="ended without answering"):
        for tag, ok, value in forked.ordered(_answer_then_die_soon, jobs(), 2):
            seen.append(value)
    assert seen == [0, 1]
    assert drawn == [0, 1, 2]
    assert_no_child_left()


def test_a_worker_seen_dead_while_idle_ends_the_stream_after_the_answers():
    """Job 0's worker dies idle while job 1 still runs: job 1's answer
    still comes first, then the error."""
    def run(x):
        if x == 1:
            time.sleep(0.3)
        return _answer_then_die_soon(x)

    seen = []
    with pytest.raises(RuntimeError, match="ended without answering"):
        for tag, ok, value in forked.ordered(run, [(0, 0), (1, 1)], 2):
            seen.append(value)
    assert seen == [0, 1]
    assert_no_child_left()


@pytest.mark.parametrize("forks_before_failing", [0, 1])
def test_a_failed_fork_is_raised_and_leaves_no_pipe(monkeypatch,
                                                    forks_before_failing):
    """The autouse ``no_child_left`` fixture fails this test if the pipes
    made for the child that was never forked stay open."""
    fork = os.fork
    forks = []

    def failing_fork():
        if len(forks) == forks_before_failing:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(OSError) as info:
        list(forked.ordered(lambda x: x, [(i, i) for i in range(3)], 2))
    assert info.value.errno == errno.EAGAIN
    assert_no_child_left()
