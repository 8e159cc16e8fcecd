"""Shared graph builders for the test suite."""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import pytest

import semicayley
from semicayley import Digraph, SimpleGraph


def _open_pipes() -> set:
    """``(fd, target)`` for each pipe this process holds open; empty where
    ``/proc/self/fd`` does not exist."""
    try:
        fds = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return set()
    pipes = set()
    for fd in fds:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the fd that listed the directory, closed since
            continue
        if target.startswith("pipe:"):
            pipes.add((int(fd), target))
    return pipes


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps each process it starts and closes each pipe it
    opens: a census forks by default, a worker left behind would outlive
    the suite, and each worker is fed through two pipes."""
    pipes = _open_pipes()
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        pytest.fail("a child process was left behind: " + (
            f"pid {pid} had ended unreaped" if pid else "one still runs"))
    left = sorted(_open_pipes() - pipes)
    if left:
        pytest.fail(f"pipes were left open: {left}")


def cycle_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, itertools.combinations(range(n), 2))


def star_graph(leaves: int) -> SimpleGraph:
    return SimpleGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> SimpleGraph:
    """Kneser graph K(5,2): vertices are 2-subsets, edges join disjoint ones."""
    pairs = list(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [(idx[a], idx[b]) for a, b in itertools.combinations(pairs, 2)
             if not set(a) & set(b)]
    return SimpleGraph(10, edges)


def functional_digraph(succ) -> Digraph:
    return Digraph(len(succ), [(v, succ[v]) for v in range(len(succ))])


def looped_to_zero(n: int) -> Digraph:
    """A loop at every vertex plus an arc from every vertex to 0.

    Its monoid table search branches on about n cells in a row, so it
    reaches search depths near n.
    """
    return Digraph(n, [(i, i) for i in range(n)] + [(i, 0) for i in range(n)])


def child_env() -> dict:
    """Environment for a child interpreter that imports this semicayley.

    The package may come from ``src/`` or from an install; the child's
    ``PYTHONPATH`` is led by the directory it was imported from.
    """
    package_root = str(Path(semicayley.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def nx_trees(n: int):
    """All free trees of one order as SimpleGraph, via networkx."""
    import networkx as nx

    if n == 1:
        return [SimpleGraph(1)]
    out = []
    for t in nx.nonisomorphic_trees(n):
        relabel = {v: i for i, v in enumerate(t.nodes())}
        out.append(SimpleGraph(n, [(relabel[u], relabel[v])
                                   for u, v in t.edges()]))
    return out
