"""Search outcomes and budget accounting shared by every exhaustive search."""

from __future__ import annotations

import time
from typing import Optional

from .graphs import Value

WITNESS = "witness"
EXHAUSTED_NO = "exhausted-no"
BUDGET_EXCEEDED = "budget-exceeded"

CENSUS_MODES = ("monoid-digraph", "semigroup-digraph", "monoid-graph")

# Largest carrier an embedding may build (vertices plus closure maps).
MAX_CARRIER_ORDER = 4096

DEFAULT_MAX_NODES = 100_000_000
DEFAULT_MAX_SECONDS = 600.0
# A census gives each class a fresh budget of this size.
CENSUS_MAX_NODES = 10_000_000
CENSUS_MAX_SECONDS = 60.0
# Largest transition monoid an embedding may close.
DEFAULT_MAX_MAPS = 10**6


class BudgetExceededError(RuntimeError):
    """Raised internally when a search exhausts its node or time budget."""


class Budget(Value):
    """Mutable node/time budget threaded through a search.

    ``nodes`` counts explored search-tree nodes.  A search either calls
    ``tick`` once per node or, like the table search, counts nodes itself
    and calls ``tick`` only at ``next_stop``; ``count`` adds nodes counted
    elsewhere.  The time limit counts from the budget's creation and is
    only polled every 4096 nodes to keep the counter cheap.  A negative
    limit is a ``ValueError``.
    """

    max_nodes: int
    max_seconds: Optional[float]
    nodes: int
    _deadline: Optional[float]

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES,
                 max_seconds: Optional[float] = DEFAULT_MAX_SECONDS,
                 nodes: int = 0):
        if max_nodes < 0:
            raise ValueError(f"node budget must be >= 0, got {max_nodes}")
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes = nodes
        self._deadline = None
        if max_seconds is not None:
            if not max_seconds >= 0:  # NaN too
                raise ValueError(
                    f"time budget must be >= 0 seconds, got {max_seconds}")
            self._deadline = time.monotonic() + max_seconds

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(f"node budget {self.max_nodes} exhausted")
        if (self._deadline is not None and self.nodes % 4096 == 0
                and time.monotonic() > self._deadline):
            raise BudgetExceededError(f"time budget {self.max_seconds}s exhausted")

    def next_stop(self) -> int:
        """The next node count at which ``tick`` can raise: one past the
        node limit, or the next time poll when there is a time limit.  A
        search may count nodes itself and call ``tick`` only there."""
        stop = self.max_nodes + 1
        if self._deadline is not None:
            stop = min(stop, (self.nodes // 4096 + 1) * 4096)
        return stop

    def count(self, k: int) -> None:
        """Count ``k`` nodes as ``k`` calls of ``tick`` would: raise where
        the first of them would raise."""
        target = self.nodes + k
        stop = self.next_stop()
        while target >= stop:
            self.nodes = stop - 1
            self.tick()
            stop = self.next_stop()
        self.nodes = target

    def fresh(self, max_nodes: int) -> "Budget":
        """A new count, of at most ``max_nodes`` nodes, under this
        budget's clock.  A negative ``max_nodes``, which a spent budget
        gives, stops it at its first node."""
        budget = Budget(max_nodes=max(max_nodes, 0), max_seconds=None)
        budget.max_seconds = self.max_seconds
        budget._deadline = self._deadline
        return budget


class SearchOutcome(Value):
    """Result of an exhaustive search: witness, certified no, or budget hit."""

    status: str
    witness: object
    nodes: int

    def __init__(self, status: str, witness: object = None, nodes: int = 0):
        self.status = status
        self.witness = witness
        self.nodes = nodes

    @property
    def is_witness(self) -> bool:
        return self.status == WITNESS

    @property
    def is_no(self) -> bool:
        return self.status == EXHAUSTED_NO

    @property
    def is_budget(self) -> bool:
        return self.status == BUDGET_EXCEEDED


def witness_outcome(witness, budget: Budget) -> SearchOutcome:
    return SearchOutcome(WITNESS, witness=witness, nodes=budget.nodes)


def no_outcome(budget: Budget) -> SearchOutcome:
    return SearchOutcome(EXHAUSTED_NO, nodes=budget.nodes)


def budget_outcome(budget: Budget) -> SearchOutcome:
    return SearchOutcome(BUDGET_EXCEEDED, nodes=budget.nodes)
