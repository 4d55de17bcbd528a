"""Prime cycle enumeration and the Euler-product oracle.

A prime cycle is a rotation class of a primitive closed walk on the
directed edges that never backtracks, including across the wraparound.
Enumerating them exhaustively on small graphs gives an independent
reconstruction of the zeta series: the product of ``(1 - x^len)^-1``
over all primes must reproduce the exp-trace coefficients term by term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, IncompletePrimeList
from .line_graph import OrientedLineGraph
from .series import TruncatedPowerSeries

DEFAULT_DFS_BUDGET = 10_000_000


@dataclass(frozen=True)
class PrimeCycle:
    """Primitive rotation class stored as its least rotation."""

    edges: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PrimeCycleSet:
    """All prime cycles up to ``max_length``, sorted for determinism."""

    cycles: tuple[PrimeCycle, ...]
    max_length: int

    def __iter__(self):
        return iter(self.cycles)

    def __len__(self) -> int:
        return len(self.cycles)

    def histogram(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for cycle in self.cycles:
            counts[cycle.length] = counts.get(cycle.length, 0) + 1
        return dict(sorted(counts.items()))


def _least_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def _is_primitive(seq: tuple[int, ...]) -> bool:
    k = len(seq)
    for d in range(1, k):
        if k % d == 0 and all(seq[i] == seq[i % d] for i in range(k)):
            return False
    return True


class _StepCounter:
    __slots__ = ("remaining",)

    def __init__(self, budget: int):
        self.remaining = budget

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceeded("DFS step budget exhausted")


def enumerate_primes(
    olg: OrientedLineGraph, L: int, budget: int = DEFAULT_DFS_BUDGET
) -> PrimeCycleSet:
    """All prime cycles of length at most L, each in canonical rotation.

    The DFS explores walks whose first edge index is also their minimal
    one, so every rotation class is generated at least once; canonical
    least-rotation keys deduplicate the rest. Walks may repeat edges
    (primes need not be simple cycles), the only exclusions are the
    backtracking transitions already absent from the line graph.

    Raises:
        BudgetExceeded: more DFS steps than ``budget``.
    """
    if L < 3:
        raise ValueError("prime cycles have length at least 3")
    succ = olg.successors
    counter = _StepCounter(budget)
    found: set[tuple[int, ...]] = set()

    def extend(start: int, path: list[int]) -> None:
        counter.spend()
        depth = len(path)
        last = path[-1]
        if depth >= 3 and start in succ[last]:
            seq = _least_rotation(tuple(path))
            if _is_primitive(seq):
                found.add(seq)
        if depth == L:
            return
        for nxt in succ[last]:
            if nxt >= start:
                path.append(nxt)
                extend(start, path)
                path.pop()

    for start in range(olg.size):
        extend(start, [start])

    cycles = tuple(
        PrimeCycle(edges=seq) for seq in sorted(found, key=lambda s: (len(s), s))
    )
    return PrimeCycleSet(cycles=cycles, max_length=L)


def count_closed_walks_bruteforce(
    olg: OrientedLineGraph, k: int, budget: int = DEFAULT_DFS_BUDGET
) -> int:
    """Closed walks of length k counted by exhaustive DFS.

    Counts length-k edge sequences returning to their start vertex of
    the oriented line graph, one per starting vertex, which is exactly
    what ``trace(T^k)`` counts. Kept deliberately independent of the
    algebraic path in :func:`~iharazeta.line_graph.traces` so the two
    can check each other.

    Raises:
        BudgetExceeded: more DFS steps than ``budget``.
    """
    if k < 1:
        raise ValueError("walk length must be at least 1")
    succ = olg.successors
    counter = _StepCounter(budget)

    def walks(start: int, current: int, remaining: int) -> int:
        counter.spend()
        if remaining == 0:
            return 1 if current == start else 0
        return sum(walks(start, nxt, remaining - 1) for nxt in succ[current])

    return sum(walks(start, start, k) for start in range(olg.size))


def euler_product_series(primes: PrimeCycleSet, order: int) -> TruncatedPowerSeries:
    """Expansion of ``prod_P (1 - x^len(P))^-1`` truncated at ``order``.

    Exact integer coefficients. Primes of equal length are folded into a
    single factor ``(1 - x^len)^-count`` expanded binomially.

    Raises:
        IncompletePrimeList: the set was only enumerated to a length
            below ``order``, so low-degree coefficients could be wrong.
    """
    if primes.max_length < order:
        raise IncompletePrimeList(
            f"primes enumerated to length {primes.max_length} < order {order}"
        )
    result = TruncatedPowerSeries.one(order)
    for length, count in primes.histogram().items():
        if length > order:
            continue
        factor = [0] * (order + 1)
        for j in range(order // length + 1):
            factor[j * length] = math.comb(count + j - 1, j)
        result = result * TruncatedPowerSeries(tuple(factor))
    return result
