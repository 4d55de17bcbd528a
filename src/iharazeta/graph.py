"""Admissible graphs: parsing, validation, and directed-edge orientations.

A finite simple undirected graph is admissible when it is connected, has
minimum degree two, and is neither a cycle graph nor a path graph. Every
downstream object (non-backtracking edge adjacency, zeta series, entropy)
is defined only for admissible graphs, so validation happens up front and
produces a report rather than a bare boolean.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import EmptyEdgeList, LoopEdge, MalformedLine, NotAdmissible


class Violation(str, Enum):
    """Tagged findings reported by :func:`validate_admissible`.

    ``ISOLATED_VERTEX`` marks a vertex of degree 0. In a parsed edge list
    that is a vertex id below the largest one that no edge mentions,
    because the vertex count is one past the largest id.
    """

    ISOLATED_VERTEX = "IsolatedVertex"
    NOT_CONNECTED = "NotConnected"
    MIN_DEGREE_BELOW_TWO = "MinDegreeBelowTwo"
    IS_CYCLE_GRAPH = "IsCycleGraph"
    IS_PATH_GRAPH = "IsPathGraph"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Edges are stored as a frozenset of ``(u, v)`` pairs with ``u < v``,
    so loops and repeated edges cannot be represented.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) is not allowed")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) is not normalized")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range [0, {self.n})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph, normalizing each pair to ``(min, max)``."""
        normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(n=n, edges=normalized)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)

    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(vs) for vs in adj)

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = self.neighbors()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility check; empty violations means admissible."""

    admissible: bool
    violations: tuple[Violation, ...]

    def __post_init__(self):
        if self.admissible != (not self.violations):
            raise ValueError("admissible flag must mirror an empty violation list")


@dataclass(frozen=True)
class DirectedEdgeSet:
    """The ``2m`` orientations of an undirected edge set.

    Index ``k < m`` holds the orientation of the k-th undirected edge in
    lexicographic order; index ``m + k`` holds its reverse. ``tails[k]``
    and ``heads[k]`` are the initial and terminal vertices of edge ``k``.
    """

    tails: tuple[int, ...]
    heads: tuple[int, ...]

    def __post_init__(self):
        if len(self.tails) != len(self.heads) or len(self.tails) % 2 != 0:
            raise ValueError("tails/heads must be equal-length with even size")

    @property
    def size(self) -> int:
        return len(self.tails)

    @property
    def m(self) -> int:
        return self.size // 2

    def inverse(self, k: int) -> int:
        """Index of the reversed copy of directed edge ``k``."""
        return (k + self.m) % self.size


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated vertex pairs, one edge per line.

    Lines starting with ``#`` are comments and blank lines are skipped.
    Duplicate edges (in either orientation) collapse to one. The vertex
    count is one past the largest vertex id mentioned.

    Raises:
        MalformedLine: a non-comment line whose tokens are not exactly
            two nonnegative integers.
        LoopEdge: a line naming the same vertex twice.
        EmptyEdgeList: no edges at all.
    """
    edges: set[tuple[int, int]] = set()
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedLine(f"line {lineno}: expected two vertex ids, got {len(tokens)}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise MalformedLine(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise MalformedLine(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise LoopEdge(f"line {lineno}: loop on vertex {u}")
        edges.add((min(u, v), max(u, v)))
        max_vertex = max(max_vertex, u, v)
    if not edges:
        raise EmptyEdgeList("no edges found in input")
    return Graph(n=max_vertex + 1, edges=frozenset(edges))


def validate_admissible(g: Graph) -> AdmissibilityReport:
    """Check every admissibility condition and report all violations.

    Conditions: connected, minimum degree two, not a cycle graph
    (connected with every degree exactly two), not a path graph
    (a connected tree with maximum degree at most two). A vertex of
    degree 0 breaks the first two; it is reported first, on its own tag.
    """
    violations: list[Violation] = []
    degs = g.degrees()
    if 0 in degs:
        violations.append(Violation.ISOLATED_VERTEX)
    connected = g.is_connected()
    if not connected:
        violations.append(Violation.NOT_CONNECTED)
    if min(degs) < 2:
        violations.append(Violation.MIN_DEGREE_BELOW_TWO)
    if connected and g.n >= 3 and all(d == 2 for d in degs):
        violations.append(Violation.IS_CYCLE_GRAPH)
    if connected and g.m == g.n - 1 and max(degs, default=0) <= 2:
        violations.append(Violation.IS_PATH_GRAPH)
    return AdmissibilityReport(admissible=not violations, violations=tuple(violations))


def orientations(g: Graph) -> DirectedEdgeSet:
    """Both orientations of every edge, forward copies first.

    Raises:
        NotAdmissible: the graph fails :func:`validate_admissible`.
    """
    report = validate_admissible(g)
    if not report.admissible:
        raise NotAdmissible(report.violations)
    forward = sorted(g.edges)
    tails = [u for u, _ in forward] + [v for _, v in forward]
    heads = [v for _, v in forward] + [u for u, _ in forward]
    return DirectedEdgeSet(tails=tuple(tails), heads=tuple(heads))
