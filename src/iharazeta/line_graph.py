"""Non-backtracking edge adjacency: matrix, exact traces, Perron root.

The oriented line graph has one vertex per directed edge. Edge ``i``
feeds edge ``j`` when the head of ``i`` is the tail of ``j`` and ``j``
does not immediately retrace ``i``. Its 0/1 adjacency matrix T drives
everything else: ``trace(T^k)`` counts the closed non-backtracking walks
of length k, and the largest eigenvalue of T is the reciprocal of the
zeta series' convergence radius.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConvergence
from .graph import DirectedEdgeSet

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class OrientedLineGraph:
    """Directed graph on the 2m oriented edges with adjacency matrix T.

    T is stored as successor lists: ``successors[i]`` holds, in
    ascending order, every ``j`` with ``T[i][j] = 1``.
    """

    edge_set: DirectedEdgeSet
    successors: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.successors)

    @cached_property
    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.size, self.size))
        for i, row in enumerate(self.successors):
            mat[i, list(row)] = 1.0
        mat.flags.writeable = False
        return mat


@dataclass(frozen=True)
class TraceVector:
    """Exact integer traces of T^1 .. T^K."""

    K: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.K:
            raise ValueError("trace vector length must equal K")

    def trace(self, k: int) -> int:
        if not 1 <= k <= self.K:
            raise ValueError(f"k={k} outside 1..{self.K}")
        return self.values[k - 1]


@dataclass(frozen=True)
class SpectralRadius:
    """Perron root estimate together with its convergence certificate."""

    value: float
    tolerance: float
    iterations: int
    residual: float

    @property
    def x_limit(self) -> float:
        """Safe right end of the zeta domain ``[0, 1/lambda)``.

        Guards the exact radius ``1/lambda`` by twice the achieved
        power-iteration residual, so points marginally past the radius
        are rejected even if lambda was slightly underestimated.
        """
        return 1.0 / (self.value + 2.0 * self.residual)


def build_line_graph(des: DirectedEdgeSet) -> OrientedLineGraph:
    """Successor lists of the oriented line graph for a directed edge set.

    ``T[i][j] = 1`` exactly when ``heads[i] == tails[j]`` and
    ``tails[i] != heads[j]`` (feed-forward, backtracking excluded). Each
    row scans only the edges leaving ``heads[i]``, so the build costs
    O(sum of squared degrees), not O((2m)^2).
    """
    heads, tails = des.heads, des.tails
    leaving: dict[int, list[int]] = {}
    for j in range(des.size):
        leaving.setdefault(tails[j], []).append(j)
    succ = tuple(
        tuple(j for j in leaving.get(heads[i], ()) if heads[j] != tails[i])
        for i in range(des.size)
    )
    return OrientedLineGraph(edge_set=des, successors=succ)


def traces(olg: OrientedLineGraph, K: int) -> TraceVector:
    """Traces of T^k for k = 1..K in exact integer arithmetic.

    Powers are accumulated with Python integers via the successor lists,
    never through floating point, so the values feed exact rational
    series coefficients downstream.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    size = olg.size
    succ = olg.successors
    power = [[0] * size for _ in range(size)]
    for i, row in enumerate(succ):
        for j in row:
            power[i][j] = 1
    values = []
    for _ in range(K):
        values.append(sum(power[i][i] for i in range(size)))
        nxt = [[0] * size for _ in range(size)]
        for i in range(size):
            row = power[i]
            out = nxt[i]
            for k in range(size):
                entry = row[k]
                if entry:
                    for j in succ[k]:
                        out[j] += entry
        power = nxt
    return TraceVector(K=K, values=tuple(values))


def spectral_radius(
    olg: OrientedLineGraph,
    tol: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> SpectralRadius:
    """Perron root of T by power iteration from the all-ones vector.

    T is nonnegative, so the all-ones start has a component along the
    Perron vector and the Rayleigh quotient converges to the largest
    eigenvalue. Convergence means relative residual
    ``||T v - lambda v|| <= tol * ||v||``.

    Raises:
        NoConvergence: residual still above ``tol`` after
            ``max_iterations`` steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mat = olg.matrix
    # Rayleigh quotient before normalization: on the all-ones start of a
    # regular line graph every quantity is an integer, so the Perron
    # value of constant-row-sum matrices comes out exactly.
    v = np.ones(olg.size)
    for iteration in range(1, max_iterations + 1):
        w = mat @ v
        norm_v = float(np.linalg.norm(v))
        lam = float(v @ w) / float(v @ v)
        residual = float(np.linalg.norm(w - lam * v)) / norm_v
        if residual <= tol:
            return SpectralRadius(
                value=lam, tolerance=tol, iterations=iteration, residual=residual
            )
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            break
        v = w / norm_w
    raise NoConvergence(
        f"power iteration did not reach residual {tol} in {max_iterations} steps"
    )
