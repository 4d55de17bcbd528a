"""Non-backtracking edge adjacency: matrix, exact traces, Perron root.

The oriented line graph has one vertex per directed edge. Edge ``i``
feeds edge ``j`` when the head of ``i`` is the tail of ``j`` and ``j``
does not immediately retrace ``i``. Its 0/1 adjacency matrix T drives
everything else: ``trace(T^k)`` counts the closed non-backtracking walks
of length k, and the largest eigenvalue of T is the reciprocal of the
zeta series' convergence radius.

The traces come from n x n vertex matrices, not from powers of the
(2m)x(2m) matrix T: Bass's form of the Ihara determinant (Bass 1992;
Kotani-Sunada 2000), ``det(I - uT) = (1 - u^2)^(m-n) det(I - uA +
u^2(D - I))`` with A the vertex adjacency and D the diagonal of degrees,
gives the same integers. See :func:`traces`.
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

    With ``Q = D - I`` the matrices ``B_k`` given by ``B_-1 = 0``,
    ``B_0 = I`` and ``B_k = A B_(k-1) - Q B_(k-2)`` are the coefficients
    of ``(I - uA + u^2 Q)^-1``. Taking ``d/du log`` of Bass's formula
    then gives

        ``N_k = tr(B_(k-1) A) - 2 tr(B_(k-2) Q) + 2(m - n) [k even]``.

    Each ``B_k`` is an n x n numpy array of Python ints (``dtype=object``),
    so the values are exact at any order and feed exact rational series
    coefficients downstream. ``A B`` is one gather of the rows of B at
    the edge heads, grouped by tail, and a sum per group: O(2m n)
    additions per step, O(K 2m n) in all, against O((2m)^2 (d - 1)) per
    step for a power of T. Only vertices that occur in the edge set are
    indexed; an isolated vertex cancels out of Bass's formula.

    Raises:
        ValueError: ``K < 1``, or the edge set is not the two
            orientations of each edge of a simple graph, each listed
            once (Bass's formula needs exactly that).
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    des = olg.edge_set
    pairs = set(zip(des.tails, des.heads))
    if len(pairs) != des.size or any(t == h or (h, t) not in pairs for t, h in pairs):
        raise ValueError(
            "traces need both orientations of each edge of a simple graph, each once"
        )
    index = {v: i for i, v in enumerate(sorted(set(des.tails)))}
    n = len(index)
    edges = sorted((index[t], index[h]) for t, h in pairs)
    tail = np.array([t for t, _ in edges])
    head = np.array([h for _, h in edges])
    degree = np.bincount(tail, minlength=n)
    starts = np.concatenate(([0], np.cumsum(degree)[:-1]))
    q = np.array([int(d) - 1 for d in degree], dtype=object)
    even_excess = 2 * (des.m - n)
    prev = np.zeros((n, n), dtype=object)
    cur = np.zeros((n, n), dtype=object)
    np.fill_diagonal(cur, 1)
    values = []
    for k in range(1, K + 1):
        # cur = B_(k-1), prev = B_(k-2); tr(B A) sums B over the edges.
        trace = int(cur[tail, head].sum()) - 2 * int((prev.diagonal() * q).sum())
        values.append(trace + (even_excess if k % 2 == 0 else 0))
        if k < K:
            prev, cur = cur, np.add.reduceat(cur[head], starts) - q[:, None] * prev
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
