"""Graph generators for the benchmark, with no dependency beyond the stdlib.

Every generator returns a :class:`BenchGraph`: a name, a vertex count and
a sorted edge tuple. The benchmark hands the program only the edge-list
text of these graphs, so the program's parser is part of what is timed.
The fingerprint (n, m, 2m and a hash of the sorted edges) lets two runs
prove they used identical inputs.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class BenchGraph:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)

    def fingerprint(self) -> str:
        digest = hashlib.sha256(self.text.encode("ascii")).hexdigest()[:16]
        return f"{self.name} n={self.n} m={self.m} 2m={2 * self.m} sha256={digest}"


def _graph(name: str, n: int, edges) -> BenchGraph:
    normalized = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return BenchGraph(name=name, n=n, edges=tuple(normalized))


def complete(n: int) -> BenchGraph:
    return _graph(f"K{n}", n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def wheel(n: int) -> BenchGraph:
    """Wheel on n vertices: rim cycle 0..n-2 plus hub vertex n-1."""
    k = n - 1
    rim = [(i, (i + 1) % k) for i in range(k)]
    return _graph(f"wheel{n}", n, rim + [(i, k) for i in range(k)])


def petersen() -> BenchGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _graph("petersen", 10, outer + spokes + inner)


def complete_bipartite(a: int, b: int) -> BenchGraph:
    return _graph(f"K{a},{b}", a + b, [(i, a + j) for i in range(a) for j in range(b)])


def circulant(n: int, jumps: tuple[int, ...]) -> BenchGraph:
    name = f"C{n}({','.join(map(str, jumps))})"
    return _graph(name, n, [(i, (i + s) % n) for i in range(n) for s in jumps])


def torus(rows: int, cols: int) -> BenchGraph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return _graph(f"torus{rows}x{cols}", rows * cols, edges)


def subdivided(base: BenchGraph, parts: int) -> BenchGraph:
    """Replace every edge of ``base`` by a path of ``parts`` edges."""
    n = base.n
    edges = []
    for u, v in base.edges:
        chain = [u] + list(range(n, n + parts - 1)) + [v]
        n += parts - 1
        edges.extend(zip(chain, chain[1:]))
    return _graph(f"{base.name}-sub{parts}", n, edges)


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_regular(n: int, d: int, rng: random.Random) -> BenchGraph:
    """Uniform simple connected d-regular graph by the pairing model.

    Pairings with a loop, a repeated edge or more than one component are
    rejected and redrawn, which keeps the distribution uniform.
    """
    if (n * d) % 2:
        raise ValueError("n * d must be even")
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
        keyed = {(min(u, v), max(u, v)) for u, v in pairs}
        if all(u != v for u, v in pairs) and len(keyed) == len(pairs) and _connected(n, keyed):
            return _graph(f"random{d}reg{n}", n, keyed)


def random_nonregular(n: int, chords: int, rng: random.Random) -> BenchGraph:
    """Seeded Hamiltonian cycle plus ``chords`` random chords.

    The cycle gives connectivity and minimum degree two. The first two
    chords close a triangle and a 4-cycle, so the non-backtracking
    matrix has closed walks of coprime lengths and is aperiodic; power
    iteration then converges. Fewer than n/2 chords leave some vertex at
    degree two, so the graph is never regular.
    """
    if not 2 <= chords < n // 2:
        raise ValueError("need 2 <= chords < n/2")
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    for u, v in ((order[0], order[2]), (order[3], order[6])):
        edges.add((min(u, v), max(u, v)))
    while len(edges) < n + chords:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return _graph(f"nonregular{n}", n, edges)
