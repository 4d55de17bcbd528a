"""Shared graph fixtures and cached builders.

The four reference graphs cover the admissible landscape: K4 and the
Petersen graph are regular (exact Perron root 2), the five-vertex wheel
mixes degrees 3 and 4, and the diamond (K4 minus an edge) is the
smallest non-regular case. K2,3 and K4 with every edge subdivided into
a 3-edge path are admissible but their line graphs are periodic (the
spectrum holds both lambda and -lambda). Builders are memoized so the
expensive objects (order-32 series, compositional inverses) are shared
across test modules within one pytest run.
"""
from __future__ import annotations

from functools import lru_cache

import pytest

import iharazeta as iz

EDGE_SETS = {
    "k4": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    # hub vertex 4 joined to the rim cycle 0-2-3-1-0
    "wheel": (5, ((0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
    "diamond": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))),
    "k23": (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
    # each K4 edge (u, v) in order becomes u - 4+2i - 5+2i - v
    "k4_sub3": (
        16,
        tuple(
            pair
            for i, (u, v) in enumerate(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
            for pair in ((u, 4 + 2 * i), (4 + 2 * i, 5 + 2 * i), (5 + 2 * i, v))
        ),
    ),
    "petersen": (
        10,
        tuple(
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
            + [(i, i + 5) for i in range(5)]
            + [(5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]
        ),
    ),
}

ACCEPTANCE_GRAPHS = ("k4", "wheel", "diamond", "petersen")
PERIODIC_GRAPHS = ("k23", "k4_sub3")


@lru_cache(maxsize=None)
def graph(name: str) -> iz.Graph:
    n, edges = EDGE_SETS[name]
    return iz.Graph.from_edges(n, edges)


@lru_cache(maxsize=None)
def line_graph(name: str) -> iz.OrientedLineGraph:
    return iz.build_line_graph(iz.orientations(graph(name)))


@lru_cache(maxsize=None)
def zeta_series(name: str, order: int = 32) -> iz.ZetaSeries:
    return iz.build_zeta_series(line_graph(name), order=order)


@lru_cache(maxsize=None)
def entropy_params(name: str, a_frac: str = "1/2", order: int = 32) -> iz.EntropyParams:
    zs = zeta_series(name, order)
    scale = iz.resolve_scale(zs.spectral, a_frac=a_frac)
    return iz.EntropyParams(a=scale, zeta=zs, order=order)


def edge_list_text(name: str) -> str:
    n, edges = EDGE_SETS[name]
    return "\n".join(f"{u} {v}" for u, v in edges) + "\n"


def cycle_graph(n: int) -> iz.Graph:
    return iz.Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> iz.Graph:
    return iz.Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


@pytest.fixture
def k4() -> iz.Graph:
    return graph("k4")


@pytest.fixture
def wheel() -> iz.Graph:
    return graph("wheel")


@pytest.fixture
def diamond() -> iz.Graph:
    return graph("diamond")


@pytest.fixture
def petersen() -> iz.Graph:
    return graph("petersen")
