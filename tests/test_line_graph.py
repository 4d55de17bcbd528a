"""Non-backtracking adjacency, exact traces, and the Perron root."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iharazeta as iz
from iharazeta.errors import NoConvergence

from conftest import ACCEPTANCE_GRAPHS, EDGE_SETS, PERIODIC_GRAPHS, graph, line_graph
from oracles import dense_line_graph, traces_by_line_graph_powers

BUILD_GRAPHS = ACCEPTANCE_GRAPHS + PERIODIC_GRAPHS


def _hand_built(edges) -> iz.OrientedLineGraph:
    """Line graph of both orientations of ``edges``, bypassing validation."""
    tails = tuple(u for u, _ in edges) + tuple(v for _, v in edges)
    heads = tuple(v for _, v in edges) + tuple(u for u, _ in edges)
    return iz.build_line_graph(iz.DirectedEdgeSet(tails=tails, heads=heads))


@st.composite
def connected_min_degree_two(draw):
    """Edges of a random connected graph on 3..9 vertices, min degree 2.

    A random spanning tree plus random extra edges; every vertex still
    below degree 2 is then joined to the first vertex, from a drawn
    offset on, that is not yet its neighbour.
    """
    n = draw(st.integers(3, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(min(p), max(p)) for p in draw(st.lists(pair, max_size=8)) if p[0] != p[1]}
    for v in range(n):
        near = {u for e in edges if v in e for u in e}
        if len(near) < 3:  # near holds v itself plus its neighbours
            offset = draw(st.integers(0, n - 1))
            w = next(
                w for w in ((offset + i) % n for i in range(n)) if w not in near
            )
            edges.add((min(v, w), max(v, w)))
    return sorted(edges)


class TestBuildLineGraph:
    def test_k4_row_sums_are_two(self):
        olg = line_graph("k4")
        assert all(len(row) == 2 for row in olg.successors)
        assert (olg.matrix.sum(axis=1) == 2.0).all()

    @pytest.mark.parametrize("name", BUILD_GRAPHS)
    def test_row_sums_equal_head_degree_minus_one(self, name):
        # The successor lists and the float matrix both match the dense
        # reference built from the defining predicate, entry for entry
        # and with indices ascending.
        olg = line_graph(name)
        des = olg.edge_set
        degs = graph(name).degrees()
        dense = dense_line_graph(des)
        assert olg.successors == tuple(
            tuple(j for j, bit in enumerate(row) if bit) for row in dense
        )
        assert np.array_equal(olg.matrix, np.array(dense, dtype=float))
        for i, row in enumerate(olg.successors):
            assert len(row) == degs[des.heads[i]] - 1

    @pytest.mark.parametrize("name", BUILD_GRAPHS)
    def test_diagonal_is_zero(self, name):
        olg = line_graph(name)
        assert all(i not in row for i, row in enumerate(olg.successors))
        assert not olg.matrix.diagonal().any()

    @pytest.mark.parametrize("name", BUILD_GRAPHS)
    def test_backtracking_transitions_excluded(self, name):
        olg = line_graph(name)
        des = olg.edge_set
        for k in range(olg.size):
            assert des.inverse(k) not in olg.successors[k]
            assert olg.matrix[k, des.inverse(k)] == 0.0

    @pytest.mark.parametrize("name", BUILD_GRAPHS)
    def test_total_entries_count_corner_turns(self, name):
        olg = line_graph(name)
        degs = graph(name).degrees()
        corner_turns = sum(d * (d - 1) for d in degs)
        assert sum(len(row) for row in olg.successors) == corner_turns
        assert olg.matrix.sum() == corner_turns
        assert sum(map(sum, dense_line_graph(olg.edge_set))) == corner_turns


class TestTraces:
    @pytest.mark.parametrize("name", ACCEPTANCE_GRAPHS)
    def test_first_two_traces_vanish(self, name):
        tv = iz.traces(line_graph(name), 2)
        assert tv.values == (0, 0)

    def test_k4_trace_of_cube_counts_triangle_walks(self):
        # 4 triangles, 2 directions, 3 starting edges each.
        assert iz.traces(line_graph("k4"), 3).trace(3) == 24

    @pytest.mark.parametrize("name", ["k4", "diamond", "wheel", "k23", "k4_sub3"])
    def test_traces_match_exhaustive_walk_counts(self, name):
        olg = line_graph(name)
        tv = iz.traces(olg, 6)
        for k in range(1, 7):
            assert tv.trace(k) == iz.count_closed_walks_bruteforce(olg, k)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            iz.traces(line_graph("k4"), 0)

    @pytest.mark.parametrize("name", sorted(EDGE_SETS))
    def test_match_line_graph_powers(self, name):
        olg = line_graph(name)
        assert iz.traces(olg, 64).values == traces_by_line_graph_powers(olg, 64)

    @settings(max_examples=40, deadline=None)
    @given(connected_min_degree_two())
    def test_match_line_graph_powers_on_random_graphs(self, edges):
        g = iz.Graph.from_edges(1 + max(v for _, v in edges), edges)
        assert min(g.degrees()) >= 2 and g.is_connected()
        olg = _hand_built(edges)
        assert iz.traces(olg, 16).values == traces_by_line_graph_powers(olg, 16)

    @pytest.mark.parametrize(
        "edges",
        [
            # triangle with a pendant edge 2-3
            ((0, 1), (0, 2), (1, 2), (2, 3)),
            # K4 on the ids 0, 2, 5, 9, so ids 1, 3, 4, 6, 7, 8 never occur
            ((0, 2), (0, 5), (0, 9), (2, 5), (2, 9), (5, 9)),
        ],
        ids=["pendant", "id_gaps"],
    )
    def test_match_line_graph_powers_outside_admissible(self, edges):
        olg = _hand_built(edges)
        assert iz.traces(olg, 32).values == traces_by_line_graph_powers(olg, 32)

    @pytest.mark.parametrize(
        "tails, heads",
        [
            ((0, 1, 2, 1, 2, 0, 0, 1), (1, 2, 0, 0, 1, 2, 1, 0)),  # (0, 1) twice
            ((0, 1, 2, 0), (1, 2, 0, 2)),  # 0 -> 1 without 1 -> 0
            ((0, 1, 2, 1, 2, 0, 0, 1), (1, 2, 0, 0, 1, 2, 0, 1)),  # loops at 0, 1
        ],
        ids=["repeated_pair", "one_way_edge", "loops"],
    )
    def test_rejects_edge_sets_outside_bass_formula(self, tails, heads):
        olg = iz.build_line_graph(iz.DirectedEdgeSet(tails=tails, heads=heads))
        with pytest.raises(ValueError, match="simple graph"):
            iz.traces(olg, 8)


class TestSpectralRadius:
    @pytest.mark.parametrize("name", ["k4", "petersen"])
    def test_regular_graphs_have_perron_root_two(self, name):
        sp = iz.spectral_radius(line_graph(name))
        assert abs(sp.value - 2.0) <= 1e-10
        assert sp.residual <= sp.tolerance

    def test_wheel_converges_and_matches_trace_ratio(self):
        olg = line_graph("wheel")
        sp = iz.spectral_radius(olg, tol=1e-12)
        assert sp.residual <= 1e-12
        # Independent cross-check: consecutive trace ratios converge to
        # the Perron root for a primitive nonnegative matrix.
        tv = iz.traces(olg, 61)
        ratio = tv.trace(61) / tv.trace(60)
        assert abs(ratio - sp.value) <= 1e-6 * sp.value

    @pytest.mark.parametrize("name", ACCEPTANCE_GRAPHS)
    def test_trace_roots_lower_bound_the_radius(self, name):
        # trace(T^k) <= 2m lambda^k for nonnegative T, so lambda is at
        # least (trace(T^k)/2m)^(1/k) for every k.
        olg = line_graph(name)
        sp = iz.spectral_radius(olg)
        tv = iz.traces(olg, 12)
        bound = max(
            (tv.trace(k) / olg.size) ** (1.0 / k)
            for k in range(1, 13)
            if tv.trace(k) > 0
        )
        assert bound <= sp.value + 1e-9

    def test_no_convergence_error(self):
        with pytest.raises(NoConvergence):
            iz.spectral_radius(line_graph("wheel"), tol=1e-12, max_iterations=2)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            iz.spectral_radius(line_graph("k4"), tol=0.0)
