"""Non-backtracking adjacency, exact traces, and the Perron root."""
from __future__ import annotations

import numpy as np
import pytest

import iharazeta as iz
from iharazeta.errors import NoConvergence

from conftest import ACCEPTANCE_GRAPHS, PERIODIC_GRAPHS, graph, line_graph
from oracles import dense_line_graph

BUILD_GRAPHS = ACCEPTANCE_GRAPHS + PERIODIC_GRAPHS


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

    @pytest.mark.parametrize("name", ["k4", "diamond"])
    def test_traces_match_exhaustive_walk_counts(self, name):
        olg = line_graph(name)
        tv = iz.traces(olg, 6)
        for k in range(1, 7):
            assert tv.trace(k) == iz.count_closed_walks_bruteforce(olg, k)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            iz.traces(line_graph("k4"), 0)


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
