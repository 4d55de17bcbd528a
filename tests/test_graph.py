"""Edge-list parsing, admissibility reports, and edge orientations."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import iharazeta as iz
from iharazeta.errors import EmptyEdgeList, LoopEdge, MalformedLine, NotAdmissible

from conftest import cycle_graph, graph, path_graph


class TestParseEdgeList:
    def test_triangle_readback(self):
        g = iz.parse_edge_list("0 1\n1 2\n2 0")
        assert g.n == 3
        assert g.m == 3

    def test_duplicate_lines_are_idempotent(self):
        g = iz.parse_edge_list("0 1\n0 1")
        assert g.n == 2
        assert g.m == 1

    def test_reversed_duplicate_collapses(self):
        g = iz.parse_edge_list("0 1\n1 0")
        assert g.m == 1

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            iz.parse_edge_list("0 0")

    def test_wrong_arity_rejected(self):
        with pytest.raises(MalformedLine):
            iz.parse_edge_list("0 1 2")

    def test_non_integer_rejected(self):
        with pytest.raises(MalformedLine):
            iz.parse_edge_list("a b")

    def test_negative_id_rejected(self):
        with pytest.raises(MalformedLine):
            iz.parse_edge_list("-1 2")

    def test_comments_and_blank_lines_skipped(self):
        g = iz.parse_edge_list("# triangle\n\n0 1\n# more\n1 2\n2 0\n")
        assert g.m == 3

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyEdgeList):
            iz.parse_edge_list("")
        with pytest.raises(EmptyEdgeList):
            iz.parse_edge_list("# only a comment\n")


class TestGraphInvariants:
    def test_loop_cannot_be_constructed(self):
        with pytest.raises(ValueError):
            iz.Graph(n=2, edges=frozenset({(1, 1)}))

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            iz.Graph(n=2, edges=frozenset({(0, 2)}))

    def test_degrees(self):
        degs = graph("wheel").degrees()
        assert sorted(degs) == [3, 3, 3, 3, 4]


class TestValidateAdmissible:
    def test_wheel_is_admissible(self):
        report = iz.validate_admissible(graph("wheel"))
        assert report.admissible
        assert report.violations == ()

    def test_k4_is_admissible(self):
        assert iz.validate_admissible(graph("k4")).admissible

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_cycle_graphs_rejected(self, n):
        report = iz.validate_admissible(cycle_graph(n))
        assert not report.admissible
        assert iz.Violation.IS_CYCLE_GRAPH in report.violations

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_path_graphs_rejected(self, n):
        report = iz.validate_admissible(path_graph(n))
        assert iz.Violation.IS_PATH_GRAPH in report.violations
        assert iz.Violation.MIN_DEGREE_BELOW_TWO in report.violations

    def test_disconnected_union_rejected(self):
        two_triangles = iz.Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        report = iz.validate_admissible(two_triangles)
        assert report.violations == (iz.Violation.NOT_CONNECTED,)

    def test_single_vertex(self):
        report = iz.validate_admissible(iz.Graph(n=1, edges=frozenset()))
        assert iz.Violation.MIN_DEGREE_BELOW_TWO in report.violations
        assert iz.Violation.IS_PATH_GRAPH in report.violations

    def test_pendant_vertex_flagged(self):
        g = iz.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        report = iz.validate_admissible(g)
        assert report.violations == (iz.Violation.MIN_DEGREE_BELOW_TWO,)

    def test_unused_vertex_ids_flagged_first(self):
        g = iz.parse_edge_list("10 11\n11 12\n12 10\n10 13\n13 11\n")
        assert g.n == 14
        report = iz.validate_admissible(g)
        assert report.violations == (
            iz.Violation.ISOLATED_VERTEX,
            iz.Violation.NOT_CONNECTED,
            iz.Violation.MIN_DEGREE_BELOW_TWO,
        )

    def test_flag_mirrors_violations(self):
        with pytest.raises(ValueError):
            iz.AdmissibilityReport(admissible=True, violations=(iz.Violation.IS_CYCLE_GRAPH,))


class TestOrientations:
    def test_k4_has_twelve_directed_edges(self):
        assert iz.orientations(graph("k4")).size == 12

    def test_wheel_has_sixteen_directed_edges(self):
        assert iz.orientations(graph("wheel")).size == 16

    def test_inverse_is_an_involution(self):
        des = iz.orientations(graph("petersen"))
        for k in range(des.size):
            assert des.inverse(k) != k
            assert des.inverse(des.inverse(k)) == k

    def test_inverse_swaps_endpoints(self):
        des = iz.orientations(graph("wheel"))
        for k in range(des.size):
            j = des.inverse(k)
            assert des.tails[j] == des.heads[k]
            assert des.heads[j] == des.tails[k]

    def test_pairs_biject_with_undirected_edges(self):
        g = graph("diamond")
        des = iz.orientations(g)
        pairs = {
            tuple(sorted((des.tails[k], des.heads[k])))
            for k in range(des.m)
        }
        assert pairs == set(g.edges)

    def test_not_admissible_raises(self):
        with pytest.raises(NotAdmissible):
            iz.orientations(cycle_graph(5))


def _render(g: iz.Graph) -> str:
    return "\n".join(f"{u} {v}" for u, v in sorted(g.edges))


@given(
    st.sets(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=12,
    )
)
def test_parse_render_roundtrip(edges):
    g = iz.Graph.from_edges(8, edges)
    assert iz.parse_edge_list(_render(g)).edges == g.edges


@given(
    st.sets(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=15,
    )
)
def test_admissible_graphs_have_min_degree_two_and_connectivity(edges):
    g = iz.Graph.from_edges(6, edges)
    report = iz.validate_admissible(g)
    if report.admissible:
        assert min(g.degrees()) >= 2
        assert g.is_connected()
        des = iz.orientations(g)
        assert des.size == 2 * g.m
