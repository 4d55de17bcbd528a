"""Zeta series of admissible graphs and the entropy they induce.

The pipeline: parse and validate a graph, orient its edges, build the
non-backtracking edge adjacency, expand the zeta series from exact
traces, then derive a formal group logarithm whose per-event weights
define an entropy with a Lazard composition law. Brute-force prime
cycle enumeration and determinant evaluation provide independent
oracles for every step.
"""
from .entropy import (
    EntropyParams,
    EntropyReport,
    JointEntropyCheck,
    ProbabilityDistribution,
    formal_group_log_series,
    g_of_log_inv_p,
    ihara_entropy,
    joint_entropy_check,
    maximizer,
    parse_distribution,
    resolve_scale,
    shannon_entropy,
    term_s,
    term_slope,
    tsallis_entropy,
)
from .graph import (
    AdmissibilityReport,
    DirectedEdgeSet,
    Graph,
    Violation,
    orientations,
    parse_edge_list,
    validate_admissible,
)
from .line_graph import (
    OrientedLineGraph,
    SpectralRadius,
    TraceVector,
    build_line_graph,
    spectral_radius,
    traces,
)
from .primes import (
    PrimeCycle,
    PrimeCycleSet,
    count_closed_walks_bruteforce,
    enumerate_primes,
    euler_product_series,
)
from .series import (
    BivariateTruncatedSeries,
    TruncatedPowerSeries,
    group_law_report,
    lazard_law,
    ps_compose,
    ps_exp,
    ps_inverse_composition,
)
from .zeta import (
    ZetaEvaluation,
    ZetaSeries,
    build_zeta_series,
    zeta_coefficients,
    zeta_derivative,
    zeta_derivative_exact,
    zeta_eval_exact,
    zeta_eval_series,
    zeta_tail_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BivariateTruncatedSeries",
    "DirectedEdgeSet",
    "EntropyParams",
    "EntropyReport",
    "Graph",
    "JointEntropyCheck",
    "OrientedLineGraph",
    "PrimeCycle",
    "PrimeCycleSet",
    "ProbabilityDistribution",
    "SpectralRadius",
    "TraceVector",
    "TruncatedPowerSeries",
    "Violation",
    "ZetaEvaluation",
    "ZetaSeries",
    "build_line_graph",
    "build_zeta_series",
    "count_closed_walks_bruteforce",
    "enumerate_primes",
    "euler_product_series",
    "formal_group_log_series",
    "g_of_log_inv_p",
    "group_law_report",
    "ihara_entropy",
    "joint_entropy_check",
    "lazard_law",
    "maximizer",
    "orientations",
    "parse_distribution",
    "parse_edge_list",
    "ps_compose",
    "ps_exp",
    "ps_inverse_composition",
    "resolve_scale",
    "shannon_entropy",
    "spectral_radius",
    "term_s",
    "term_slope",
    "traces",
    "tsallis_entropy",
    "validate_admissible",
    "zeta_coefficients",
    "zeta_derivative",
    "zeta_derivative_exact",
    "zeta_eval_exact",
    "zeta_eval_series",
    "zeta_tail_bound",
]
