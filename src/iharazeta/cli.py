"""Command-line interface.

Subcommands: validate, zeta, entropy, max, primes, group-law, compare.
Output is JSON by default (stable key order, 15 significant digits for
lambda and a) so runs with identical inputs are byte-identical; pass
``--format text`` for a human-readable rendering of the same content.
Exit codes: 0 success, 1 domain rejection, 2 input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .entropy import (
    EntropyParams,
    ihara_entropy,
    joint_entropy_check,
    maximizer,
    parse_distribution,
    shannon_entropy,
    term_slope,
    tsallis_entropy,
)
from .errors import IharaError, InputError
from .graph import orientations, parse_edge_list, validate_admissible
from .line_graph import build_line_graph
from .primes import DEFAULT_DFS_BUDGET, enumerate_primes, euler_product_series
from .series import group_law_report, lazard_law
from .zeta import build_zeta_series, zeta_tail_bound

BUDGET_ENV_VAR = "IHARA_MAX_DFS_STEPS"
# Exact group-law axiom checks get expensive fast; verdicts are computed
# up to this total degree even when the series order is higher.
GROUP_LAW_CHECK_DEGREE = 16


def _sig15(value: float) -> float:
    return float(f"{value:.15g}")


def _dfs_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_DFS_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str):
    return parse_edge_list(_read_file(path))


def _params_from_args(args) -> EntropyParams:
    graph = _load_graph(args.graph)
    return EntropyParams.for_graph(
        graph, a=args.a, a_frac=args.a_frac, order=args.order, tol=args.tol
    )


def _render_text(payload, indent: int = 0) -> list[str]:
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{payload}")
    return lines


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_render_text(payload)))


def cmd_validate(args) -> int:
    graph = _load_graph(args.graph)
    report = validate_admissible(graph)
    payload = {
        "admissible": report.admissible,
        "violations": [v.value for v in report.violations],
        "vertices": graph.n,
        "edges": graph.m,
    }
    _emit(payload, args.format)
    return 0 if report.admissible else 1


def cmd_zeta(args) -> int:
    graph = _load_graph(args.graph)
    olg = build_line_graph(orientations(graph))
    zs = build_zeta_series(olg, order=args.order, tol=args.tol)
    lam = zs.spectral.value
    if args.order <= 8 and olg.size <= 24:
        primes = enumerate_primes(olg, args.order, budget=_dfs_budget())
        euler = euler_product_series(primes, args.order)
        verdict = "match" if euler.coeffs == zs.coeffs else "mismatch"
    else:
        verdict = "skipped"
    checkpoint = 0.5 / lam
    payload = {
        "lambda": _sig15(lam),
        "N": args.order,
        "coefficients": [str(c) for c in zs.coeffs],
        "tail_bound_at": {
            "x": _sig15(checkpoint),
            "bound": zeta_tail_bound(zs, checkpoint),
        },
        "checks": {"euler_product": verdict},
    }
    _emit(payload, args.format)
    return 0


def cmd_entropy(args) -> int:
    params = _params_from_args(args)
    dist = parse_distribution(_read_file(args.dist))
    report = ihara_entropy(dist, params)
    c = maximizer(params, tol=args.tol)
    payload = {
        "S": report.entropy,
        "terms": list(report.terms),
        "a": _sig15(report.a),
        "N": report.order,
        "lambda": _sig15(report.lam),
        "maximizer_c": c,
        "comparators": {
            "shannon": shannon_entropy(dist),
            "tsallis_q": tsallis_entropy(dist, args.q),
            "q": args.q,
        },
    }
    _emit(payload, args.format)
    return 0


def cmd_max(args) -> int:
    params = _params_from_args(args)
    c = maximizer(params, tol=args.tol)
    payload = {
        "c": c,
        "term_slope_at_c": term_slope(c, params),
        "a": _sig15(float(params.a)),
        "lambda": _sig15(params.zeta.spectral.value),
        "tol": args.tol,
    }
    _emit(payload, args.format)
    return 0


def cmd_primes(args) -> int:
    graph = _load_graph(args.graph)
    olg = build_line_graph(orientations(graph))
    primes = enumerate_primes(olg, args.max_length, budget=_dfs_budget())
    histogram = {str(k): v for k, v in primes.histogram().items()}
    if args.format == "json":
        payload = {
            "count": len(primes),
            "max_length": primes.max_length,
            "histogram": histogram,
            "cycles": [list(p.edges) for p in primes],
        }
        _emit(payload, "json")
    else:
        for cycle in primes:
            print(" ".join(str(e) for e in cycle.edges))
        print(f"histogram: {json.dumps(histogram)}")
    return 0


def cmd_group_law(args) -> int:
    params = _params_from_args(args)
    g_series = params.log_series
    f_series = params.log_series_inverse
    degree = min(args.order, GROUP_LAW_CHECK_DEGREE)
    phi = lazard_law(g_series, f_series, degree)
    if phi.is_exact():
        checks = group_law_report(phi)
    else:
        checks = group_law_report(phi, atol=1e-9)
    payload = {
        "a": _sig15(float(params.a)),
        "lambda": _sig15(params.zeta.spectral.value),
        "degree": degree,
        "phi": [[str(c) for c in row] for row in phi.coeffs],
        "checks": {name: ("pass" if ok else "fail") for name, ok in checks.items()},
    }
    _emit(payload, args.format)
    return 0 if all(checks.values()) else 1


def cmd_compare(args) -> int:
    params = _params_from_args(args)
    dist = parse_distribution(_read_file(args.dist))
    payload = {
        "ihara": ihara_entropy(dist, params).entropy,
        "shannon": shannon_entropy(dist),
        "tsallis": tsallis_entropy(dist, args.q),
        "q": args.q,
        "a": _sig15(float(params.a)),
    }
    _emit(payload, args.format)
    return 0


def _add_common(parser: argparse.ArgumentParser, with_params: bool = False) -> None:
    parser.add_argument("--graph", required=True, help="edge-list file")
    parser.add_argument("--order", type=int, default=32, help="truncation order N")
    parser.add_argument("--tol", type=float, default=1e-12, help="numeric tolerance")
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    if with_params:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--a", default=None, help="scaling factor (decimal or p/q)")
        group.add_argument(
            "--a-frac",
            dest="a_frac",
            default=None,
            help="scaling as a fraction of 1/lambda (default 1/2)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iharazeta",
        description="Zeta series and entropy of admissible graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="admissibility report")
    _add_common(p_validate)
    p_validate.set_defaults(handler=cmd_validate)

    p_zeta = sub.add_parser("zeta", help="zeta series coefficients")
    _add_common(p_zeta)
    p_zeta.set_defaults(handler=cmd_zeta)

    p_entropy = sub.add_parser("entropy", help="entropy of a distribution")
    _add_common(p_entropy, with_params=True)
    p_entropy.add_argument("--dist", required=True, help="distribution file")
    p_entropy.add_argument("--q", type=float, default=2.0, help="Tsallis comparator q")
    p_entropy.set_defaults(handler=cmd_entropy)

    p_max = sub.add_parser("max", help="per-event maximizer certificate")
    _add_common(p_max, with_params=True)
    p_max.set_defaults(handler=cmd_max)

    p_primes = sub.add_parser("primes", help="enumerate prime cycles")
    _add_common(p_primes)
    p_primes.add_argument(
        "--max-length", dest="max_length", type=int, default=8, help="length cap L"
    )
    p_primes.set_defaults(handler=cmd_primes)

    p_group = sub.add_parser("group-law", help="group law table and axiom checks")
    _add_common(p_group, with_params=True)
    p_group.set_defaults(handler=cmd_group_law)

    p_compare = sub.add_parser("compare", help="entropy comparators")
    _add_common(p_compare, with_params=True)
    p_compare.add_argument("--dist", required=True, help="distribution file")
    p_compare.add_argument("--q", type=float, default=2.0, help="Tsallis q")
    p_compare.set_defaults(handler=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IharaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
