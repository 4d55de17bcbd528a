"""The benchmark workloads, their jobs and the oracle for each job.

A workload builds its fixed state in ``build`` (the timed set-up) and
lists its jobs in ``jobs``; the runner repeats that list in passes, in a
seeded order. The seed picks the random graphs, the distributions and
the job order. A job's ``run`` is timed; its ``check`` is the oracle and
runs outside the timed interval. ``check`` returns None when the output
is right and a message otherwise.
"""
from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import graphs as gen

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Mirrors the CLI's group-law settings but is fixed here, so the
# benchmark's work does not change if the program's defaults do.
GROUP_LAW_DEGREE = 16
GROUP_LAW_FLOAT_ATOL = 1e-9
SERIES_ORDER = 32
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{purpose}-{seed}")


def admit(iz, bg: gen.BenchGraph):
    """Parse a generated graph and refuse it unless it is admissible."""
    graph = iz.parse_edge_list(bg.text)
    report = iz.validate_admissible(graph)
    if not report.admissible or (graph.n, graph.m) != (bg.n, bg.m):
        raise RuntimeError(f"generated graph {bg.fingerprint()} is not admissible: {report}")
    return graph


def nonregular(seed: int) -> gen.BenchGraph:
    return gen.random_nonregular(40, 14, _rng(seed, "nonregular"))


# --- zeta_ladder -----------------------------------------------------------

def zeta_job(iz, text: str, order: int):
    graph = iz.parse_edge_list(text)
    olg = iz.build_line_graph(iz.orientations(graph))
    zs = iz.build_zeta_series(olg, order=order)
    lam = zs.spectral.value
    evals = []
    for frac in (0.25, 0.5, 0.75):
        x = frac / lam
        evals.append((x, iz.zeta_eval_series(zs, x), iz.zeta_eval_exact(olg, x, spectral=zs.spectral)))
    euler = None
    if order == 8 and olg.size <= 24:
        euler = iz.euler_product_series(iz.enumerate_primes(olg, order), order)
    return zs, evals, euler


def zeta_check(result) -> str | None:
    zs, evals, euler = result
    for x, series, exact in evals:
        if not abs(series.value - exact) <= series.tail_bound:
            return (f"series {series.value!r} and determinant {exact!r} at x={x!r} "
                    f"differ by more than the tail bound {series.tail_bound!r}")
    if euler is not None and euler.coeffs != zs.coeffs:
        return "Euler product differs from the exp-trace series"
    return None


class ZetaLadder:
    name = "zeta_ladder"
    orders = (8, 32, 64)

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, iz) -> None:
        self.iz = iz
        self.graphs = [
            gen.complete(4), gen.wheel(5), gen.petersen(), gen.complete_bipartite(3, 3),
            gen.circulant(20, (1, 2)), gen.circulant(50, (1, 2)), gen.circulant(150, (1, 2)),
            gen.torus(8, 8), gen.random_regular(100, 3, _rng(self.seed, "regular")),
            nonregular(self.seed),
        ]
        for bg in self.graphs:
            admit(iz, bg)

    def jobs(self) -> list[Job]:
        # C150(1,2) at order 64 is left out: that one job (about 4.5 s)
        # was half of a pass, which left too few passes in a run for each
        # job's fastest run to be steady on a shared host.
        return [
            Job(f"{bg.name}@{order}",
                lambda text=bg.text, order=order: zeta_job(self.iz, text, order), zeta_check)
            for bg in self.graphs for order in self.orders
            if (bg.n, order) != (150, 64)
        ]


# --- group_law_exact -------------------------------------------------------

def group_law_job(iz, graph, a_frac, order: int = SERIES_ORDER, degree: int = GROUP_LAW_DEGREE):
    params = iz.EntropyParams.for_graph(graph, a_frac=a_frac, order=order)
    phi = iz.lazard_law(params.log_series, params.log_series_inverse, min(order, degree))
    if phi.is_exact():
        report = iz.group_law_report(phi)
    else:
        report = iz.group_law_report(phi, atol=GROUP_LAW_FLOAT_ATOL)
    return phi, report


class GroupLawExact:
    name = "group_law_exact"

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, iz) -> None:
        self.iz = iz
        # Regular graphs have a whole Perron root, so a = a_frac / lambda
        # stays a Fraction and the whole chain runs in exact rationals.
        # The float graphs use a_frac = 1/4: at 1/2 the float associativity
        # check at atol 1e-9 fails on every non-regular graph tried.
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        self.cases = [
            (gen.complete(4), half, True),
            (gen.petersen(), half, True),
            (gen.complete_bipartite(3, 3), half, True),
            (gen.wheel(5), quarter, False),
            (nonregular(self.seed), quarter, False),
        ]
        self.graphs = [bg for bg, _, _ in self.cases]
        self.parsed = {bg.name: admit(iz, bg) for bg in self.graphs}

    def jobs(self) -> list[Job]:
        def check(result, exact) -> str | None:
            phi, report = result
            if exact and not phi.is_exact():
                return "exact path produced float coefficients"
            failed = [name for name, ok in report.items() if not ok]
            return f"group-law verdicts failed: {failed}" if failed else None

        return [
            Job(f"{bg.name}@a_frac={a_frac}",
                lambda name=bg.name, a_frac=a_frac: group_law_job(self.iz, self.parsed[name], a_frac),
                lambda result, exact=exact: check(result, exact))
            for bg, a_frac, exact in self.cases
        ]


WORKLOADS = {w.name: w for w in (ZetaLadder, GroupLawExact)}


# --- traced-run sweeps -----------------------------------------------------

SWEEP_DIST = (0.1, 0.2, 0.3, 0.4)
CLI_COMMANDS = (
    ("validate",),
    ("zeta", "--order", "8"),
    ("primes", "--max-length", "8"),
    ("entropy", "--dist", "{dist}"),
    ("max",),
    ("compare", "--dist", "{dist}"),
    ("group-law", "--order", "12"),
)


def entropy_check(iz, params, dist, report, c) -> str | None:
    """Oracle for the sweep's entropy calls.

    The entropy, recomputed term by term from ``zeta_eval_series`` values,
    must agree with ``ihara_entropy`` within the summed tail bounds, and
    ``term_slope`` must change sign across the maximizer ``c``.
    """
    zs, af = params.zeta, float(params.a)
    at_a = iz.zeta_eval_series(zs, af)
    total = bound = 0.0
    for p in dist:
        at_ap = iz.zeta_eval_series(zs, af * p)
        total += p * ((at_a.value - at_ap.value) + (1.0 - p)) / params.normalizer
        bound += p * (at_a.tail_bound + at_ap.tail_bound) / abs(params.normalizer)
    if not abs(total - report.entropy) <= bound + 1e-12:
        return f"entropy {report.entropy!r} and its series recomputation {total!r} differ by more than {bound!r}"
    step = 1e-6
    if not iz.term_slope(c - step, params) > 0.0 > iz.term_slope(c + step, params):
        return f"term_slope does not change sign across the maximizer {c!r}"
    return None


def sweep_layers(iz, rec) -> tuple[list[str], list[str]]:
    """Touch every traced layer once, so each traced run measures them all.

    The entropy layer runs on the 8x8 torus (2m=256) with float params,
    so its dense determinant and solve cost what they cost at a realistic
    size. Also runs the two periodic graphs that ROADMAP item 2 is about;
    today their Perron root fails with NoConvergence, which the recorder
    counts as ``line_graph.spectral_failures``. Oracles run with ``rec``
    paused. Returns one line per probe and the oracle failures.
    """
    k4 = gen.complete(4)
    zeta_job(iz, k4.text, 8)
    group_law_job(iz, iz.parse_edge_list(k4.text), Fraction(1, 4), order=8, degree=8)

    torus = admit(iz, gen.torus(8, 8))
    params = iz.EntropyParams.for_graph(torus, a_frac=0.25, order=16)
    dist = iz.ProbabilityDistribution.from_values(SWEEP_DIST)
    report = iz.ihara_entropy(dist, params)
    c = iz.maximizer(params)
    half = iz.ProbabilityDistribution.uniform(2)
    iz.joint_entropy_check(half, half, params)
    with rec.paused():
        error = entropy_check(iz, params, SWEEP_DIST, report, c)
    failures = [] if error is None else [f"entropy on {torus.name}: {error}"]

    probes = []
    for bg in (gen.complete_bipartite(2, 3), gen.subdivided(gen.complete(4), 3)):
        try:
            verdict = zeta_check(zeta_job(iz, bg.text, SERIES_ORDER)) or "ok"
        except iz.errors.IharaError as exc:
            verdict = type(exc).__name__
        probes.append(f"{bg.fingerprint()} order={SERIES_ORDER}: {verdict}")
    return probes, failures


def sweep_cli(iz, root, work_dir) -> tuple[list[str], list[tuple[str, float, int]], float]:
    """Time every CLI subcommand once on K4, and the bare CLI import.

    Children run one at a time with threads pinned. Each must exit 0 and
    print byte for byte what the same command prints in-process. Returns
    the mismatches, the calls made (``cli.<subcommand>``, seconds, stdout
    bytes) and the import time.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    graph_file, dist_file = work_dir / "k4.txt", work_dir / "dist.json"
    graph_file.write_text(gen.complete(4).text, encoding="utf-8")
    dist_file.write_text(json.dumps(list(SWEEP_DIST)), encoding="utf-8")
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    failures, calls = [], []
    for command, *extra in CLI_COMMANDS:
        argv = [command, "--graph", str(graph_file), *(a.format(dist=dist_file) for a in extra)]
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-m", "iharazeta.cli", *argv], env=env, cwd=root,
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               timeout=CLI_TIMEOUT_S, check=False)
        calls.append((f"cli.{command}", time.perf_counter() - start, len(child.stdout)))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = iz.cli.main(argv)
        if child.returncode != 0 or (child.returncode, child.stdout) != (code, out.getvalue().encode("utf-8")):
            failures.append(f"cli {command}: exit {child.returncode} or stdout differs from in-process")

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import iharazeta.cli"], env=env, cwd=root,
                   timeout=CLI_TIMEOUT_S, check=True)
    return failures, calls, time.perf_counter() - start
