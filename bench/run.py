"""Benchmark of the iharazeta pipeline: one process, one client, closed loop.

Usage (from the root of a checkout):

    python3 bench/run.py --workload zeta_ladder --seed 1 --seconds 45 --trace 0

The run imports the package from ``src/`` of the checkout, sets up its
workload, then runs whole passes over the workload's fixed list of jobs,
in a fresh seeded order each pass, until about ``--seconds`` of job time
is spent and at least three passes are done. Every job is checked by an
oracle outside the timed interval, and the set-up is repeated after it,
so that the set-up samples spread over the whole run; ``setup_s`` is
their median. Latency metrics are taken over each job's median run.
Untraced runs report normalized times: see ``Clock``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one pass untraced twice and then once with every
public stage wrapped in spans, then a fixed sweep that touches every
layer, and prints the per-layer metrics of BENCHMARK.json; the spans go
to ``.bench_out/``. The last line of stdout is the JSON result; the
lines above it name every metric with its unit.
"""
from __future__ import annotations

import os
import sys

from workloads import THREAD_VARS

# Pin BLAS and OpenMP before numpy is first imported: an unpinned numpy
# on a small box spends its first call starting threads.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Recorder, instrumented  # noqa: E402
from workloads import WORKLOADS, sweep_cli, sweep_layers  # noqa: E402

MIN_PASSES = 3
PACKAGE = "iharazeta"
PROBES_AROUND = 3
PROBE_INTERVAL_S = 0.05
# Normalized times are seconds on a host where one probe takes this long:
# about the unloaded pace of the 2-core host the benchmark was built on,
# so there normalized figures read close to raw ones.
PROBE_NOMINAL_S = 5e-4


def probe() -> float:
    """Seconds one fixed pure-Python loop takes: the host's pace right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    return time.perf_counter() - start


class Clock:
    """Times calls and, when probing, normalizes them for the host's pace.

    On a shared host other tenants slow this process down by up to half
    again, in phases from under a second to minutes long, so raw times of
    the same code move by 20-40% between runs. A probing clock measures
    the host's pace with ``probe`` three times before and after each call
    and, through an interval timer, every 50 ms during it; the probes'
    own time is taken off the call's. The call's normalized time is its
    raw time scaled by ``PROBE_NOMINAL_S`` over the pace: the mean of the
    probes during the call when there are three or more, else the median
    of those around it. A change to the program moves the normalized time
    as it moves the raw time; a change in the host's load moves it far
    less. The traced run does not probe, so spans hold no probe time.
    """

    def __init__(self, probing: bool):
        self.probing = probing
        self.during: list[float] = []
        if probing:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.during.append(probe()))

    def call(self, fn):
        """Run ``fn``; return (result, exception or None, seconds, normalized seconds or None)."""
        around = [probe() for _ in range(PROBES_AROUND)] if self.probing else []
        self.during = []
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # handed to the caller, which decides
            result, error = None, exc
        if not self.probing:
            return result, error, time.perf_counter() - start, None
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        during, self.during = self.during, []
        seconds -= sum(during)
        around += [probe() for _ in range(PROBES_AROUND)]
        pace = statistics.fmean(during) if len(during) >= 3 else statistics.median(around)
        return result, error, seconds, seconds * PROBE_NOMINAL_S / pace


class Stats:
    """Latency and outcome of every run of every job.

    Every pass repeats the same jobs, so a job's latency is summarised by
    its median run over the passes. Job results are dropped once checked,
    since keeping them alive would grow the heap and the cost of every
    later garbage collection.
    """

    RAW, NORMALIZED = 1, 2

    def __init__(self):
        self.records = []  # (job index, seconds, normalized seconds, error or None)
        self.passes = 0

    @property
    def timed(self) -> float:
        return sum(record[self.RAW] for record in self.records)

    @property
    def failed(self) -> int:
        return sum(1 for *_, error in self.records if error is not None)

    def per_job(self, column: int) -> dict[int, float]:
        """Each job's median run, raw or normalized, by job index."""
        runs: dict[int, list[float]] = {}
        for record in self.records:
            runs.setdefault(record[0], []).append(record[column])
        return {index: statistics.median(values) for index, values in runs.items()}

    def jobs_per_s(self, column: int) -> float:
        """Verified jobs per second of one pass at each job's median run."""
        per_job = self.per_job(column)
        verified = 1.0 - self.failed / len(self.records)
        return verified * len(per_job) / sum(per_job.values())


def run_pass(jobs, order, stats: Stats, clock: Clock, rec: Recorder | None = None, after_job=None) -> None:
    for index in order:
        job = jobs[index]
        if rec is not None:
            rec.job = f"{stats.passes}/{index} {job.label}"
        result, exc, seconds, normalized = clock.call(job.run)
        # A typed error is a failed job, never retried.
        error = None if exc is None else f"{type(exc).__name__}: {exc}"
        if error is None:
            with rec.paused() if rec is not None else nullcontext():
                error = job.check(result)
        if error is not None:
            print(f"FAILED {job.label}: {error}", file=sys.stderr)
        stats.records.append((index, seconds, normalized, error))
        if after_job is not None:
            after_job()
    stats.passes += 1


def shuffled(count: int, rng: random.Random) -> list[int]:
    order = list(range(count))
    rng.shuffle(order)
    return order


def fresh_import(src: Path):
    """Import the package from ``src`` anew, so set-up pays for the import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: {PACKAGE} imported from {package.__file__}, not from {src}")
    return package


def set_up(workload, src: Path, clock: Clock, times: list[tuple]):
    """Fresh import plus the workload's build; appends a record laid out as in ``Stats`` to ``times``."""
    def build():
        iz = fresh_import(src)
        workload.build(iz)
        return iz

    iz, exc, seconds, normalized = clock.call(build)
    if exc is not None:
        raise exc
    times.append(("set-up", seconds, normalized, None))
    return iz


def warm_up_numpy():
    import numpy as np

    mat = np.eye(64) + 0.01 * np.ones((64, 64))
    np.linalg.slogdet(mat)
    np.linalg.solve(mat, mat)
    return np


def end_to_end(stats: Stats, jobs, setup_times) -> dict[str, float]:
    figures = {}
    for name, column in (("raw", Stats.RAW), ("normalized", Stats.NORMALIZED)):
        per_job = stats.per_job(column)
        slowest = max(per_job, key=per_job.get)
        figures[name] = {
            "setup_s": statistics.median(record[column] for record in setup_times),
            "jobs_per_s": stats.jobs_per_s(column),
            "job_p50_ms": 1e3 * statistics.median(per_job.values()),
            "job_tail_ms": 1e3 * per_job[slowest],
        }
    print(f"samples jobs={len(per_job)} passes={stats.passes} runs={len(stats.records)} timed_s={stats.timed:.3f} "
          f"job_tail_ms=median run of the slowest job {jobs[slowest].label}, "
          f"setup_s=median of {len(setup_times)} set-ups")
    print("raw " + " ".join(f"{name}={value:.6g}" for name, value in figures["raw"].items()))
    return {
        **figures["normalized"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
    }


def per_layer(rec: Recorder, stats: Stats, plain: Stats, cli_calls, import_s) -> dict[str, float]:
    totals = rec.totals()
    print(f"{'span':<28}{'calls':>8}{'total_s':>12}{'self_s':>12}")
    for name in sorted(totals):
        entry = totals[name]
        print(f"{name:<28}{entry['calls']:>8}{entry['total_s']:>12.6f}{entry['self_s']:>12.6f}")
    measured: dict[str, float] = {f"{name}_s": entry["total_s"] for name, entry in totals.items()}
    measured.update(rec.counts)
    # A failure count has no entry until its first failure.
    measured["line_graph.spectral_failures"] = rec.counts["line_graph.spectral_failures"]
    measured.update({f"{kind}_ms": 1e3 * seconds for kind, seconds, _ in cli_calls})
    measured["cli.stdout_bytes"] = sum(nbytes for _, _, nbytes in cli_calls)
    measured["cli.import_s"] = import_s
    untraced, traced = plain.jobs_per_s(Stats.RAW), stats.jobs_per_s(Stats.RAW)
    measured["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
    print(f"trace jobs_per_s untraced={untraced:.4f} traced={traced:.4f}")
    return measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {src / PACKAGE}", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(src))
    np = warm_up_numpy()

    out_dir = root / ".bench_out"
    workload = WORKLOADS[args.workload](args.seed)
    clock = Clock(probing=not args.trace)
    setup_times: list[tuple] = []
    iz = set_up(workload, src, clock, setup_times)

    pins = ",".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    print(f"env workload={args.workload} seed={args.seed} trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={np.__version__} threads={pins}")
    for bg in workload.graphs:
        print(f"graph {bg.fingerprint()}")

    rng = random.Random(f"order-{args.seed}")
    jobs = workload.jobs()
    if args.trace:
        order = shuffled(len(jobs), rng)
        plain = Stats()
        for _ in range(2):  # the first pass also pays for first-call warm-up
            run_pass(jobs, order, plain, clock)
        rec = Recorder()
        with instrumented(rec, iz):
            workload.build(iz)
            stats = Stats()
            run_pass(jobs, order, stats, clock, rec)
            rec.job = "sweep"
            probes, sweep_failures = sweep_layers(iz, rec)
        cli_failures, cli_calls, import_s = sweep_cli(iz, root, out_dir / "cli")
        sweep_failures += cli_failures
        for line in probes:
            print(f"probe {line}")
        for line in sweep_failures:
            print(f"FAILED {line}", file=sys.stderr)
        rec.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        measured = per_layer(rec, stats, plain, cli_calls, import_s)
        attempted = len(plain.records) + len(stats.records) + len(cli_calls)
        failed = plain.failed + stats.failed + len(sweep_failures)
    else:
        stats = Stats()
        while True:
            run_pass(jobs, shuffled(len(jobs), rng), stats, clock,
                     after_job=lambda: set_up(workload, src, clock, setup_times))
            # Whole passes only, so every run has the same job mix, and at
            # least MIN_PASSES, so each job's fastest run is a choice; then
            # stop at the pass boundary nearest to the requested time.
            if stats.passes >= MIN_PASSES and stats.timed * (1 + 0.5 / stats.passes) >= args.seconds:
                break
        measured = end_to_end(stats, jobs, setup_times)
        attempted, failed = len(stats.records), stats.failed

    metrics = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name not in measured:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": measured[name], "unit": unit}
        print(f"metric {name} = {metrics[name]['value']} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
