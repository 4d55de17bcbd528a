"""Span recorder and the instrumentation that feeds it.

The traced run wraps the public functions of each package module by
rebinding module attributes, so calls between layers (for example
``iharazeta.entropy`` calling ``zeta_eval_exact``) are recorded without
any change to the package. Spans stay in memory; counts are recorded at
the same boundaries; both are written out once the run ends.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Recorder:
    """In-memory spans (id, parent id, job, name, start, end) plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = "setup"
        self.enabled = True
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.job, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Oracle checks run here, so they add neither spans nor counts."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another on the one thread, so
        the time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[sid] for sid, _, _, _, start, end in self.spans]

    def totals(self) -> dict[str, dict[str, float]]:
        """Inclusive seconds, self seconds and calls per span name."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        for (_, _, _, name, start, end), own in zip(self.spans, self.self_times()):
            entry = out[name]
            entry["total_s"] += end - start
            entry["self_s"] += own
            entry["calls"] += 1
        return dict(out)

    def write(self, path) -> None:
        records = [
            {"id": sid, "parent": parent, "job": job, "name": name,
             "start": start, "end": end, "self": own}
            for (sid, parent, job, name, start, end), own in zip(self.spans, self.self_times())
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"counts": dict(self.counts), "spans": records}, handle)


def _nnz(olg) -> int:
    return sum(len(row) for row in olg.successors)


# (module, function, span name, hook run on the result). Hooks see the
# recorder, the call's positional arguments and its result.
TARGETS = (
    ("graph", "parse_edge_list", "graph.parse", None),
    ("graph", "orientations", "graph.orientations", None),
    ("line_graph", "build_line_graph", "line_graph.build", None),
    ("line_graph", "traces", "line_graph.traces",
     lambda rec, args, res: rec.count("line_graph.trace_ops", res.K * _nnz(args[0]))),
    ("line_graph", "spectral_radius", "line_graph.spectral",
     lambda rec, args, res: rec.count("line_graph.spectral_iters", res.iterations)),
    ("zeta", "zeta_coefficients", "zeta.coefficients", None),
    ("zeta", "zeta_eval_exact", "zeta.eval_exact",
     lambda rec, args, res: rec.count("zeta.eval_exact_calls")),
    ("zeta", "zeta_derivative_exact", "zeta.derivative_exact",
     lambda rec, args, res: rec.count("zeta.derivative_exact_calls")),
    ("zeta", "zeta_eval_series", "zeta.eval_series", None),
    ("zeta", "zeta_tail_bound", "zeta.tail_bound", None),
    ("series", "ps_exp", "series.exp", None),
    ("series", "ps_inverse_composition", "series.inverse", None),
    ("series", "ps_compose", "series.compose",
     lambda rec, args, res: rec.count("series.compose_calls")),
    ("series", "lazard_law", "series.lazard", None),
    ("series", "group_law_report", "series.group_law_report", None),
    ("entropy", "formal_group_log_series", "entropy.log_series", None),
    ("entropy", "ihara_entropy", "entropy.ihara",
     lambda rec, args, res: rec.count("entropy.events", len(res.terms))),
    ("entropy", "maximizer", "entropy.maximizer", None),
    ("entropy", "term_slope", "entropy.term_slope",
     lambda rec, args, res: rec.count("entropy.slope_evals")),
    ("entropy", "joint_entropy_check", "entropy.joint_check", None),
    ("primes", "enumerate_primes", "primes.enumerate",
     lambda rec, args, res: rec.count("primes.cycles", len(res))),
    ("primes", "euler_product_series", "primes.euler", None),
)


def _wrap(rec: Recorder, name: str, fn, hook, failure_types, failure_count):
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except failure_types:
            rec.count(failure_count)
            raise
        finally:
            rec.close(sid)
        if hook is not None:
            hook(rec, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


@contextmanager
def instrumented(rec: Recorder, package):
    """Wrap every target in every loaded module of ``package``; undo on exit.

    A module that imported a function by name holds its own reference,
    so each module attribute that *is* the original function is rebound.
    """
    prefix = package.__name__
    modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
    no_convergence = package.errors.NoConvergence
    undo = []
    for mod_name, fn_name, span_name, hook in TARGETS:
        original = getattr(getattr(package, mod_name), fn_name)
        failures = no_convergence if fn_name == "spectral_radius" else ()
        wrapper = _wrap(rec, span_name, original, hook, failures, "line_graph.spectral_failures")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
    params_cls = package.entropy.EntropyParams
    for_graph = params_cls.__dict__["for_graph"]
    params_cls.for_graph = classmethod(
        _wrap(rec, "entropy.params", for_graph.__func__, None, (), "")
    )
    undo.append((params_cls, "for_graph", for_graph))
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
