"""Zeta series of a graph: exact coefficients, evaluation, oracles.

The series is ``exp(sum_k trace(T^k) x^k / k)`` with exact rational
coefficients, convergent for ``0 <= x < 1/lambda``. Evaluation comes in
two independent flavors: Horner on the truncated coefficients (with a
reported tail bound) and the closed form ``1/det(I - xT)``, which needs
no truncation and therefore serves as the exact oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InsufficientTraces, OutOfDomain, SingularMatrix
from .line_graph import (
    OrientedLineGraph,
    SpectralRadius,
    TraceVector,
    spectral_radius,
    traces,
)
from .series import TruncatedPowerSeries, ps_exp

# Multiplicative slack on the analytic tail majorant plus an absolute
# floor covering float rounding in Horner and in the determinant.
_TAIL_SAFETY = 1.0 + 1e-7
_FLOAT_SLACK = 1e-12


def zeta_coefficients(tv: TraceVector, order: int) -> TruncatedPowerSeries:
    """Exact rational coefficients of ``exp(sum trace(T^k) x^k / k)``.

    Raises:
        InsufficientTraces: fewer traces available than ``order``.
    """
    if tv.K < order:
        raise InsufficientTraces(f"need {order} traces, have {tv.K}")
    log_series = TruncatedPowerSeries(
        (0,) + tuple(Fraction(tv.values[k - 1], k) for k in range(1, order + 1))
    )
    return ps_exp(log_series)


@dataclass(frozen=True)
class ZetaSeries:
    """Truncated zeta series bound to its line graph and Perron root."""

    series: TruncatedPowerSeries
    spectral: SpectralRadius
    line_graph: OrientedLineGraph

    def __post_init__(self):
        coeffs = self.series.coeffs
        if coeffs[0] != 1:
            raise ValueError("constant coefficient must be 1")
        if len(coeffs) > 1 and coeffs[1] != 0:
            raise ValueError("linear coefficient must vanish (no loops)")
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")

    @property
    def order(self) -> int:
        return self.series.order

    @property
    def coeffs(self) -> tuple:
        return self.series.coeffs

    @cached_property
    def float_series(self) -> TruncatedPowerSeries:
        return self.series.map_coeffs(float)


class ZetaEvaluation(NamedTuple):
    value: float
    tail_bound: float


def build_zeta_series(
    olg: OrientedLineGraph, order: int = 32, tol: float = 1e-12
) -> ZetaSeries:
    """Traces, Perron root and exact coefficients in one step."""
    tv = traces(olg, order)
    spectral = spectral_radius(olg, tol=tol)
    return ZetaSeries(
        series=zeta_coefficients(tv, order), spectral=spectral, line_graph=olg
    )


def _require_domain(x: float, limit: float) -> None:
    if not 0.0 <= x < limit:
        raise OutOfDomain(f"x={x} outside [0, {limit})")


def zeta_eval_exact(
    olg: OrientedLineGraph, x, *, spectral: SpectralRadius | None = None
) -> float:
    """Closed-form value ``1/det(I - xT)`` by pivoted LU elimination.

    Mathematically equal to the full series at every in-domain x, with
    no truncation error, which makes it the reference for every other
    evaluation path.

    Raises:
        OutOfDomain: x outside the guarded interval.
        SingularMatrix: determinant vanished or changed sign, which the
            domain guard should have excluded.
    """
    if spectral is None:
        spectral = spectral_radius(olg)
    xf = float(x)
    _require_domain(xf, spectral.x_limit)
    matrix = np.eye(olg.size) - xf * olg.matrix
    sign, logdet = np.linalg.slogdet(matrix)
    if sign <= 0:
        raise SingularMatrix(f"det(I - xT) not positive at x={xf}")
    return math.exp(-logdet)


def zeta_derivative_exact(
    olg: OrientedLineGraph, x, *, spectral: SpectralRadius | None = None
) -> float:
    """Derivative of the closed form: ``zeta(x) * trace((I - xT)^-1 T)``."""
    if spectral is None:
        spectral = spectral_radius(olg)
    xf = float(x)
    _require_domain(xf, spectral.x_limit)
    matrix = np.eye(olg.size) - xf * olg.matrix
    resolvent_t = np.linalg.solve(matrix, olg.matrix)
    return zeta_eval_exact(olg, xf, spectral=spectral) * float(np.trace(resolvent_t))


def zeta_tail_bound(zs: ZetaSeries, x) -> float:
    """Upper bound on the dropped series tail at ``x``.

    Every coefficient is nonnegative, so ``c_k <= zeta(r)/r^k`` for any
    in-domain ``r > x`` (Cauchy majorant; the trace growth bound
    ``trace(T^k) <= 2m lambda^k`` is what guarantees the radius is
    ``1/lambda`` in the first place). The reported bound evaluates the
    majorant at an ``r`` between ``x`` and the domain edge and adds a
    small absolute allowance for float rounding.
    """
    xf = float(x)
    limit = zs.spectral.x_limit
    _require_domain(xf, limit)
    if xf == 0.0:
        return _FLOAT_SLACK
    r = max(0.9 * limit, 0.5 * (xf + limit))
    ratio = xf / r
    zr = zeta_eval_exact(zs.line_graph, r, spectral=zs.spectral)
    analytic = zr * ratio ** (zs.order + 1) / (1.0 - ratio) * _TAIL_SAFETY
    return analytic + _FLOAT_SLACK


def zeta_eval_series(zs: ZetaSeries, x) -> ZetaEvaluation:
    """Horner evaluation of the truncated series plus its tail bound.

    Raises:
        OutOfDomain: x outside ``[0, spectral.x_limit)``.
    """
    xf = float(x)
    _require_domain(xf, zs.spectral.x_limit)
    acc = zs.float_series.eval(xf)
    bound = zeta_tail_bound(zs, xf) + _FLOAT_SLACK * abs(acc)
    return ZetaEvaluation(value=acc, tail_bound=bound)


def zeta_derivative(zs: ZetaSeries, x) -> float:
    """Derivative of the truncated series at ``x``; nonnegative on the domain.

    Raises:
        OutOfDomain: x outside ``[0, spectral.x_limit)``.
    """
    xf = float(x)
    _require_domain(xf, zs.spectral.x_limit)
    return zs.float_series.derivative().eval(xf)
