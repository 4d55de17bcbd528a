"""Entropy of discrete distributions driven by a graph's zeta series.

The zeta series, rescaled by a parameter ``a`` inside its convergence
radius, yields a power series in ``t`` with zero constant term and unit
linear term. That series is a formal group logarithm: substituting
``t = log(1/p)`` gives the per-event weight

    g(p) = (zeta(a) + 1 - zeta(a p) - p) / (1 + a zeta'(a))

and the entropy of ``{p_i}`` is ``sum p_i g(p_i)``. The compositional
inverse of the logarithm defines a Lazard formal group law, which is
exactly the composition rule of this entropy over independent systems.
The zeta values inside ``g`` use the exact determinant evaluator, so
series truncation never touches the primary numbers; the truncated
series paths exist for cross-checks.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .errors import InputError, InvalidDistribution, InvalidParams, NegativeEntropyTerm
from .graph import Graph, orientations
from .line_graph import SpectralRadius, build_line_graph
from .series import (
    BivariateTruncatedSeries,
    TruncatedPowerSeries,
    lazard_law,
    ps_inverse_composition,
)
from .zeta import ZetaSeries, build_zeta_series, zeta_derivative_exact, zeta_eval_exact

_SUM_TOLERANCE = 1e-12
# Per-event weights are nonnegative by monotonicity of the zeta series;
# anything below this is treated as floating-point dust and clamped.
_NEGATIVE_DUST = 1e-9


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Finite vector of nonnegative reals summing to one."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        if not self.probabilities:
            raise InvalidDistribution("empty distribution")
        if any(p < 0.0 for p in self.probabilities):
            raise InvalidDistribution("negative probability")
        total = math.fsum(self.probabilities)
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise InvalidDistribution(f"probabilities sum to {total}, not 1")

    @classmethod
    def from_values(cls, values) -> ProbabilityDistribution:
        return cls(tuple(float(v) for v in values))

    @classmethod
    def uniform(cls, w: int) -> ProbabilityDistribution:
        if w < 1:
            raise InvalidDistribution("need at least one event")
        return cls(tuple([1.0 / w] * w))

    def __iter__(self):
        return iter(self.probabilities)

    def __len__(self) -> int:
        return len(self.probabilities)


def parse_distribution(text: str) -> ProbabilityDistribution:
    """Read a distribution from a JSON array or whitespace-separated text."""
    stripped = text.strip()
    if not stripped:
        raise InputError("empty distribution input")
    try:
        values = json.loads(stripped)
        if not isinstance(values, list):
            raise InputError("JSON distribution must be an array")
    except json.JSONDecodeError:
        try:
            values = [float(token) for token in stripped.split()]
        except ValueError as exc:
            raise InputError(f"non-numeric token in distribution: {exc}") from None
    try:
        return ProbabilityDistribution.from_values(values)
    except (TypeError, ValueError):
        raise InputError("distribution entries must be numbers") from None


def _as_fraction_or_float(value):
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    return float(value)


def resolve_scale(spectral: SpectralRadius, a=None, a_frac=None):
    """Resolve the scaling factor from either ``a`` or ``a_frac``.

    ``a_frac`` means ``a = a_frac / lambda``; the default is 1/2, the
    midpoint of the valid interval. Exact inputs stay exact whenever
    lambda itself is a whole number, so regular graphs keep the whole
    series pipeline rational.
    """
    if a is not None and a_frac is not None:
        raise InvalidParams("give either a or a_frac, not both")
    if a is not None:
        return _as_fraction_or_float(a)
    frac = _as_fraction_or_float(a_frac if a_frac is not None else Fraction(1, 2))
    lam = spectral.value
    if isinstance(frac, Fraction) and lam.is_integer():
        return frac / int(lam)
    return float(frac) / lam


@dataclass(frozen=True)
class EntropyParams:
    """Scaling factor, truncation order and the zeta series they act on.

    The constraint ``0 < a < 1/lambda`` keeps every ``a p`` with
    ``p in [0, 1]`` inside the zeta domain.
    """

    a: Fraction | float
    zeta: ZetaSeries
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise InvalidParams("order must be at least 1")
        af = float(self.a)
        limit = self.zeta.spectral.x_limit
        if not 0.0 < af < limit:
            raise InvalidParams(f"a={af} outside (0, {limit}) for this graph")

    @classmethod
    def for_graph(
        cls,
        graph: Graph,
        a=None,
        a_frac=None,
        order: int = 32,
        tol: float = 1e-12,
    ) -> EntropyParams:
        """Build the whole chain graph -> line graph -> zeta -> params."""
        olg = build_line_graph(orientations(graph))
        zs = build_zeta_series(olg, order=order, tol=tol)
        return cls(a=resolve_scale(zs.spectral, a=a, a_frac=a_frac), zeta=zs, order=order)

    @cached_property
    def zeta_at_a(self) -> float:
        return zeta_eval_exact(
            self.zeta.line_graph, float(self.a), spectral=self.zeta.spectral
        )

    @cached_property
    def zeta_slope_at_a(self) -> float:
        return zeta_derivative_exact(
            self.zeta.line_graph, float(self.a), spectral=self.zeta.spectral
        )

    @cached_property
    def normalizer(self) -> float:
        """The denominator ``1 + a zeta'(a)`` shared by every weight."""
        return 1.0 + float(self.a) * self.zeta_slope_at_a

    @cached_property
    def log_series(self) -> TruncatedPowerSeries:
        return formal_group_log_series(self)

    @cached_property
    def log_series_inverse(self) -> TruncatedPowerSeries:
        return ps_inverse_composition(self.log_series)

    @cached_property
    def lazard_numeric(self) -> BivariateTruncatedSeries:
        """Float group law used by the joint-entropy cross-check."""
        g_float = self.log_series.map_coeffs(float)
        f_float = self.log_series_inverse.map_coeffs(float)
        return lazard_law(g_float, f_float, self.order)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy value with its per-event terms and parameter echo."""

    entropy: float
    terms: tuple[float, ...]
    a: float
    order: int
    lam: float


@dataclass(frozen=True)
class JointEntropyCheck:
    direct: float
    via_phi: float
    delta: float


def g_of_log_inv_p(p, params: EntropyParams) -> float:
    """Group logarithm evaluated at ``log(1/p)`` through the closed form.

    The grouping ``(zeta(a) - zeta(ap)) + (1 - p)`` makes both halves
    individually nonnegative and returns exactly 0.0 at p = 1.

    Raises:
        InvalidParams: p outside [0, 1].
    """
    pf = float(p)
    if not 0.0 <= pf <= 1.0:
        raise InvalidParams(f"probability {pf} outside [0, 1]")
    z_ap = zeta_eval_exact(
        params.zeta.line_graph, float(params.a) * pf, spectral=params.zeta.spectral
    )
    return ((params.zeta_at_a - z_ap) + (1.0 - pf)) / params.normalizer


def term_s(p, params: EntropyParams) -> float:
    """Per-event entropy contribution ``p * g(log(1/p))``; 0 at both ends."""
    pf = float(p)
    return pf * g_of_log_inv_p(pf, params)


def term_slope(p, params: EntropyParams) -> float:
    """Scaled derivative of :func:`term_s`, strictly decreasing in p.

    Equals ``1 + zeta(a) - 2p - zeta(ap) - a p zeta'(ap)``, positive at
    0 and negative at 1, so its unique root is the interior maximizer
    of the per-event term.
    """
    pf = float(p)
    if not 0.0 <= pf <= 1.0:
        raise InvalidParams(f"probability {pf} outside [0, 1]")
    af = float(params.a)
    olg = params.zeta.line_graph
    z_ap = zeta_eval_exact(olg, af * pf, spectral=params.zeta.spectral)
    dz_ap = zeta_derivative_exact(olg, af * pf, spectral=params.zeta.spectral)
    return (params.zeta_at_a - z_ap) + (1.0 - 2.0 * pf) - af * pf * dz_ap


def maximizer(params: EntropyParams, tol: float = 1e-12, max_iterations: int = 200) -> float:
    """Unique root of :func:`term_slope` in (0, 1) by bisection.

    The slope is strictly decreasing with a sign change over (0, 1), so
    bisection cannot fail; it stops once ``|slope| <= tol`` (tolerances
    below float resolution simply exhaust the iteration budget and
    return the midpoint).
    """
    if tol <= 0:
        raise InvalidParams("tol must be positive")
    lo, hi = 0.0, 1.0
    mid = 0.5
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        value = term_slope(mid, params)
        if abs(value) <= tol:
            return mid
        if value > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def ihara_entropy(dist: ProbabilityDistribution, params: EntropyParams) -> EntropyReport:
    """Total entropy ``sum_i term_s(p_i)`` with compensated summation.

    Raises:
        NegativeEntropyTerm: a term is negative beyond float dust, which
            the monotonicity of the zeta series rules out.
    """
    if not isinstance(dist, ProbabilityDistribution):
        dist = ProbabilityDistribution.from_values(dist)
    terms = []
    for p in dist:
        raw = term_s(p, params)
        if not raw >= -_NEGATIVE_DUST:
            raise NegativeEntropyTerm(f"entropy term {raw} at p={p}")
        terms.append(max(raw, 0.0))
    return EntropyReport(
        entropy=math.fsum(terms),
        terms=tuple(terms),
        a=float(params.a),
        order=params.order,
        lam=params.zeta.spectral.value,
    )


def joint_entropy_check(
    dist_a: ProbabilityDistribution,
    dist_b: ProbabilityDistribution,
    params: EntropyParams,
) -> JointEntropyCheck:
    """Compare the joint entropy against its group-law composition.

    ``direct`` evaluates the entropy of the product distribution
    ``p_i q_j``; ``via_phi`` sums ``p_i q_j Phi(g(p_i), g(q_j))`` with
    the truncated Lazard law. The identity behind them is exact, so the
    reported delta measures series truncation only.
    """
    product = ProbabilityDistribution(
        tuple(pa * pb for pa in dist_a for pb in dist_b)
    )
    direct = ihara_entropy(product, params).entropy
    phi = params.lazard_numeric
    weights_a = [(pa, g_of_log_inv_p(pa, params)) for pa in dist_a]
    weights_b = [(pb, g_of_log_inv_p(pb, params)) for pb in dist_b]
    via = math.fsum(
        pa * pb * phi.eval(sa, sb) for pa, sa in weights_a for pb, sb in weights_b
    )
    return JointEntropyCheck(direct=direct, via_phi=via, delta=abs(direct - via))


def formal_group_log_series(params: EntropyParams) -> TruncatedPowerSeries:
    """Group logarithm as a truncated series in ``t``.

    Substituting ``x = a e^{-t}`` into the truncated zeta series and
    normalizing by ``-(1 + a zeta'(a))`` gives a series with zero
    constant coefficient and unit linear coefficient (exactly so for
    rational ``a``, since the normalizer is evaluated on the same
    truncated polynomial). Expansion is organized as

        sum_k c_k a^k (e^{-kt} - 1)  +  (e^{-t} - 1)

    so no composition with a nonzero-constant inner series is needed:
    for ``j >= 1`` the coefficient of ``t^j`` is
    ``(-1)^j/j! + sum_k (-k)^j/j! c_k a^k``, built one at a time.
    """
    a = params.a
    zseries = params.zeta.series
    slope_at_a = zseries.derivative().eval(a)
    normalizer = 1 + a * slope_at_a
    if isinstance(normalizer, Fraction):
        factor = -1 / normalizer
    else:
        factor = -1.0 / float(normalizer)
    weights = [
        (k, c_k * a**k)
        for k, c_k in enumerate(zseries.coeffs)
        if k >= 2 and c_k
    ]
    coeffs = [0 * factor]  # every e^{-kt} - 1 vanishes at t = 0
    for j in range(1, params.order + 1):
        fact = factorial(j)
        coeff = Fraction((-1) ** j, fact)
        for k, weight in weights:
            coeff = coeff + Fraction((-k) ** j, fact) * weight
        coeffs.append(coeff * factor)
    return TruncatedPowerSeries(tuple(coeffs))


def shannon_entropy(dist: ProbabilityDistribution) -> float:
    """Reference entropy ``-sum p log p`` in nats; zero events contribute 0."""
    if not isinstance(dist, ProbabilityDistribution):
        dist = ProbabilityDistribution.from_values(dist)
    return -math.fsum(p * math.log(p) for p in dist if p > 0.0)


def tsallis_entropy(dist: ProbabilityDistribution, q: float) -> float:
    """Reference entropy ``(1 - sum p^q) / (q - 1)`` for ``q != 1``.

    Evaluated through ``expm1`` so values of q close to 1 do not lose
    the cancellation against the Shannon limit.

    Raises:
        InvalidParams: q equals 1.
    """
    if not isinstance(dist, ProbabilityDistribution):
        dist = ProbabilityDistribution.from_values(dist)
    qf = float(q)
    if qf == 1.0:
        raise InvalidParams("Tsallis entropy needs q != 1")
    total = math.fsum(dist)
    excess = math.fsum(p * math.expm1((qf - 1.0) * math.log(p)) for p in dist if p > 0.0)
    return ((1.0 - total) - excess) / (qf - 1.0)
