"""Truncated formal power series and the bivariate Lazard group law.

Univariate series hold coefficients ``a_0..a_N`` and every operation is
exact modulo ``x^(N+1)``. Coefficients may be ``int``/``Fraction`` (then
all results stay exact rationals) or ``float``. The compositional
inverse and the Lazard law lift float coefficients to the rationals
they hold, compute exactly in integers and round each result once.
Bivariate series are stored densely over total degree, which is cheap
at the orders used here and keeps the group-law axiom checks
straightforward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    InnerConstantNonzero,
    InversePairMismatch,
    NonzeroConstantTerm,
    NotInvertible,
    OrderMismatch,
)


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def _div(value, k: int):
    # Exact coefficients must not decay to float under integer division.
    if isinstance(value, int):
        return Fraction(value, k)
    return value / k


def _common_denominator(coeffs) -> tuple[list[int], int]:
    """Integers ``P`` and ``D`` with ``coeffs[k] == P[k] / D`` exactly.

    ``D`` is the least common multiple of the denominators. Floats are
    lifted to the exact rational they hold, so float input runs through
    the same integer arithmetic as rational input.
    """
    lifted = [Fraction(c) for c in coeffs]
    den = 1
    for c in lifted:
        den = math.lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in lifted], den


def _ratio(num: int, den: int, exact: bool):
    # Float results are rounded once, from the exact ratio.
    return Fraction(num, den) if exact else num / den


@dataclass(frozen=True)
class TruncatedPowerSeries:
    """Coefficients ``a_0..a_N`` of a series truncated at order N."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least its constant coefficient")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, order: int) -> TruncatedPowerSeries:
        items = list(coeffs)[: order + 1]
        items.extend([0] * (order + 1 - len(items)))
        return cls(tuple(items))

    @classmethod
    def zero(cls, order: int) -> TruncatedPowerSeries:
        return cls.from_coeffs([], order)

    @classmethod
    def one(cls, order: int) -> TruncatedPowerSeries:
        return cls.from_coeffs([1], order)

    @classmethod
    def identity(cls, order: int) -> TruncatedPowerSeries:
        return cls.from_coeffs([0, 1], order)

    @classmethod
    def constant(cls, value, order: int) -> TruncatedPowerSeries:
        return cls.from_coeffs([value], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        return self.coeffs[k]

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.coeffs)

    def _check_order(self, other: TruncatedPowerSeries) -> None:
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")

    def __add__(self, other):
        if isinstance(other, TruncatedPowerSeries):
            self._check_order(other)
            return TruncatedPowerSeries(
                tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
            )
        head = self.coeffs[0] + other
        return TruncatedPowerSeries((head,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedPowerSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, TruncatedPowerSeries):
            self._check_order(other)
            return TruncatedPowerSeries(
                tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
            )
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedPowerSeries):
            return self.scale(other)
        self._check_order(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedPowerSeries(tuple(out))

    __rmul__ = __mul__

    def scale(self, factor):
        return TruncatedPowerSeries(tuple(c * factor for c in self.coeffs))

    def truncate(self, order: int) -> TruncatedPowerSeries:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedPowerSeries(self.coeffs[: order + 1])

    def derivative(self) -> TruncatedPowerSeries:
        if self.order == 0:
            return TruncatedPowerSeries((0,))
        return TruncatedPowerSeries(
            tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1)
        )

    def map_coeffs(self, fn) -> TruncatedPowerSeries:
        return TruncatedPowerSeries(tuple(fn(c) for c in self.coeffs))

    def eval(self, x):
        """Horner evaluation; exact when coefficients and x are exact."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc


def ps_exp(s: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """exp of a series with zero constant term.

    Uses the recurrence from ``(exp S)' = S' exp S``:
    ``k e_k = sum_{j=1..k} j s_j e_{k-j}`` with ``e_0 = 1``, which keeps
    rational inputs exactly rational.

    Raises:
        NonzeroConstantTerm: ``s`` has a nonzero constant coefficient.
    """
    if s.coeffs[0] != 0:
        raise NonzeroConstantTerm("exp needs a zero constant term")
    n = s.order
    out = [0] * (n + 1)
    out[0] = 1
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, k + 1):
            sj = s.coeffs[j]
            if sj:
                acc = acc + j * sj * out[k - j]
        out[k] = _div(acc, k)
    return TruncatedPowerSeries(tuple(out))


def ps_compose(s: TruncatedPowerSeries, t: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """S(T(x)) modulo ``x^(N+1)`` by Horner over truncated series.

    Raises:
        InnerConstantNonzero: the inner series has a nonzero constant
            term, so the composition is not a formal power series
            operation.
    """
    s._check_order(t)
    if t.coeffs[0] != 0:
        raise InnerConstantNonzero("inner series must have zero constant term")
    res = TruncatedPowerSeries.constant(s.coeffs[-1], s.order)
    for k in range(s.order - 1, -1, -1):
        res = res * t + s.coeffs[k]
    return res


def ps_inverse_composition(t: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Compositional inverse F with ``F(T(x)) = T(F(x)) = x`` mod x^(N+1).

    The classical criterion asks for a unit linear coefficient; any
    nonzero linear coefficient is supported here, which is an extension
    of that criterion.

    Lagrange inversion gives ``[x^m]F = (1/m) [t^(m-1)] h(t)^m`` with
    ``h = t / T(t)`` (Brent and Kung, J. ACM 1978, section 1). Writing
    ``T = P / D`` with integer ``P_k`` and ``D`` the lcm of the
    denominators, ``R_k = P_1^(k+1) [t^k] h(t) / D`` is an integer and
    ``[x^m]F = D^m [t^(m-1)] R^m / (m P_1^(2m-1))``. The powers ``R^m``
    come from repeated truncated products, so the whole inverse costs
    O(N^3) integer operations and one gcd per coefficient. Float
    coefficients are lifted exactly and each result is rounded once.

    Raises:
        NotInvertible: nonzero constant term or vanishing linear term.
    """
    if t.coeffs[0] != 0:
        raise NotInvertible("series with nonzero constant term has no inverse")
    if t.coeffs[1] == 0:
        raise NotInvertible("series with zero linear coefficient has no inverse")
    exact = t.is_exact()
    p, den = _common_denominator(t.coeffs)
    n = t.order
    p1 = p[1]
    # From (sum_i P_(i+1) t^i) * h = D: R_0 = 1 and, scaled by P_1^k,
    # R_k = -sum_{i=1..k} P_(i+1) P_1^(i-1) R_(k-i).
    p1_powers = [1]
    for _ in range(n):
        p1_powers.append(p1_powers[-1] * p1)
    r = [1] + [0] * (n - 1)
    for k in range(1, n):
        r[k] = -sum(p[i + 1] * p1_powers[i - 1] * r[k - i] for i in range(1, k + 1))
    r_series = TruncatedPowerSeries(tuple(r))
    power = r_series
    out = [0] * (n + 1)
    for m in range(1, n + 1):
        if m > 1:
            power = power * r_series
        out[m] = _ratio(den**m * power.coeffs[m - 1], m * p1 ** (2 * m - 1), exact)
    return TruncatedPowerSeries(tuple(out))


@dataclass(frozen=True)
class BivariateTruncatedSeries:
    """Coefficients ``c[i][j]`` of ``s1^i s2^j`` for ``i + j <= N``.

    Row ``i`` has length ``N + 1 - i`` (dense triangular storage).
    """

    coeffs: tuple

    def __post_init__(self):
        n = len(self.coeffs) - 1
        for i, row in enumerate(self.coeffs):
            if len(row) != n + 1 - i:
                raise ValueError("triangular storage is ragged")

    @classmethod
    def zero(cls, order: int) -> BivariateTruncatedSeries:
        return cls(tuple(tuple([0] * (order + 1 - i)) for i in range(order + 1)))

    @classmethod
    def embed_first(
        cls, series: TruncatedPowerSeries, order: int
    ) -> BivariateTruncatedSeries:
        """Univariate series read as a polynomial in the first variable."""
        rows = [[0] * (order + 1 - i) for i in range(order + 1)]
        for i, c in enumerate(series.coeffs[: order + 1]):
            rows[i][0] = c
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def embed_second(
        cls, series: TruncatedPowerSeries, order: int
    ) -> BivariateTruncatedSeries:
        rows = [[0] * (order + 1 - i) for i in range(order + 1)]
        for j, c in enumerate(series.coeffs[: order + 1]):
            rows[0][j] = c
        return cls(tuple(tuple(row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int, j: int):
        return self.coeffs[i][j]

    def is_exact(self) -> bool:
        return all(_is_exact(c) for row in self.coeffs for c in row)

    def _check_order(self, other: BivariateTruncatedSeries) -> None:
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")

    def __add__(self, other):
        if isinstance(other, BivariateTruncatedSeries):
            self._check_order(other)
            return BivariateTruncatedSeries(
                tuple(
                    tuple(a + b for a, b in zip(r1, r2))
                    for r1, r2 in zip(self.coeffs, other.coeffs)
                )
            )
        rows = [list(row) for row in self.coeffs]
        rows[0][0] = rows[0][0] + other
        return BivariateTruncatedSeries(tuple(tuple(row) for row in rows))

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, BivariateTruncatedSeries):
            return self.scale(other)
        self._check_order(other)
        n = self.order
        rows = [[0] * (n + 1 - i) for i in range(n + 1)]
        for i1, row1 in enumerate(self.coeffs):
            for j1, c1 in enumerate(row1):
                if not c1:
                    continue
                room = n - i1 - j1
                for i2 in range(room + 1):
                    row2 = other.coeffs[i2]
                    for j2 in range(min(len(row2) - 1, room - i2) + 1):
                        c2 = row2[j2]
                        if c2:
                            rows[i1 + i2][j1 + j2] += c1 * c2
        return BivariateTruncatedSeries(tuple(tuple(row) for row in rows))

    __rmul__ = __mul__

    def scale(self, factor):
        return BivariateTruncatedSeries(
            tuple(tuple(c * factor for c in row) for row in self.coeffs)
        )

    def eval(self, s1, s2):
        """Polynomial evaluation, Horner in each variable."""
        total = 0
        for row in reversed(self.coeffs):
            inner = row[-1]
            for c in reversed(row[:-1]):
                inner = inner * s2 + c
            total = total * s1 + inner
        return total


def _identity_deviation(series: TruncatedPowerSeries) -> float:
    ident = TruncatedPowerSeries.identity(series.order)
    return max(abs(a - b) for a, b in zip(series.coeffs, ident.coeffs))


def lazard_law(
    g: TruncatedPowerSeries, f: TruncatedPowerSeries, order: int
) -> BivariateTruncatedSeries:
    """Bivariate group law ``Phi(s1, s2) = G(F(s1) + F(s2))``.

    ``f`` must be the compositional inverse of ``g`` at least to the
    requested total-degree ``order``; both may be given at a higher
    order and are truncated. With exact coefficients the inverse-pair
    check is exact; with floats a small tolerance is applied.

    Expanding ``(F(s1) + F(s2))^k`` binomially gives
    ``Phi = Pow^T M Pow`` with the power table ``Pow[j][a] = [x^a]F^j``
    and ``M[j][l] = C(j+l, j) g_(j+l)``. The table costs O(N^3) and so
    do the two triangular matrix products, which run in integers with
    each column of the table over its own common denominator and one gcd
    per coefficient. Float coefficients are lifted exactly and each
    result is rounded once.

    Raises:
        InversePairMismatch: ``g(f(x))`` is not the identity modulo
            ``x^(order+1)``.
    """
    gt = g.truncate(min(order, g.order)) if g.order > order else g
    ft = f.truncate(min(order, f.order)) if f.order > order else f
    if gt.order != order or ft.order != order:
        raise OrderMismatch("inputs shorter than the requested order")
    comp = ps_compose(gt, ft)
    exact = gt.is_exact() and ft.is_exact()
    if exact:
        if comp != TruncatedPowerSeries.identity(order):
            raise InversePairMismatch("G(F(x)) != x in exact arithmetic")
    else:
        scale = max(1.0, max(abs(float(c)) for c in gt.coeffs + ft.coeffs))
        if _identity_deviation(comp) > 1e-8 * scale:
            raise InversePairMismatch("G(F(x)) deviates from x beyond tolerance")
    gn, gden = _common_denominator(gt.coeffs)
    n = order
    lifted = ft.map_coeffs(Fraction)
    powers = [TruncatedPowerSeries.one(n)]
    for _ in range(n):
        powers.append(powers[-1] * lifted)
    # Column a of the power table over its own common denominator:
    # [x^a]F^j = pw[a][j] / col_den[a] for j <= a; it vanishes for j > a.
    pw, col_den = zip(
        *(_common_denominator(powers[j].coeffs[a] for j in range(a + 1)) for a in range(n + 1))
    )
    # q[j][b] = sum_l M[j][l] [x^b]F^l, up to the factor gden col_den[b].
    q = [
        [
            sum(math.comb(j + l, j) * gn[j + l] * pw[b][l] for l in range(b + 1))
            for b in range(n + 1 - j)
        ]
        for j in range(n + 1)
    ]
    return BivariateTruncatedSeries(
        tuple(
            tuple(
                _ratio(
                    sum(pw[a][j] * q[j][b] for j in range(a + 1)),
                    gden * col_den[a] * col_den[b],
                    exact,
                )
                for b in range(n + 1 - a)
            )
            for a in range(n + 1)
        )
    )


def group_law_report(phi: BivariateTruncatedSeries, atol=0) -> dict[str, bool]:
    """Check the formal group axioms coefficientwise up to total degree N.

    Keys: ``leading`` (Phi = s1 + s2 + higher order), ``unit``
    (Phi(s, 0) = Phi(0, s) = s), ``commutativity`` and
    ``associativity``. ``atol=0`` demands exact equality, which is the
    right setting for rational coefficients; pass a small tolerance for
    float series.

    Associativity compares Phi(Phi(x,y),z) against Phi(x,Phi(y,z)). Both
    sides only need powers of Phi itself: the coefficient of
    ``x^a y^b z^c`` is ``sum_i phi[i][c] * (Phi^i)[a][b]`` on the left
    and ``sum_j phi[a][j] * (Phi^j)[b][c]`` on the right.
    """
    n = phi.order

    def close(x, y) -> bool:
        if atol == 0:
            return x == y
        return abs(x - y) <= atol

    leading = (
        close(phi.coeff(0, 0), 0)
        and close(phi.coeff(1, 0), 1)
        and close(phi.coeff(0, 1), 1)
    )
    unit = all(
        close(phi.coeff(i, 0), 1 if i == 1 else 0) for i in range(n + 1)
    ) and all(close(phi.coeff(0, j), 1 if j == 1 else 0) for j in range(n + 1))
    commutative = all(
        close(phi.coeff(i, j), phi.coeff(j, i))
        for i in range(n + 1)
        for j in range(n + 1 - i)
    )

    powers = [BivariateTruncatedSeries.zero(n) + 1]
    for _ in range(n):
        powers.append(powers[-1] * phi)

    associative = True
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for c in range(n + 1 - a - b):
                lhs = 0
                for i in range(n + 1 - c):
                    q = phi.coeff(i, c)
                    if q:
                        lhs = lhs + q * powers[i].coeff(a, b)
                rhs = 0
                for j in range(n + 1 - a):
                    q = phi.coeff(a, j)
                    if q:
                        rhs = rhs + q * powers[j].coeff(b, c)
                if not close(lhs, rhs):
                    associative = False
    return {
        "leading": leading,
        "unit": unit,
        "commutativity": commutative,
        "associativity": associative,
    }
