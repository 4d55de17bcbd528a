"""Reference implementations of the line graph and the exact kernels.

The dense 0/1 matrix T straight from its defining predicate
(O((2m)^2)), the traces of T^k by K integer powers of the (2m)x(2m)
matrix, an order-by-order compositional inverse, which recomposes the
partial inverse for every coefficient (O(N^4)), and the Lazard law by N
bivariate Horner steps. They are slow but plainly correct, so the tests
compare the package's successor lists, vertex-space traces, Lagrange
inversion and power-table Lazard law against them entry for entry.
"""
from __future__ import annotations

from fractions import Fraction

from iharazeta.errors import NotInvertible
from iharazeta.graph import DirectedEdgeSet
from iharazeta.line_graph import OrientedLineGraph
from iharazeta.series import (
    BivariateTruncatedSeries,
    TruncatedPowerSeries,
    ps_compose,
)


def dense_line_graph(des: DirectedEdgeSet) -> tuple[tuple[int, ...], ...]:
    """Dense rows of T, one predicate test per entry.

    ``T[i][j] = 1`` exactly when ``heads[i] == tails[j]`` and
    ``tails[i] != heads[j]``.
    """
    heads, tails = des.heads, des.tails
    return tuple(
        tuple(
            1 if heads[i] == tails[j] and tails[i] != heads[j] else 0
            for j in range(des.size)
        )
        for i in range(des.size)
    )


def traces_by_line_graph_powers(olg: OrientedLineGraph, K: int) -> tuple[int, ...]:
    """``trace(T^k)`` for k = 1..K from powers of T in Python integers.

    Each step multiplies the running power by T through the successor
    lists: O((2m)^2 (d - 1)) additions per power.
    """
    size = olg.size
    succ = olg.successors
    power = [[0] * size for _ in range(size)]
    for i, row in enumerate(succ):
        for j in row:
            power[i][j] = 1
    values = []
    for _ in range(K):
        values.append(sum(power[i][i] for i in range(size)))
        nxt = [[0] * size for _ in range(size)]
        for i in range(size):
            row = power[i]
            out = nxt[i]
            for k in range(size):
                entry = row[k]
                if entry:
                    for j in succ[k]:
                        out[j] += entry
        power = nxt
    return tuple(values)


def inverse_composition_order_by_order(t: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Compositional inverse solved one coefficient at a time.

    Adding ``d x^n`` to F shifts the n-th coefficient of T(F) by
    ``t_1 d``, so each residual is cancelled directly; the partial
    inverse is recomposed for every coefficient.
    """
    if t.coeffs[0] != 0:
        raise NotInvertible("series with nonzero constant term has no inverse")
    if t.coeffs[1] == 0:
        raise NotInvertible("series with zero linear coefficient has no inverse")
    t1 = t.coeffs[1]
    inv_t1 = Fraction(1, t1) if isinstance(t1, int) else 1 / t1
    n = t.order
    out = [0] * (n + 1)
    out[1] = inv_t1
    for k in range(2, n + 1):
        partial = TruncatedPowerSeries(tuple(out[: k + 1]))
        comp = ps_compose(t.truncate(k), partial)
        out[k] = -comp.coeffs[k] * inv_t1
    return TruncatedPowerSeries(tuple(out))


def lazard_horner(
    g: TruncatedPowerSeries, f: TruncatedPowerSeries, order: int
) -> BivariateTruncatedSeries:
    """``G(F(s1) + F(s2))`` by Horner's rule over bivariate series.

    Unlike the package's ``lazard_law`` this does not check that the
    pair is inverse, so it also accepts exactly lifted float pairs.
    """
    gt = g.truncate(order)
    ft = f.truncate(order)
    summed = BivariateTruncatedSeries.embed_first(
        ft, order
    ) + BivariateTruncatedSeries.embed_second(ft, order)
    res = BivariateTruncatedSeries.zero(order) + gt.coeffs[order]
    for k in range(order - 1, -1, -1):
        res = res * summed + gt.coeffs[k]
    return res
