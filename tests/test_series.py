"""Truncated series arithmetic, composition, inversion, group law."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iharazeta as iz
from iharazeta.errors import (
    InnerConstantNonzero,
    InversePairMismatch,
    NonzeroConstantTerm,
    NotInvertible,
    OrderMismatch,
)
from iharazeta.series import BivariateTruncatedSeries, TruncatedPowerSeries

import oracles

F = Fraction


def series(*coeffs, order=None):
    if order is None:
        order = len(coeffs) - 1
    return TruncatedPowerSeries.from_coeffs(coeffs, order)


small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)


def series_strategy(order, first_zero=False):
    head = st.just(F(0)) if first_zero else small_fractions
    return st.tuples(head, *[small_fractions] * order).map(TruncatedPowerSeries)


class TestArithmetic:
    def test_add(self):
        assert (series(1, 1) + series(1, -1)).coeffs == (2, 0)

    def test_mul_truncates(self):
        p = series(1, 1, 0)
        q = series(1, -1, 0)
        assert (p * q).coeffs == (1, 0, -1)

    def test_scale(self):
        assert series(0, 1).scale(3).coeffs == (0, 3)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            series(1, 2) + series(1, 2, 3)
        with pytest.raises(OrderMismatch):
            series(1, 2) * series(1, 2, 3)

    def test_eval_is_exact_on_fractions(self):
        p = series(F(1, 2), F(1, 3), F(1, 4))
        x = F(2, 5)
        assert p.eval(x) == F(1, 2) + F(1, 3) * x + F(1, 4) * x * x

    def test_derivative(self):
        assert series(5, 3, 2, 7).derivative().coeffs == (3, 4, 21)


class TestExp:
    def test_exp_of_zero(self):
        assert iz.ps_exp(TruncatedPowerSeries.zero(4)).coeffs == (1, 0, 0, 0, 0)

    def test_exp_of_x(self):
        result = iz.ps_exp(TruncatedPowerSeries.identity(4))
        assert result.coeffs == (1, 1, F(1, 2), F(1, 6), F(1, 24))

    def test_constant_term_must_vanish(self):
        with pytest.raises(NonzeroConstantTerm):
            iz.ps_exp(series(1, 1))


class TestCompose:
    def test_identity_inner(self):
        p = series(2, 3, 5, 7)
        assert iz.ps_compose(p, TruncatedPowerSeries.identity(3)) == p

    def test_square_inner(self):
        outer = series(1, 1, 0, 0, 0)
        inner = series(0, 0, 1, 0, 0)
        assert iz.ps_compose(outer, inner).coeffs == (1, 0, 1, 0, 0)

    def test_inner_constant_must_vanish(self):
        with pytest.raises(InnerConstantNonzero):
            iz.ps_compose(series(0, 1), series(1, 1))


class TestInverseComposition:
    def test_identity(self):
        ident = TruncatedPowerSeries.identity(5)
        assert iz.ps_inverse_composition(ident) == ident

    def test_hand_solved_example(self):
        # Solving F(x + x^2) = x order by order gives x - x^2 + 2x^3.
        t = series(0, 1, 1, 0)
        assert iz.ps_inverse_composition(t).coeffs == (0, 1, -1, 2)

    def test_two_sided(self):
        t = series(0, 1, F(1, 2), F(-1, 3), F(2, 7), 5)
        f = iz.ps_inverse_composition(t)
        ident = TruncatedPowerSeries.identity(5)
        assert iz.ps_compose(t, f) == ident
        assert iz.ps_compose(f, t) == ident

    def test_nonunit_linear_coefficient_supported(self):
        t = series(0, 2, 1, 0)
        f = iz.ps_inverse_composition(t)
        assert iz.ps_compose(t, f) == TruncatedPowerSeries.identity(3)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            iz.ps_inverse_composition(series(1, 1, 0))
        with pytest.raises(NotInvertible):
            iz.ps_inverse_composition(series(0, 0, 1))


@settings(max_examples=60, deadline=None)
@given(series_strategy(6), series_strategy(6))
def test_mul_commutes(p, q):
    assert p * q == q * p


@settings(max_examples=60, deadline=None)
@given(series_strategy(6), series_strategy(6))
def test_add_commutes(p, q):
    assert p + q == q + p


@settings(max_examples=40, deadline=None)
@given(series_strategy(6), series_strategy(6), series_strategy(6))
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(max_examples=40, deadline=None)
@given(series_strategy(6, first_zero=True), series_strategy(6, first_zero=True))
def test_exp_turns_sums_into_products(p, q):
    assert iz.ps_exp(p + q) == iz.ps_exp(p) * iz.ps_exp(q)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[small_fractions] * 5))
def test_inverse_composition_is_an_involution(tail):
    t = TruncatedPowerSeries((F(0), F(1)) + tail)
    f = iz.ps_inverse_composition(t)
    assert iz.ps_inverse_composition(f) == t


@settings(max_examples=30, deadline=None)
@given(
    series_strategy(5),
    series_strategy(5, first_zero=True),
    series_strategy(5, first_zero=True),
)
def test_compose_associates(p, q, r):
    assert iz.ps_compose(iz.ps_compose(p, q), r) == iz.ps_compose(
        p, iz.ps_compose(q, r)
    )


class TestBivariate:
    def test_embeddings_add(self):
        p = series(0, 1, 2)
        both = BivariateTruncatedSeries.embed_first(
            p, 2
        ) + BivariateTruncatedSeries.embed_second(p, 2)
        assert both.coeff(1, 0) == 1
        assert both.coeff(0, 1) == 1
        assert both.coeff(2, 0) == 2
        assert both.coeff(0, 0) == 0

    def test_mul_truncates_by_total_degree(self):
        p = BivariateTruncatedSeries.embed_first(series(0, 1, 0), 2)
        q = BivariateTruncatedSeries.embed_second(series(0, 1, 0), 2)
        prod = p * q
        assert prod.coeff(1, 1) == 1
        assert sum(abs(c) for row in prod.coeffs for c in row) == 1

    def test_eval(self):
        p = BivariateTruncatedSeries(((0, 1), (1,)))
        assert p.eval(F(1, 2), F(1, 3)) == F(5, 6)


class TestLazardLaw:
    def test_additive_law(self):
        ident = TruncatedPowerSeries.identity(4)
        phi = iz.lazard_law(ident, ident, 4)
        assert phi.coeff(1, 0) == 1
        assert phi.coeff(0, 1) == 1
        assert sum(abs(c) for row in phi.coeffs for c in row) == 2

    def test_additive_law_satisfies_axioms(self):
        ident = TruncatedPowerSeries.identity(4)
        report = iz.group_law_report(iz.lazard_law(ident, ident, 4))
        assert report == {
            "leading": True,
            "unit": True,
            "commutativity": True,
            "associativity": True,
        }

    def test_multiplicative_style_law(self):
        # G = 1 - exp(-t) has inverse F = -log(1-s); the law is
        # s1 + s2 - s1 s2, the composition rule of collision entropy.
        order = 8
        import math

        g = TruncatedPowerSeries(
            tuple(
                F(0) if k == 0 else F((-1) ** (k + 1), math.factorial(k))
                for k in range(order + 1)
            )
        )
        f = iz.ps_inverse_composition(g)
        phi = iz.lazard_law(g, f, order)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                expected = (
                    1 if (i, j) in ((1, 0), (0, 1)) else -1 if (i, j) == (1, 1) else 0
                )
                assert phi.coeff(i, j) == expected
        assert iz.group_law_report(phi) == {
            "leading": True,
            "unit": True,
            "commutativity": True,
            "associativity": True,
        }

    def test_mismatched_pair_rejected(self):
        g = series(0, 1, 1, 0)
        not_f = TruncatedPowerSeries.identity(3)
        with pytest.raises(InversePairMismatch):
            iz.lazard_law(g, not_f, 3)

    def test_report_flags_broken_law(self):
        rows = [[0] * 4 for _ in range(4)]
        rows[1][0] = rows[0][1] = 1
        rows[2][1] = 1
        broken = BivariateTruncatedSeries(
            tuple(tuple(row[: 4 - i]) for i, row in enumerate(rows))
        )
        report = iz.group_law_report(broken)
        assert not report["commutativity"]
        assert not report["associativity"]
        assert report["unit"]


# --- production kernels against the reference algorithms -------------------

nonzero_fractions = small_fractions.filter(bool)
# Float coefficients stay well inside the normal range, so the exact
# results they lift to do not underflow when rounded back.
moderate_floats = st.floats(min_value=-2, max_value=2).filter(
    lambda x: x == 0 or abs(x) >= 1e-3
)


@st.composite
def invertible_series(draw, zero, linear, tail, max_order=7):
    order = draw(st.integers(1, max_order))
    rest = draw(st.lists(tail, min_size=order - 1, max_size=order - 1))
    return TruncatedPowerSeries((zero, draw(linear), *rest))


exact_invertible = invertible_series(F(0), nonzero_fractions, small_fractions)
float_invertible = invertible_series(
    0.0, st.floats(min_value=0.25, max_value=2) | st.floats(min_value=-2, max_value=-0.25),
    moderate_floats,
)


def strings(coeffs):
    return [str(c) for c in coeffs]


def close_to_exact(value: float, exact: Fraction) -> bool:
    # Relative 1e-12, with the spacing of the float grid at zero as the floor.
    return abs(F(value) - exact) <= F(1e-12) * abs(exact) + F(math.ulp(0.0))


@settings(max_examples=80, deadline=None)
@given(exact_invertible)
def test_inverse_matches_order_by_order_oracle(t):
    got = iz.ps_inverse_composition(t)
    want = oracles.inverse_composition_order_by_order(t)
    assert got == want
    assert strings(got.coeffs) == strings(want.coeffs)


@settings(max_examples=60, deadline=None)
@given(exact_invertible, st.integers(0, 7))
def test_lazard_matches_horner_oracle(g, cut):
    order = min(cut, g.order)
    f = iz.ps_inverse_composition(g)
    got = iz.lazard_law(g, f, order)
    want = oracles.lazard_horner(g, f, order)
    assert got == want
    assert [strings(row) for row in got.coeffs] == [strings(row) for row in want.coeffs]


@settings(max_examples=60, deadline=None)
@given(float_invertible)
def test_float_inverse_agrees_with_lifted_exact(t):
    got = iz.ps_inverse_composition(t)
    exact = iz.ps_inverse_composition(t.map_coeffs(F))
    assert not got.is_exact()
    assert all(close_to_exact(x, y) for x, y in zip(got.coeffs, exact.coeffs))


@settings(max_examples=40, deadline=None)
@given(float_invertible)
def test_float_lazard_agrees_with_lifted_exact(g):
    f = iz.ps_inverse_composition(g)
    got = iz.lazard_law(g, f, g.order)
    exact = oracles.lazard_horner(g.map_coeffs(F), f.map_coeffs(F), g.order)
    assert not got.is_exact()
    for row_got, row_exact in zip(got.coeffs, exact.coeffs):
        assert all(close_to_exact(x, y) for x, y in zip(row_got, row_exact))
