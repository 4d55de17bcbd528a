"""Zeta coefficients and the dual evaluation paths."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import iharazeta as iz
from iharazeta.errors import InsufficientTraces, OutOfDomain

from conftest import ACCEPTANCE_GRAPHS, line_graph, zeta_series


class TestCoefficients:
    @pytest.mark.parametrize("name", ACCEPTANCE_GRAPHS)
    def test_leading_coefficients(self, name):
        coeffs = zeta_series(name, 8).coeffs
        assert coeffs[0] == 1
        assert coeffs[1] == 0
        assert coeffs[2] == 0  # trace(T^2)/2 vanishes on simple graphs

    @pytest.mark.parametrize("name", ACCEPTANCE_GRAPHS)
    def test_all_coefficients_nonnegative(self, name):
        assert all(c >= 0 for c in zeta_series(name, 32).coeffs)

    @pytest.mark.parametrize("name", ["k4", "wheel"])
    def test_low_order_closed_forms(self, name):
        # c_2 = t2/2, c_3 = t3/3, c_4 = t4/4 + t2^2/8,
        # c_5 = t5/5 + t2 t3 / 6: the exponential's first partitions.
        tv = iz.traces(line_graph(name), 5)
        t = {k: tv.trace(k) for k in range(1, 6)}
        coeffs = zeta_series(name, 8).coeffs
        assert coeffs[2] == Fraction(t[2], 2)
        assert coeffs[3] == Fraction(t[3], 3)
        assert coeffs[4] == Fraction(t[4], 4) + Fraction(t[2] ** 2, 8)
        assert coeffs[5] == Fraction(t[5], 5) + Fraction(t[2] * t[3], 6)

    def test_k4_coefficients_frozen(self):
        # Cross-checked against the Euler product over the enumerated
        # primes (histogram 8/6/12/24/18 at lengths 3/4/6/7/8).
        assert zeta_series("k4", 8).coeffs == (1, 0, 0, 8, 6, 0, 48, 72, 39)

    def test_insufficient_traces(self):
        tv = iz.traces(line_graph("k4"), 4)
        with pytest.raises(InsufficientTraces):
            iz.zeta_coefficients(tv, 8)

    def test_transparent_recomputation_at_higher_order(self):
        low = zeta_series("k4", 8)
        high = iz.build_zeta_series(line_graph("k4"), order=12)
        assert high.coeffs[:9] == low.coeffs


class TestEvaluation:
    def test_value_at_zero_is_one(self):
        zs = zeta_series("k4")
        assert iz.zeta_eval_series(zs, 0.0).value == 1.0
        assert iz.zeta_eval_exact(zs.line_graph, 0.0) == 1.0

    @pytest.mark.parametrize("name", ACCEPTANCE_GRAPHS)
    def test_domain_guard(self, name):
        zs = zeta_series(name)
        edge = 1.0 / zs.spectral.value
        for bad in (-0.01, edge, edge + 0.1):
            with pytest.raises(OutOfDomain):
                iz.zeta_eval_series(zs, bad)
            with pytest.raises(OutOfDomain):
                iz.zeta_eval_exact(zs.line_graph, bad, spectral=zs.spectral)
            with pytest.raises(OutOfDomain):
                iz.zeta_derivative(zs, bad)
            with pytest.raises(OutOfDomain):
                iz.zeta_derivative_exact(zs.line_graph, bad, spectral=zs.spectral)

    def test_k4_quarter_point_against_determinant(self):
        zs = zeta_series("k4")
        value, bound = iz.zeta_eval_series(zs, 0.25)
        exact = iz.zeta_eval_exact(zs.line_graph, 0.25)
        assert abs(value - exact) <= bound

    @pytest.mark.parametrize("name", ACCEPTANCE_GRAPHS)
    def test_series_matches_exact_within_tail_bound(self, name):
        zs = zeta_series(name)
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.0, 0.9 / zs.spectral.value, size=25):
            value, bound = iz.zeta_eval_series(zs, x)
            exact = iz.zeta_eval_exact(zs.line_graph, x, spectral=zs.spectral)
            assert abs(value - exact) <= bound

    @pytest.mark.parametrize("name", ACCEPTANCE_GRAPHS)
    def test_tail_bound_small_at_half_radius(self, name):
        zs = zeta_series(name)
        assert iz.zeta_tail_bound(zs, 0.5 / zs.spectral.value) <= 1e-6

    @pytest.mark.parametrize("name", ["k4", "diamond"])
    def test_monotone_on_increasing_grid(self, name):
        zs = zeta_series(name)
        xs = np.linspace(0.0, 0.9 / zs.spectral.value, 200)
        values = [iz.zeta_eval_series(zs, x).value for x in xs]
        slopes = [iz.zeta_derivative(zs, x) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(slopes, slopes[1:]))

    def test_coefficients_recovered_by_finite_differences(self):
        # Forward differences of the determinant evaluator at small x
        # re-derive the low-order series coefficients independently.
        olg = line_graph("k4")
        coeffs = zeta_series("k4").coeffs
        h = 1e-3
        for k in (1, 2, 3, 4):
            fd = sum(
                (-1) ** (k - j) * math.comb(k, j) * iz.zeta_eval_exact(olg, j * h)
                for j in range(k + 1)
            )
            estimate = fd / (h**k * math.factorial(k))
            assert abs(estimate - float(coeffs[k])) <= 0.05 * max(1.0, float(coeffs[k]))


class TestDerivative:
    def test_derivative_at_zero_vanishes(self):
        assert iz.zeta_derivative(zeta_series("k4"), 0.0) == 0.0

    def test_matches_central_difference_of_exact(self):
        olg = line_graph("k4")
        zs = zeta_series("k4")
        x, h = 0.25, 1e-6
        fd = (iz.zeta_eval_exact(olg, x + h) - iz.zeta_eval_exact(olg, x - h)) / (2 * h)
        assert abs(iz.zeta_derivative(zs, x) - fd) <= 1e-6 * abs(fd)

    def test_exact_derivative_agrees_with_series(self):
        olg = line_graph("wheel")
        zs = zeta_series("wheel")
        x = 0.3 / zs.spectral.value
        assert iz.zeta_derivative_exact(olg, x, spectral=zs.spectral) == pytest.approx(
            iz.zeta_derivative(zs, x), rel=1e-9
        )
