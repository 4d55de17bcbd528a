"""Prime cycle enumeration and the Euler-product reconstruction."""
from __future__ import annotations

import pytest

import iharazeta as iz
from iharazeta.errors import BudgetExceeded, IncompletePrimeList
from iharazeta.primes import PrimeCycle, PrimeCycleSet

from conftest import ACCEPTANCE_GRAPHS, line_graph, zeta_series


def _rotations(seq):
    return [seq[i:] + seq[:i] for i in range(len(seq))]


def _moebius(n):
    """mu(n) by trial division: 0 if a square divides n, else (-1)^(#primes)."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _is_power_of_shorter(seq):
    k = len(seq)
    return any(
        k % d == 0 and all(seq[i] == seq[i % d] for i in range(k))
        for d in range(1, k)
    )


class TestEnumeratePrimes:
    def test_k4_has_eight_length_three_primes(self):
        primes = iz.enumerate_primes(line_graph("k4"), 3)
        assert len(primes) == 8
        assert all(p.length == 3 for p in primes)
        # Independent count: every length-3 closed walk is primitive and
        # has 3 rotations, so the class count is trace(T^3) / 3.
        assert len(primes) == iz.traces(line_graph("k4"), 3).trace(3) // 3

    def test_petersen_has_no_short_primes(self):
        # Girth 5: nothing of length 3 or 4 can close up.
        assert len(iz.enumerate_primes(line_graph("petersen"), 4)) == 0

    def test_cycles_are_stored_in_least_rotation(self):
        for prime in iz.enumerate_primes(line_graph("wheel"), 6):
            assert prime.edges == min(_rotations(prime.edges))

    def test_rotation_classes_not_duplicated(self):
        primes = iz.enumerate_primes(line_graph("k4"), 6)
        seen = set()
        for prime in primes:
            for rotation in _rotations(prime.edges):
                assert rotation not in seen or rotation == prime.edges
                seen.add(rotation)

    @pytest.mark.parametrize("name", ["k4", "wheel"])
    def test_no_forbidden_blocks_even_cyclically(self, name):
        olg = line_graph(name)
        des = olg.edge_set
        for prime in iz.enumerate_primes(olg, 6):
            edges = prime.edges
            for idx, e in enumerate(edges):
                nxt = edges[(idx + 1) % len(edges)]
                assert nxt != des.inverse(e)
                assert des.heads[e] == des.tails[nxt]

    @pytest.mark.parametrize("name", ["k4", "diamond"])
    def test_all_cycles_primitive(self, name):
        for prime in iz.enumerate_primes(line_graph(name), 8):
            assert not _is_power_of_shorter(prime.edges)

    @pytest.mark.parametrize("name", ["k4", "wheel"])
    def test_length_counts_satisfy_trace_identity(self, name):
        # trace(T^k) must equal sum over divisors d of k of d * (number
        # of primes of length d); this ties the enumeration to the
        # independently computed traces.
        olg = line_graph(name)
        histogram = iz.enumerate_primes(olg, 8).histogram()
        tv = iz.traces(olg, 8)
        for k in range(1, 9):
            total = sum(d * histogram.get(d, 0) for d in range(1, k + 1) if k % d == 0)
            assert total == tv.trace(k)

    @pytest.mark.parametrize("name", ACCEPTANCE_GRAPHS)
    def test_prime_counts_are_moebius_inversion_of_traces(self, name):
        # The count the paper reads off the oriented line graph:
        # pi(k) = (1/k) sum over d | k of mu(k/d) trace(T^d).
        olg = line_graph(name)
        tv = iz.traces(olg, 8)
        predicted = {}
        for k in range(1, 9):
            total = sum(_moebius(k // d) * tv.trace(d) for d in range(1, k + 1) if k % d == 0)
            assert total % k == 0
            if total:
                predicted[k] = total // k
        assert iz.enumerate_primes(olg, 8).histogram() == predicted

    def test_k4_histogram_frozen(self):
        assert iz.enumerate_primes(line_graph("k4"), 8).histogram() == {
            3: 8,
            4: 6,
            6: 12,
            7: 24,
            8: 18,
        }

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            iz.enumerate_primes(line_graph("petersen"), 8, budget=10)

    def test_rejects_short_lengths(self):
        with pytest.raises(ValueError):
            iz.enumerate_primes(line_graph("k4"), 2)


class TestCountClosedWalks:
    @pytest.mark.parametrize("name", ["k4", "wheel", "petersen"])
    def test_no_closed_walks_of_length_one_or_two(self, name):
        olg = line_graph(name)
        assert iz.count_closed_walks_bruteforce(olg, 1) == 0
        assert iz.count_closed_walks_bruteforce(olg, 2) == 0

    def test_k4_length_three(self):
        assert iz.count_closed_walks_bruteforce(line_graph("k4"), 3) == 24

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            iz.count_closed_walks_bruteforce(line_graph("k4"), 8, budget=10)


class TestEulerProduct:
    def test_empty_product_is_one(self):
        empty = PrimeCycleSet(cycles=(), max_length=10)
        series = iz.euler_product_series(empty, 6)
        assert series.coeffs == (1, 0, 0, 0, 0, 0, 0)

    def test_single_length_three_prime(self):
        single = PrimeCycleSet(cycles=(PrimeCycle(edges=(0, 1, 2)),), max_length=7)
        series = iz.euler_product_series(single, 7)
        assert series.coeffs == (1, 0, 0, 1, 0, 0, 1, 0)

    def test_incomplete_enumeration_rejected(self):
        short = PrimeCycleSet(cycles=(), max_length=3)
        with pytest.raises(IncompletePrimeList):
            iz.euler_product_series(short, 5)

    @pytest.mark.parametrize("name", ["k4", "diamond"])
    def test_euler_product_matches_exp_trace_series(self, name):
        olg = line_graph(name)
        primes = iz.enumerate_primes(olg, 8)
        euler = iz.euler_product_series(primes, 8)
        assert euler.coeffs == zeta_series(name, 8).coeffs
