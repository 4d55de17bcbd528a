"""Entropy weights, maximizer certificate, composition law, comparators."""
from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import iharazeta as iz
from iharazeta.entropy import (
    g_of_log_inv_p,
    parse_distribution,
    resolve_scale,
    term_s,
    term_slope,
)
from iharazeta.errors import (
    InputError,
    InvalidDistribution,
    InvalidParams,
    NegativeEntropyTerm,
)

from conftest import entropy_params, graph, zeta_series

PD = iz.ProbabilityDistribution


def random_distribution(rng, width: int) -> PD:
    # Even mixture with the uniform keeps every event away from zero,
    # where the truncated group law leaves its convergence region.
    raw = rng.dirichlet(np.ones(width) * 2.0)
    mixed = 0.5 * raw + 0.5 / width
    return PD.from_values(mixed / mixed.sum())


class TestProbabilityDistribution:
    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidDistribution):
            PD.from_values([0.5, 0.6, -0.1])

    def test_wrong_total_rejected(self):
        with pytest.raises(InvalidDistribution):
            PD.from_values([0.5, 0.6])

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistribution):
            PD(probabilities=())

    def test_uniform(self):
        assert math.fsum(PD.uniform(7)) == pytest.approx(1.0, abs=1e-15)

    def test_zero_events_allowed(self):
        assert len(PD.from_values([0.5, 0.5, 0.0])) == 3


class TestParseDistribution:
    def test_json_array(self):
        assert parse_distribution("[0.25, 0.75]").probabilities == (0.25, 0.75)

    def test_whitespace_text(self):
        assert parse_distribution("0.25\n0.75\n").probabilities == (0.25, 0.75)

    def test_junk_rejected(self):
        with pytest.raises(InputError):
            parse_distribution("0.25 spam")
        with pytest.raises(InputError):
            parse_distribution("")
        with pytest.raises(InputError):
            parse_distribution('{"not": "an array"}')


class TestParams:
    def test_default_scale_is_exact_on_regular_graphs(self):
        params = entropy_params("k4")
        assert params.a == Fraction(1, 4)

    def test_scale_resolution_conflict(self):
        zs = zeta_series("k4")
        with pytest.raises(InvalidParams):
            resolve_scale(zs.spectral, a="1/4", a_frac="1/2")

    def test_scale_outside_radius_rejected(self):
        zs = zeta_series("k4")
        with pytest.raises(InvalidParams):
            iz.EntropyParams(a=0.5, zeta=zs, order=32)
        with pytest.raises(InvalidParams):
            iz.EntropyParams(a=0.0, zeta=zs, order=32)

    def test_for_graph_accepts_fraction_strings(self):
        params = iz.EntropyParams.for_graph(graph("k4"), a="1/5", order=8)
        assert params.a == Fraction(1, 5)


class TestPerEventWeight:
    def test_certain_event_weighs_nothing(self):
        params = entropy_params("k4")
        assert g_of_log_inv_p(1.0, params) == 0.0
        assert term_s(1.0, params) == 0.0

    def test_impossible_event_weighs_nothing(self):
        params = entropy_params("k4")
        assert term_s(0.0, params) == 0.0

    def test_weight_at_zero_closed_form(self):
        params = entropy_params("k4")
        expected = params.zeta_at_a / params.normalizer
        assert g_of_log_inv_p(0.0, params) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("name", ["k4", "wheel"])
    def test_weight_decreases_in_p(self, name):
        params = entropy_params(name)
        values = [g_of_log_inv_p(k / 50.0, params) for k in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_probability_rejected(self):
        params = entropy_params("k4")
        with pytest.raises(InvalidParams):
            g_of_log_inv_p(1.5, params)
        with pytest.raises(InvalidParams):
            term_slope(-0.1, params)


class TestEntropy:
    def test_degenerate_distribution_has_zero_entropy(self):
        report = iz.ihara_entropy(PD.from_values([1.0]), entropy_params("k4"))
        assert report.entropy == 0.0

    def test_zero_event_changes_nothing(self):
        params = entropy_params("k4")
        base = iz.ihara_entropy(PD.from_values([0.3, 0.7]), params)
        padded = iz.ihara_entropy(PD.from_values([0.3, 0.7, 0.0]), params)
        assert padded.entropy == base.entropy

    def test_report_invariants(self):
        params = entropy_params("wheel")
        report = iz.ihara_entropy(PD.from_values([0.2, 0.3, 0.5]), params)
        assert report.entropy == pytest.approx(math.fsum(report.terms), abs=1e-15)
        assert all(t >= 0.0 for t in report.terms)
        assert report.entropy >= 0.0

    @pytest.mark.parametrize("raw", [-1.0, math.nan])
    def test_negative_term_is_typed_error(self, monkeypatch, raw):
        monkeypatch.setattr(iz.entropy, "term_s", lambda p, params: raw)
        with pytest.raises(NegativeEntropyTerm):
            iz.ihara_entropy(PD.from_values([0.5, 0.5]), entropy_params("k4"))

    def test_negative_term_raises_under_optimize(self):
        # python -O strips assert statements; the check must survive it.
        script = (
            "import sys\n"
            "import iharazeta as iz\n"
            "from iharazeta.errors import NegativeEntropyTerm\n"
            "k4 = iz.parse_edge_list('0 1\\n0 2\\n0 3\\n1 2\\n1 3\\n2 3')\n"
            "params = iz.EntropyParams.for_graph(k4, order=8)\n"
            "iz.entropy.term_s = lambda p, params: -1.0\n"
            "try:\n"
            "    iz.ihara_entropy(iz.ProbabilityDistribution.uniform(2), params)\n"
            "except NegativeEntropyTerm:\n"
            "    print('raised', sys.flags.optimize)\n"
        )
        src = str(Path(iz.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["raised", "1"]

    @pytest.mark.parametrize("name", ["k4", "diamond"])
    def test_nonnegative_on_random_distributions(self, name):
        params = entropy_params(name)
        rng = np.random.default_rng(11)
        for _ in range(20):
            dist = PD.from_values(rng.dirichlet(np.ones(rng.integers(2, 6))))
            assert iz.ihara_entropy(dist, params).entropy >= 0.0

    def test_series_path_agrees_with_determinant_path(self):
        # Same entropy assembled from the truncated-series evaluators;
        # at order 32 the remaining gap is the series tail.
        params = entropy_params("k4")
        zs = params.zeta
        a = float(params.a)
        denominator = 1.0 + a * iz.zeta_derivative(zs, a)

        def g_series(p):
            z_a = iz.zeta_eval_series(zs, a).value
            z_ap = iz.zeta_eval_series(zs, a * p).value
            return ((z_a - z_ap) + (1.0 - p)) / denominator

        series_path = 2 * 0.5 * g_series(0.5)
        exact_path = iz.ihara_entropy(PD.uniform(2), params).entropy
        assert abs(series_path - exact_path) <= 1e-9


class TestMaximizer:
    def test_bracket_signs(self):
        params = entropy_params("k4")
        assert term_slope(0.0, params) > 0.0
        assert term_slope(1.0, params) < 0.0

    @pytest.mark.parametrize("name", ["k4", "wheel"])
    def test_root_certificate(self, name):
        params = entropy_params(name)
        c = iz.maximizer(params, tol=1e-12)
        assert 0.0 < c < 1.0
        assert abs(term_slope(c, params)) <= 1e-12
        assert term_s(c, params) > 0.0

    def test_slope_strictly_decreasing(self):
        params = entropy_params("k4")
        values = [term_slope(k / 1000.0, params) for k in range(1001)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_finite_differences_change_sign_at_root(self):
        params = entropy_params("k4")
        c = iz.maximizer(params)
        h = 1e-6
        before = (term_s(c - h, params) - term_s(c - 2 * h, params)) / h
        after = (term_s(c + 2 * h, params) - term_s(c + h, params)) / h
        assert before > 0.0 > after


class TestLogSeries:
    def test_normalization_is_exact(self):
        g_series = entropy_params("k4").log_series
        assert g_series.coeffs[0] == 0
        assert g_series.coeffs[1] == 1
        assert g_series.is_exact()

    def test_inverse_pair_identity(self):
        params = entropy_params("k4")
        ident = iz.TruncatedPowerSeries.identity(params.order)
        assert iz.ps_compose(params.log_series, params.log_series_inverse) == ident
        assert iz.ps_compose(params.log_series_inverse, params.log_series) == ident

    def test_series_evaluation_matches_closed_form(self):
        # Small scaling keeps log(1/p) inside the series' reach down to
        # p = 0.3; at the default scale the expansion cannot get there.
        params = entropy_params("k4", a_frac="1/10")
        g_float = params.log_series.map_coeffs(float)
        for k in range(30, 101, 7):
            p = k / 100.0
            expected = g_of_log_inv_p(p, params)
            assert g_float.eval(math.log(1.0 / p)) == pytest.approx(
                expected, abs=1e-8
            )


class TestJointEntropy:
    def test_degenerate_pair(self):
        params = entropy_params("k4")
        result = iz.joint_entropy_check(PD.from_values([1.0]), PD.from_values([1.0]), params)
        assert result.direct == 0.0
        assert result.via_phi == 0.0

    def test_unit_slot_evaluates_to_identity(self):
        params = entropy_params("k4")
        phi = params.lazard_numeric
        for k in range(0, 101, 10):
            s = g_of_log_inv_p(k / 100.0, params)
            assert phi.eval(s, 0.0) == pytest.approx(s, abs=1e-8)
            assert phi.eval(0.0, s) == pytest.approx(s, abs=1e-8)

    def test_uniform_pair_at_default_scale(self):
        result = iz.joint_entropy_check(
            PD.uniform(2), PD.uniform(2), entropy_params("k4")
        )
        assert result.delta <= 1e-6

    def test_random_pairs_within_truncation_tolerance(self):
        # Quarter-radius scaling: the truncated law converges for every
        # distribution the bounded-away-from-zero sampler can produce.
        params = entropy_params("k4", a_frac="1/4")
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(10):
            pa = random_distribution(rng, int(rng.integers(2, 4)))
            pb = random_distribution(rng, int(rng.integers(2, 4)))
            worst = max(worst, iz.joint_entropy_check(pa, pb, params).delta)
        assert worst <= 1e-6


class TestAxiomStyleProperties:
    def test_grid_continuity(self):
        params = entropy_params("k4")
        n = 2000
        values = [term_s(k / n, params) for k in range(n + 1)]
        slope_cap = (
            max(abs(term_slope(k / 100.0, params)) for k in range(101))
            / params.normalizer
        )
        max_jump = max(abs(b - a) for a, b in zip(values, values[1:]))
        assert max_jump <= 1.05 * slope_cap / n

    def test_concave_second_differences(self):
        params = entropy_params("k4")
        h = 1e-3
        for k in range(1, 1000, 7):
            p = k / 1000.0
            d2 = (
                term_s(p + h, params) - 2 * term_s(p, params) + term_s(p - h, params)
            ) / h**2
            assert d2 <= 1e-8


class TestComparators:
    def test_shannon_closed_forms(self):
        assert iz.shannon_entropy(PD.from_values([1.0])) == 0.0
        assert iz.shannon_entropy(PD.uniform(2)) == pytest.approx(math.log(2), rel=1e-15)

    def test_tsallis_collision_value(self):
        # q = 2 on uniform(2): (1 - 1/2) / 1.
        assert iz.tsallis_entropy(PD.uniform(2), 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_tsallis_limit_is_shannon(self):
        dist = PD.uniform(4)
        shannon = iz.shannon_entropy(dist)
        for q in (1.0 + 1e-8, 1.0 - 1e-8):
            assert abs(iz.tsallis_entropy(dist, q) - shannon) <= 1e-6

    def test_tsallis_rejects_q_one(self):
        with pytest.raises(InvalidParams):
            iz.tsallis_entropy(PD.uniform(2), 1.0)
