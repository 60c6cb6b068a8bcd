import math

import pytest
from scipy.special import ndtri, ndtri_exp

from cfmac.channel import adder2, channel_stats, sum_capacity, uniform_product, xor_channel
from cfmac.rate_bounds import (
    RateQuery,
    cooperation_gain,
    rate_report,
    theta_regime,
    thm2_sum_rate,
    thm3_sum_rate,
)


def adder_rate_closed_form(n, eps, k):
    """Independent oracle: C + sqrt(V1) ndtri_exp(ln(eps)/K)/sqrt(n), V2 = 0."""
    return 1.5 + 0.5 * float(ndtri_exp(math.log(eps) / k)) / math.sqrt(n)


class TestThetaRegimes:
    def test_boundaries(self):
        n = 1024  # log2 n = 10
        assert theta_regime(n, 8)[0] == "theta1"
        assert theta_regime(n, 11)[0] == "theta2"  # between log n and log^1.5 n
        assert theta_regime(n, 40)[0] == "theta3"  # between log^1.5 n and n
        assert theta_regime(n, 2 * n)[0] == "theta4"

    def test_coefficients_default_to_zero(self):
        stats = channel_stats(adder2(), uniform_product(adder2()))
        r = thm2_sum_rate(stats, RateQuery(1000, 0.01, 4))
        assert r.theta_n == 0.0


class TestDispersionRate:
    def test_adder_examples(self):
        stats = channel_stats(adder2(), uniform_product(adder2()))
        r1 = thm2_sum_rate(stats, RateQuery(1000, 0.01, 1))
        r2 = thm2_sum_rate(stats, RateQuery(1000, 0.01, 2))
        assert r1.rate == pytest.approx(adder_rate_closed_form(1000, 0.01, 1), abs=1e-7)
        assert r2.rate == pytest.approx(adder_rate_closed_form(1000, 0.01, 2), abs=1e-7)
        assert r1.rate == pytest.approx(1.4632, abs=5e-4)
        assert r2.rate == pytest.approx(1.4797, abs=5e-4)

    def test_rate_increases_with_k(self):
        stats = channel_stats(adder2(), uniform_product(adder2()))
        rates = [thm2_sum_rate(stats, RateQuery(1000, 0.01, k)).rate for k in (1, 2, 8, 64)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_theta_correction_subtracts(self):
        stats = channel_stats(adder2(), uniform_product(adder2()))
        q = RateQuery(1000, 0.01, 4)
        plain = thm2_sum_rate(stats, q)
        with_theta = thm2_sum_rate(stats, q, corrections={"theta1": 2.0})
        assert with_theta.rate < plain.rate
        assert with_theta.corrections_used["theta_coeff"] == 2.0


class TestTypeRate:
    def test_budget_exhausted_falls_back_to_baseline(self):
        mac = adder2()
        q = RateQuery(1000, 0.01, 2)  # log2(2)/n well below 5 log2(n)/n
        r = thm3_sum_rate(mac, q)
        assert r.budget_exhausted
        baseline = rate_report(mac, RateQuery(1000, 0.01, 1)).baseline_rate
        assert r.rate == pytest.approx(baseline, abs=1e-12)

    def test_large_k_beats_baseline(self):
        mac = adder2()
        q = RateQuery(1000, 0.01, 2**60)
        r = thm3_sum_rate(mac, q)
        assert not r.budget_exhausted
        baseline = rate_report(mac, RateQuery(1000, 0.01, 1)).baseline_rate
        assert r.rate > baseline

    def test_agreement_with_dispersion_rate_at_huge_n(self):
        # both bounds should land close together deep in the asymptotic regime;
        # the type-class counting constant is set to zero so the dependence
        # budget log2(K)/n survives at this K
        mac = adder2()
        q = RateQuery(10**6, 0.01, 2**63)
        stats = channel_stats(mac, uniform_product(mac))
        t2 = thm2_sum_rate(stats, q)
        t3 = thm3_sum_rate(mac, q, corrections={"c_a": 0.0})
        gap2 = t2.rate - 1.5
        gap3 = t3.rate - 1.5
        assert abs(gap2 - gap3) <= 0.15 * max(abs(gap2), abs(gap3))

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            thm3_sum_rate(adder2(), RateQuery(1000, 0.01, 1))


class TestRateReport:
    def test_k1_baseline_only(self):
        rep = rate_report(adder2(), RateQuery(1000, 0.01, 1))
        assert rep.thm2_rate is None and rep.thm3_rate is None
        assert rep.best_rate == rep.baseline_rate

    def test_best_is_max_of_bounds(self):
        rep = rate_report(adder2(), RateQuery(1000, 0.01, 4))
        assert rep.best_rate == max(rep.thm2_rate, rep.thm3_rate, rep.baseline_rate)

    def test_exhausted_budget_flagged(self):
        rep = rate_report(adder2(), RateQuery(1000, 0.01, 2))
        assert "thm3_budget_exhausted" in rep.flags

    def test_xor_best_rate_constant_in_k(self):
        # flat expected density: facilitation cannot help, v1 = 0
        mac = xor_channel(0.11)
        cap = sum_capacity(mac)
        rates = {
            k: rate_report(mac, RateQuery(1000, 0.01, k), capacity=cap).best_rate
            for k in (1, 2, 4, 64)
        }
        assert len(set(rates.values())) == 1

    def test_adder_best_rate_increases_in_k(self):
        mac = adder2()
        cap = sum_capacity(mac)
        rates = [
            rate_report(mac, RateQuery(1000, 0.01, k), capacity=cap).best_rate
            for k in (1, 2, 4, 64)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_invalid_queries(self):
        with pytest.raises(ValueError):
            RateQuery(0, 0.01, 1)
        with pytest.raises(ValueError):
            RateQuery(100, 1.5, 1)
        with pytest.raises(ValueError):
            RateQuery(100, 0.01, 0)


class TestCooperationGain:
    def test_k1_no_gain(self):
        g = cooperation_gain(adder2(), RateQuery(1000, 0.01, 1))
        assert g == {"gain_bits_per_use": 0.0, "gain_total_bits": 0.0}

    def test_one_facilitator_bit_buys_order_sqrt_n_bits(self):
        # K=2 on the adder: gain per use times sqrt(n) converges to
        # 0.5 (ndtri(sqrt(eps)) - ndtri(eps)) since the K=2 quantile at
        # v2 = 0 is sqrt(v1) ndtri(sqrt(eps))
        mac = adder2()
        cap = sum_capacity(mac)
        const = 0.5 * float(ndtri(math.sqrt(0.01)) - ndtri(0.01))
        for n in (10**3, 10**5, 10**7):
            g = cooperation_gain(mac, RateQuery(n, 0.01, 2), capacity=cap)
            assert g["gain_bits_per_use"] * math.sqrt(n) == pytest.approx(const, abs=1e-6)
            assert g["gain_total_bits"] == pytest.approx(
                g["gain_bits_per_use"] * n, rel=1e-12
            )


class TestBaselineAndUnits:
    THETA = {"theta1": 5.0, "theta2": 5.0, "theta3": 5.0, "theta4": 5.0}

    def test_thm3_fallback_keeps_the_corrections(self):
        # at n = 100, K = 2 the type-construction budget is negative, so thm3
        # falls back to the K = 1 baseline, which must carry the same theta
        rep = rate_report(adder2(), RateQuery(100, 0.01, 2), corrections=self.THETA)
        assert rep.flags == ["thm3_budget_exhausted"]
        assert rep.thm3_rate == rep.baseline_rate
        assert rep.best_rate == max(rep.thm2_rate, rep.baseline_rate)
        t3 = thm3_sum_rate(adder2(), RateQuery(100, 0.01, 2), corrections=self.THETA)
        assert t3.budget_exhausted and t3.rate == rep.baseline_rate

    def test_unknown_units_are_rejected(self):
        with pytest.raises(ValueError, match="unknown units 'bitz'"):
            theta_regime(1000, 8, units="bitz")
        with pytest.raises(ValueError, match="unknown units"):
            rate_report(adder2(), RateQuery(1000, 0.01, 2, "Bits"))

    def test_capacity_in_other_units_is_rejected(self):
        mac = adder2()
        cap_bits = sum_capacity(mac)
        q = RateQuery(1000, 0.01, 2, "nats")
        with pytest.raises(ValueError, match="capacity is in bits"):
            rate_report(mac, RateQuery(1000, 0.01, 1, "nats"), capacity=cap_bits)
        with pytest.raises(ValueError, match="capacity is in bits"):
            rate_report(mac, q, capacity=cap_bits)
        with pytest.raises(ValueError, match="capacity is in bits"):
            thm3_sum_rate(mac, q, capacity=cap_bits)
        with pytest.raises(ValueError, match="capacity is in bits"):
            cooperation_gain(mac, q, capacity=cap_bits)
        cap_nats = sum_capacity(mac, units="nats")
        right = rate_report(mac, RateQuery(1000, 0.01, 1, "nats"), capacity=cap_nats)
        assert right.best_rate == rate_report(mac, RateQuery(1000, 0.01, 1, "nats")).best_rate
