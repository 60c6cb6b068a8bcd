import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtri, ndtri_exp

import cfmac.channel
import cfmac.rate_bounds
from cfmac.channel import (
    Mac,
    ProductDist,
    adder2,
    channel_stats,
    sum_capacity,
    uniform_product,
    xor_channel,
)
from cfmac.delta_curve import delta
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
        assert theta_regime(n, 8) == "theta1"
        assert theta_regime(n, 11) == "theta2"  # between log n and log^1.5 n
        assert theta_regime(n, 40) == "theta3"  # between log^1.5 n and n
        assert theta_regime(n, 2 * n) == "theta4"

    @pytest.mark.parametrize("n", [100, 1024, 10**6])
    def test_k_equal_to_n_is_the_last_theta3(self, n):
        # theta3 holds for log^1.5 n < K <= n, theta4 for K > n
        assert theta_regime(n, n) == "theta3"
        assert theta_regime(n, n + 1) == "theta4"

    def test_tag_does_not_depend_on_units(self):
        # 16 lies between log2(100) = 6.6 and log2(100)^1.5 = 17.1, and above
        # ln(100)^1.5 = 9.9: the tag follows log2 in nats too
        tags = {
            units: rate_report(adder2(), RateQuery(100, 0.01, 16, units)).regime
            for units in ("bits", "nats")
        }
        assert tags == {"bits": "theta2", "nats": "theta2"}

    def test_coefficients_default_to_zero(self):
        stats = channel_stats(adder2(), uniform_product(adder2()))
        r = thm2_sum_rate(stats, RateQuery(1000, 0.01, 4))
        assert r.rate == stats.mutual_info + r.quantile / math.sqrt(1000)


class TestDispersionRate:
    def test_adder_examples(self):
        stats = channel_stats(adder2(), uniform_product(adder2()))
        r1 = thm2_sum_rate(stats, RateQuery(1000, 0.01, 1))
        r2 = thm2_sum_rate(stats, RateQuery(1000, 0.01, 2))
        assert r1.rate == pytest.approx(adder_rate_closed_form(1000, 0.01, 1), abs=1e-7)
        assert r2.rate == pytest.approx(adder_rate_closed_form(1000, 0.01, 2), abs=1e-7)
        assert r1.rate == pytest.approx(1.4632, abs=5e-4)
        assert r2.rate == pytest.approx(1.4797, abs=5e-4)

    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_zero_dispersion_rate_is_the_capacity(self, k):
        # V1 = V2 = 0: S_K is the point mass at 0, so its quantile is 0
        stats = channel_stats(xor_channel(0.0), uniform_product(xor_channel(0.0)))
        assert stats.v1 == stats.v2 == 0.0
        r = thm2_sum_rate(stats, RateQuery(100, 0.01, k))
        assert r.quantile == 0.0 and r.rate == stats.mutual_info == 1.0

    def test_rate_increases_with_k(self):
        stats = channel_stats(adder2(), uniform_product(adder2()))
        rates = [thm2_sum_rate(stats, RateQuery(1000, 0.01, k)).rate for k in (1, 2, 8, 64)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_k_past_the_float_range(self):
        # Thm 3's regime K = 2^(na) passes 2^1023 at n*a > 1023.  Phi^(2K) = eps
        # where Phi^K = sqrt(eps), so K = 2^1024 at eps has the 2^1023 rate at sqrt(eps)
        rates = [
            rate_report(adder2(), RateQuery(2000, 0.01, k)).thm2_rate
            for k in (2**1023, 2**1024, 2**2000, 2**1024 - 1)
        ]
        assert rates[1] == pytest.approx(adder_rate_closed_form(2000, 0.1, 2**1023), abs=1e-12)
        assert rates[0] < rates[1] < rates[2]
        assert rates[3] == pytest.approx(rates[1], abs=1e-9)  # float(K) would round up and raise


class TestTypeRate:
    def test_budget_exhausted_falls_back_to_baseline(self):
        mac = adder2()
        q = RateQuery(1000, 0.01, 2)  # log2(2)/n well below 5 log2(n)/n
        r = thm3_sum_rate(mac, q)
        assert r.budget_exhausted and r.rate is None
        rep = rate_report(mac, q)
        assert rep.thm3_rate == rep.baseline_rate

    def test_exhausted_budget_solves_no_capacity(self, monkeypatch):
        calls = []
        solve = cfmac.channel.sum_capacity

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cfmac.channel, "sum_capacity", counted)
        r = thm3_sum_rate(adder2(), RateQuery(1000, 0.01, 2))
        assert r.budget_exhausted and r.rate is None
        assert calls == []

    def test_large_k_beats_baseline(self):
        mac = adder2()
        q = RateQuery(1000, 0.01, 2**60)
        r = thm3_sum_rate(mac, q)
        assert not r.budget_exhausted
        baseline = rate_report(mac, RateQuery(1000, 0.01, 1)).baseline_rate
        assert r.rate > baseline

    def test_agreement_with_dispersion_rate_at_huge_n(self):
        # both bounds should land close together deep in the asymptotic regime;
        # at K = 2^1000 the dependence budget log2(K)/n outgrows the type-class
        # counting penalty 5 log2(n)/n
        mac = adder2()
        q = RateQuery(10**6, 0.01, 2**1000)
        stats = channel_stats(mac, uniform_product(mac))
        t2 = thm2_sum_rate(stats, q)
        t3 = thm3_sum_rate(mac, q)
        assert not t3.budget_exhausted
        gap2 = t2.rate - 1.5
        gap3 = t3.rate - 1.5
        assert abs(gap2 - gap3) <= 0.15 * max(abs(gap2), abs(gap3))

    @pytest.mark.parametrize("label", ["adder2", "dir2x2x3"])
    def test_live_budget_rate_from_its_closed_form(self, label):
        # n = 100, K = 2^40: budget = (40 - 5 log2 100) / 100 > 0 bits with
        # c_a = 2 * 2 + 1, and rate = C + delta(budget) - sqrt(V2 / n) Q^-1(eps)
        # with V2 at delta's law; adder2's V2 is 0, the Dirichlet kernel's is not
        if label == "adder2":
            mac = adder2()
        else:
            mac = Mac(np.random.default_rng(210201247).dirichlet(np.ones(3), size=(2, 2)))
        n, eps = 100, 0.01
        budget = (40 - 5 * math.log2(n)) / n
        r = thm3_sum_rate(mac, RateQuery(n, eps, 2**40))
        assert not r.budget_exhausted
        assert r.budget == pytest.approx(budget, rel=1e-12)
        point = delta(mac, r.budget)  # SLSQP's end moves with the budget's last bits
        v2 = channel_stats(mac, point.argmax_joint).v2
        assert point.delta > 0.0 and (v2 > 0.0) == (label != "adder2")
        want = sum_capacity(mac).c_sum + point.delta - math.sqrt(v2 / n) * float(ndtri(1 - eps))
        assert r.rate == pytest.approx(want, rel=1e-12)

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

    def test_exhausted_budget_computes_the_baseline_once(self, monkeypatch):
        # one quantile for the K = 1 baseline, one for Thm 2 at K = 2; the
        # exhausted Thm-3 bound reuses the baseline instead of recomputing it
        calls = []
        quantile = cfmac.rate_bounds.sk_inverse_cdf

        def counted(p, eps):
            calls.append(p.k)
            return quantile(p, eps)

        monkeypatch.setattr(cfmac.rate_bounds, "sk_inverse_cdf", counted)
        rep = rate_report(adder2(), RateQuery(100, 0.01, 2))
        assert rep.flags == ["thm3_budget_exhausted"]
        assert rep.thm3_rate == rep.baseline_rate
        assert rep.best_rate == max(rep.thm2_rate, rep.baseline_rate)
        assert sorted(calls) == [1, 2]

    def test_rates_take_the_member_of_largest_v1(self):
        # skew is no maximizer: the test pins the choice among the given
        # laws, V1 = 0.4503 bits^2 against the uniform law's 0.25
        mac, q = adder2(), RateQuery(1000, 0.01, 16)
        cap = sum_capacity(mac)
        skew, uniform = ProductDist((0.8, 0.2), (0.5, 0.5)), uniform_product(mac)
        rep = rate_report(mac, q, capacity=dataclasses.replace(cap, argmax_dists=[skew, uniform]))
        want = thm2_sum_rate(channel_stats(mac, skew), q, c_sum=cap.c_sum).rate
        assert rep.thm2_rate == want
        assert want > thm2_sum_rate(channel_stats(mac, uniform), q, c_sum=cap.c_sum).rate

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

    @pytest.mark.parametrize(
        "n, k", [(1000.5, 2), (1000, 2.5), (1000, True), (True, 2), ("1000", 2), (1000, None)]
    )
    def test_non_integer_sizes_are_rejected(self, n, k):
        with pytest.raises(ValueError, match="expected an integer"):
            RateQuery(n, 0.01, k)

    def test_integral_sizes_are_ints(self):
        big = RateQuery(np.int64(1000), 0.01, 2**1000)
        assert big.k == 2**1000 and type(big.n) is int and big.n == 1000
        q = RateQuery(1000.0, 0.01, np.uint8(16))
        assert (q.n, q.k) == (1000, 16) and type(q.n) is int and type(q.k) is int


class TestCooperationGain:
    def test_k1_no_gain(self):
        g = cooperation_gain(adder2(), RateQuery(1000, 0.01, 1))
        assert g == {"gain_bits_per_use": 0.0, "gain_total_bits": 0.0}

    def test_keys_name_the_query_units(self):
        mac = adder2()
        bits = cooperation_gain(mac, RateQuery(1000, 0.01, 16))
        nats = cooperation_gain(mac, RateQuery(1000, 0.01, 16, "nats"))
        assert set(nats) == {"gain_nats_per_use", "gain_total_nats"}
        assert nats["gain_nats_per_use"] == pytest.approx(
            bits["gain_bits_per_use"] * math.log(2), rel=1e-9
        )
        assert nats["gain_total_nats"] == nats["gain_nats_per_use"] * 1000
        assert cooperation_gain(mac, RateQuery(1000, 0.01, 1, "nats")) == {
            "gain_nats_per_use": 0.0,
            "gain_total_nats": 0.0,
        }

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
    def test_unknown_units_are_rejected(self):
        with pytest.raises(ValueError, match="unknown units 'bitz'"):
            thm3_sum_rate(adder2(), RateQuery(1000, 0.01, 2, "bitz"))
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
