import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from sk_reference import reference_cdf

import cfmac.gauss_max
from cfmac.cli import main
from cfmac.errors import DegenerateBothZero, NonConvergence, TargetOutOfRange
from cfmac.gauss_max import (
    SkParams,
    lemma1_bounds,
    sk_cdf,
    sk_inverse_cdf,
    sk_quantile_derivative,
)

# Monte Carlo oracle, frozen: 2e7 samples of sqrt(0.3) Z0 + sqrt(0.7) max of 8
# standard normals (seed 20260824).  Three-sigma half-widths are ~3e-4.
MC_ORACLE = {0.5: 0.177905, 1.5: 0.666876, 2.5: 0.956380}
MC_PARAMS = SkParams(v1=0.7, v2=0.3, k=8)
MC_QUANTILE_05 = -0.015060  # empirical 0.05-quantile of the same sample



def _sweep(seed: int, count: int):
    """(params, s, eps): V1 and V2 log-uniform on [1e-4, 30], log2 K uniform on
    [0, 1100] or [0, 64] in turn, s within 6 standard deviations of the law."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        v1, v2 = (float(v) for v in np.exp(rng.uniform(math.log(1e-4), math.log(30.0), 2)))
        log2_k = rng.uniform(0.0, 64.0) if i % 2 else rng.uniform(0.0, 1100.0)
        if log2_k < 60:
            k = max(1, round(2.0**log2_k))
        else:
            k = 2 ** int(log2_k) + int(rng.integers(0, 2**20))
        u_half = cfmac.gauss_max._max_quantile(-math.log(2.0), k)
        sd = math.sqrt(v2 + v1 / (2.0 * math.log(k + 2)))
        s = math.sqrt(v1) * u_half + sd * float(rng.uniform(-6.0, 6.0))
        yield SkParams(v1, v2, k), s, float(rng.uniform(1e-3, 1.0 - 1e-3))


SWEEP = [
    *_sweep(20261019, 240),
    # V1 << V2 at large K: the max term's step is sharp, and adaptive quadrature
    # at 1e-10 put F at 0.49999999999999994 here, where it is 0.4999999987528
    (SkParams(0.002354875604694378, 7.124048492005976, 2**60), 0.42883076781399415, 0.5),
    (SkParams(1.0, 1.0, 2**1100), 30.0, 0.01),
    (SkParams(0.5, 3.0, 2**1024), 25.0, 0.3),
    (SkParams(20.0, 1e-4, 2**1024 - 1), 167.0, 0.9),
    (SkParams(1e-4, 25.0, 2**1099 + 12345), -3.0, 0.001),
    (SkParams(1.3, 0.6, 1), 0.5, 0.2),
    (SkParams(1.3, 0.6, 2), 0.5, 0.2),
]


class TestParams:
    @pytest.mark.parametrize("k", [2.5, True, False, "2", None])
    def test_non_integer_k_is_rejected(self, k):
        with pytest.raises(ValueError, match="expected an integer"):
            SkParams(1.0, 1.0, k)

    @pytest.mark.parametrize(
        "v1, v2", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_non_finite_variance_is_rejected(self, v1, v2):
        with pytest.raises(ValueError, match="finite"):
            SkParams(v1, v2, 4)

    def test_variance_sum_overflow_is_rejected(self):
        # each component is finite, but S_K's scale sqrt(V1 + V2) is not
        with pytest.raises(ValueError, match=r"finite sum, got 1e\+308, 1e\+308"):
            SkParams(1e308, 1e308, 4)

    def test_integral_k_is_an_int(self):
        assert SkParams(1.0, 1.0, 2**1000).k == 2**1000
        for k in (np.int64(16), np.uint8(16), 16.0):
            p = SkParams(1.0, 1.0, k)
            assert p.k == 16 and type(p.k) is int


class TestCdf:
    def test_matches_monte_carlo_oracle(self):
        for s, target in MC_ORACLE.items():
            assert sk_cdf(MC_PARAMS, s) == pytest.approx(target, abs=1.5e-3)

    def test_k1_is_plain_gaussian(self):
        p = SkParams(0.4, 0.6, 1)
        for s in (-1.0, 0.0, 2.0):
            exact = 0.5 * (1 + math.erf(s / math.sqrt(2.0)))
            assert sk_cdf(p, s) == pytest.approx(exact, abs=1e-9)

    def test_v2_zero_closed_form(self):
        p = SkParams(1.0, 0.0, 16)
        phi = 0.5 * (1 + math.erf(1.0 / math.sqrt(2.0)))
        assert sk_cdf(p, 1.0) == pytest.approx(phi**16, rel=1e-9)

    def test_v1_zero_closed_form(self):
        p = SkParams(0.0, 4.0, 1024)  # max term vanishes entirely
        assert sk_cdf(p, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_step(self):
        p = SkParams(0.0, 0.0, 3)
        assert p.degenerate
        assert sk_cdf(p, -1e-9) == 0.0 and sk_cdf(p, 0.0) == 1.0

    def test_monotone_in_s_and_k(self):
        p = SkParams(1.0, 1.0, 32)
        grid = np.linspace(-4, 8, 25)
        vals = [sk_cdf(p, s) for s in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        # larger K shifts mass upward: CDF decreases pointwise
        assert sk_cdf(SkParams(1.0, 1.0, 64), 2.0) <= sk_cdf(p, 2.0)


class TestAgainstReference:
    """The panel rule against ``tests/sk_reference.py`` on a seeded sweep."""

    def test_cdf_within_1e_12_and_certified(self):
        for p, s, _ in SWEEP:
            value, error = cfmac.gauss_max._cdf_and_error(p, s)
            assert abs(value - reference_cdf(p.v1, p.v2, p.k, s)) <= 1e-12, (p, s)
            assert error <= 1e-9, (p, s)

    def test_quantile_hits_eps_within_1e_9(self):
        for p, _, eps in SWEEP[::6] + SWEEP[-7:]:
            q = sk_inverse_cdf(p, eps)
            assert abs(reference_cdf(p.v1, p.v2, p.k, q.value) - eps) <= 1e-9, (p, eps)

    def test_kronrod_table(self):
        nodes, weights = cfmac.gauss_max._RULE
        kronrod, embedded = weights[:, 0], weights[:, 0] - weights[:, 1]
        for d in range(32):  # the 21-point Kronrod rule is exact to degree 31
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert kronrod @ nodes**d == pytest.approx(exact, abs=1e-14)
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(10)
        on = embedded != 0.0
        np.testing.assert_allclose(nodes[on], gauss_x, atol=1e-15)
        np.testing.assert_allclose(embedded[on], gauss_w, atol=1e-15)


class TestQuadratureCertificate:
    # the 3-point Kronrod extension of the 1-point Gauss rule: far too coarse
    COARSE = cfmac.gauss_max._gauss_kronrod((math.sqrt(0.6), 0.0), (5.0 / 9.0, 8.0 / 9.0), (2.0,))

    def test_coarse_rule_raises(self, monkeypatch):
        monkeypatch.setattr(cfmac.gauss_max, "_RULE", self.COARSE)
        with pytest.raises(NonConvergence, match="quadrature error estimate"):
            sk_inverse_cdf(SkParams(1.0, 1.0, 1024), 0.01)

    def test_coarse_rule_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(cfmac.gauss_max, "_RULE", self.COARSE)
        code = main(["invcdf", "--v1", "1", "--v2", "1", "--k", "1024", "--eps", "0.01"])
        out, err = capsys.readouterr()
        assert code == 4 and out == ""
        assert "quadrature error estimate" in err

    def test_closed_forms_need_no_rule(self, monkeypatch):
        monkeypatch.setattr(cfmac.gauss_max, "_RULE", self.COARSE)
        for p in (SkParams(1.0, 1.0, 1), SkParams(0.0, 1.0, 8), SkParams(1.0, 0.0, 8)):
            assert sk_inverse_cdf(p, 0.01).achieved_probability == pytest.approx(0.01, abs=1e-12)


class TestInverseCdf:
    def test_baseline_k1_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v1, v2 = rng.uniform(0.05, 3.0, size=2)
            eps = rng.uniform(0.01, 0.99)
            got = sk_inverse_cdf(SkParams(v1, v2, 1), eps).value
            want = math.sqrt(v1 + v2) * float(ndtri(eps))
            assert got == pytest.approx(want, abs=1e-7)

    def test_k1_is_exactly_the_normal_law(self):
        p = SkParams(0.4, 0.6, 1)
        for s in (-1.0, 0.0, 2.0):
            assert sk_cdf(p, s) == float(ndtr(s))
        assert sk_inverse_cdf(SkParams(0.7, 1.8, 1), 0.01).value == math.sqrt(2.5) * float(ndtri(0.01))

    def test_matches_monte_carlo_quantile(self):
        got = sk_inverse_cdf(MC_PARAMS, 0.05).value
        assert got == pytest.approx(MC_QUANTILE_05, abs=2e-3)

    def test_round_trip(self):
        for k in (1, 2, 2**10, 2**30):
            for eps in (0.001, 0.01, 0.3, 0.9):
                p = SkParams(1.3, 0.6, k)
                q = sk_inverse_cdf(p, eps)
                assert sk_cdf(p, q.value) == pytest.approx(eps, abs=1e-8)
                assert q.achieved_probability == pytest.approx(eps, abs=q.tolerance)

    def test_eps_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            sk_inverse_cdf(SkParams(1, 1, 2), 1.5)
        with pytest.raises(TargetOutOfRange):
            sk_inverse_cdf(SkParams(1, 1, 2), 0.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateBothZero):
            sk_inverse_cdf(SkParams(0.0, 0.0, 2), 0.5)

    def test_quantile_increases_with_k(self):
        vals = [sk_inverse_cdf(SkParams(1, 1, 2**j), 0.01).value for j in range(0, 24, 4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestKPastTheFloatRange:
    """K >= 2^1024 is no float: the law takes it through ln K."""

    def test_cdf_squares_when_k_doubles(self):
        # V2 = 0: F_2K = F_K^2, with K = 2^1023 a float and 2K = 2^1024 not
        low, high = (sk_cdf(SkParams(1.0, 0.0, 2**j), 37.5) for j in (1023, 1024))
        assert 0.0 < high < low < 1.0
        assert high == pytest.approx(low**2, rel=1e-9)

    def test_closed_form_quantile_of_2k_at_eps_is_that_of_k_at_root_eps(self):
        q = sk_inverse_cdf(SkParams(1.0, 0.0, 2**1024), 0.01).value
        assert q == pytest.approx(sk_inverse_cdf(SkParams(1.0, 0.0, 2**1023), 0.1).value, rel=1e-12)

    @pytest.mark.parametrize("v2", [0.0, 1.0])
    @pytest.mark.parametrize("log2_k", [1024, 2000])
    def test_quantiles_round_trip_within_lemma1_bounds(self, v2, log2_k):
        p = SkParams(1.0, v2, 2**log2_k)
        low, high = sk_inverse_cdf(p, 0.01), sk_inverse_cdf(p, 0.99)
        for q, eps in ((low, 0.01), (high, 0.99)):
            assert abs(q.achieved_probability - eps) <= q.tolerance
        bounds = lemma1_bounds(p, 0.01)
        assert bounds.lower_at_eps <= low.value < high.value <= bounds.upper_at_one_minus_eps
        assert low.value > sk_inverse_cdf(SkParams(1.0, v2, 2 ** (log2_k - 1)), 0.01).value

    @pytest.mark.parametrize("v2", [0.0, 1.0])
    @pytest.mark.parametrize("k", [2**1024 - 2**970, 2**1024 - 1])
    def test_k_that_float_rounds_up_to_2_1024(self, v2, k):
        # float() rounds every int from 2^1024 - 2^970 up to 2^1024 and raises,
        # so these K take the ln K form
        p, top = SkParams(1.0, v2, k), SkParams(1.0, v2, 2**1024)
        q = sk_inverse_cdf(p, 0.01)
        assert q.value == pytest.approx(sk_inverse_cdf(top, 0.01).value, rel=1e-9)
        assert sk_cdf(p, q.value) == pytest.approx(sk_cdf(top, q.value), abs=1e-8)


class TestLnKFromTwoTo53:
    """From K = 2^53 the law takes K through ln K, well before float(K) overflows."""

    @pytest.mark.parametrize("log2_k", [1022, 1023])
    @pytest.mark.parametrize("s", [37.5, 38.0])
    def test_cdf_squares_when_k_doubles_below_2_1024(self, log2_k, s):
        # V2 = 0: F_2K = F_K^2; the product form lost this tail as log Phi turned subnormal
        low, high = (sk_cdf(SkParams(1.0, 0.0, 2**j), s) for j in (log2_k, log2_k + 1))
        assert high == pytest.approx(low**2, abs=1e-12)

    @pytest.mark.parametrize("v2", [0.0, 1.0])
    def test_quantile_is_continuous_across_2_53(self, v2):
        ks = (2**53 - 1, 2**53, 2**53 + 2)
        q = [sk_inverse_cdf(SkParams(1.0, v2, k), 0.01).value for k in ks]
        assert q[0] == q[1] == q[2]

    def test_quantile_is_continuous_where_float_k_overflows(self):
        below, at = (
            sk_inverse_cdf(SkParams(1.0, 1.0, k), 0.01).value
            for k in (2**1024 - 2**970 - 1, 2**1024 - 2**970)
        )
        assert below == pytest.approx(at, rel=1e-12)


class TestLemma1Bounds:
    def test_inapplicable_for_small_k(self):
        b = lemma1_bounds(SkParams(1, 1, 2), 0.01)
        assert not b.applicable and b.lower_at_eps is None

    def test_printed_example_values(self):
        # K = 2^20, eps = 0.01, V1 = V2 = 1
        b = lemma1_bounds(SkParams(1.0, 1.0, 2**20), 0.01)
        assert b.applicable
        assert b.lower_at_eps == pytest.approx(1.1020, abs=5e-4)
        assert b.upper_at_one_minus_eps == pytest.approx(11.9825, abs=5e-4)

    def test_sandwich(self):
        for k in (2**10, 2**15, 2**20, 2**30):
            for eps in (0.001, 0.01, 0.1):
                p = SkParams(1.0, 1.0, k)
                b = lemma1_bounds(p, eps)
                if b.applicable:
                    assert sk_inverse_cdf(p, eps).value >= b.lower_at_eps
                assert sk_inverse_cdf(p, 1.0 - eps).value <= b.upper_at_one_minus_eps


class TestQuantileDerivative:
    def test_positive_and_bounded(self):
        d = sk_quantile_derivative(SkParams(1, 1, 1024), 0.1)
        assert 0.0 < d < 50.0

    def test_step_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            sk_quantile_derivative(SkParams(1, 1, 2), 0.99995)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(0.05, 4.0),
    st.floats(0.0, 4.0),
    st.integers(1, 2**20),
    st.floats(0.01, 0.99),
)
def test_quantile_round_trip_random(v1, v2, k, eps):
    p = SkParams(v1, v2, k)
    q = sk_inverse_cdf(p, eps)
    assert sk_cdf(p, q.value) == pytest.approx(eps, abs=1e-7)
