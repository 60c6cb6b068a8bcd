"""Acceptance gate: one test (one pass/fail line under pytest -v) per criterion.

The expensive simulation grid used by criteria 9 and 10 is computed once in a
module fixture and shared.
"""
import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import beta

from cfmac.channel import (
    Mac,
    ProductDist,
    adder2,
    channel_stats,
    info_density_tables,
    mutual_information,
    sum_capacity,
    uniform_product,
    xor_channel,
)
from cfmac.cli import main as cli_main
from cfmac.code_sim import (
    SimConfig,
    default_thresholds,
    estimate_error,
    fbl_bound,
)
from cfmac.delta_curve import delta, delta_small_a
from cfmac.gauss_max import (
    SkParams,
    lemma1_bounds,
    sk_cdf,
    sk_inverse_cdf,
    sk_quantile_derivative,
)
from cfmac.rate_bounds import RateQuery, cooperation_gain, rate_report

import gather_reference

UNIFORM = ProductDist(np.array([0.5, 0.5]), np.array([0.5, 0.5]))


def test_criterion_01_baseline_quantile_closed_form():
    """K=1 quantile equals sqrt(v1+v2) times the normal quantile."""
    rng = np.random.default_rng(101)
    for _ in range(20):
        v1, v2 = rng.uniform(0.05, 3.0, size=2)
        eps = rng.uniform(0.01, 0.99)
        got = sk_inverse_cdf(SkParams(v1, v2, 1), eps).value
        want = math.sqrt(v1 + v2) * float(ndtri(eps))
        assert got == pytest.approx(want, abs=1e-7)


def test_criterion_02_quantile_curve_reproduction(capsys):
    """Default curve: strictly increasing, correct K=1 value, inside bounds."""
    code = cli_main(["fig1"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 41  # K = 2^0 .. 2^40
    quantiles = [float(r[1]) for r in rows]
    assert quantiles[0] == pytest.approx(
        math.sqrt(2.0) * float(ndtri(0.01)), abs=1e-4
    )
    assert all(b > a for a, b in zip(quantiles, quantiles[1:]))
    for r in rows:
        q = float(r[1])
        if r[2] != "NA":
            assert q >= float(r[2])  # analytic lower bound at eps
        assert q <= float(r[3])  # upper bound at 1-eps dominates the eps-quantile


def test_criterion_03_analytic_bound_sandwich():
    """Numeric quantiles respect both analytic inequalities on the grid."""
    for k in (2**10, 2**15, 2**20, 2**30):
        for eps in (0.001, 0.01, 0.1):
            p = SkParams(1.0, 1.0, k)
            b = lemma1_bounds(p, eps)
            if b.applicable:
                assert sk_inverse_cdf(p, eps).value >= b.lower_at_eps
            assert sk_inverse_cdf(p, 1.0 - eps).value <= b.upper_at_one_minus_eps


def test_criterion_04_quantile_derivative_bounded():
    """Finite-difference quantile derivative shows no growth trend in K."""
    for eps in (0.01, 0.1, 0.5):
        derivs = [
            sk_quantile_derivative(SkParams(1.0, 1.0, 2**j), eps) for j in range(21)
        ]
        small_k_max = max(derivs[:6])  # K <= 2^5
        assert max(derivs) <= 1.5 * small_k_max


def test_criterion_05_channel_statistics_oracles():
    """Exact-enumeration statistics plus the law of total variance."""
    s = channel_stats(adder2(), UNIFORM)
    assert s.mutual_info == pytest.approx(1.5, abs=1e-6)
    assert s.v1 == pytest.approx(0.25, abs=1e-6)
    assert s.v2 == pytest.approx(0.0, abs=1e-6)

    s = channel_stats(xor_channel(0.11), UNIFORM)
    h = -(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89))
    gap = math.log2(0.89 / 0.11)
    assert s.mutual_info == pytest.approx(1.0 - h, abs=1e-6)
    assert s.v1 == pytest.approx(0.0, abs=1e-6)
    assert s.v2 == pytest.approx(0.89 * 0.11 * gap * gap, abs=1e-6)

    rng = np.random.default_rng(105)
    for _ in range(10):
        kernel = rng.random((2, 3, 3))
        kernel /= kernel.sum(axis=-1, keepdims=True)
        mac = Mac(kernel)
        p1 = rng.random(2)
        p2 = rng.random(3)
        d = ProductDist(p1 / p1.sum(), p2 / p2.sum())
        s = channel_stats(mac, d, units="nats")
        t = info_density_tables(mac, d, units="nats")
        w = d.joint()[:, :, None] * mac.kernel
        i = np.where(np.isfinite(t.i_joint), t.i_joint, 0.0)
        var = (w * (i - (w * i).sum()) ** 2).sum()
        assert s.v1 + s.v2 == pytest.approx(var, abs=1e-9)


def test_criterion_06_capacity_solver_vs_brute_force():
    """Solver matches a 1/200-resolution grid search on random channels."""
    rng = np.random.default_rng(106)
    grid = np.linspace(0.0, 1.0, 201)
    for _ in range(10):
        kernel = rng.random((2, 2, 3))
        kernel /= kernel.sum(axis=-1, keepdims=True)
        mac = Mac(kernel)
        best = 0.0
        for q in grid:
            p1 = np.array([q, 1.0 - q])
            for r in grid:
                d = ProductDist(p1, np.array([r, 1.0 - r]))
                best = max(best, mutual_information(mac, d))
        assert sum_capacity(mac).c_sum == pytest.approx(best, abs=1e-4)


def test_criterion_07_small_budget_asymptote():
    """delta(a) approaches sqrt(2 a V1* ln 2) from below as a shrinks."""
    mac = adder2()
    cap = sum_capacity(mac)
    ratios = []
    for a in (1e-2, 1e-3, 1e-4):
        ratios.append(delta(mac, a, capacity=cap).delta / delta_small_a(cap.v1_star, a))
    assert 0.9 <= ratios[-1] <= 1.02
    assert all(b >= a - 0.02 for a, b in zip(ratios, ratios[1:]))


def test_criterion_08_dependence_benefit_vs_brute_force():
    """delta(a) matches a joint-simplex grid search on random 2x2x2 channels."""
    rng = np.random.default_rng(108)
    n = 100
    idx = np.arange(n + 1)
    i, j, k = np.meshgrid(idx, idx, idx, indexing="ij")
    mask = i + j + k <= n
    p = np.stack([i[mask], j[mask], k[mask], n - i[mask] - j[mask] - k[mask]], 1) / n
    p1 = np.stack([p[:, [0, 1]].sum(1), p[:, [2, 3]].sum(1)], 1)
    p2 = np.stack([p[:, [0, 2]].sum(1), p[:, [1, 3]].sum(1)], 1)
    prod = (p1[:, :, None] * p2[:, None, :]).reshape(-1, 4)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0, p * (np.log2(p) - np.log2(prod)), 0.0)
    mi12 = r.sum(1)
    for _ in range(5):
        kernel = rng.random((2, 2, 2))
        kernel /= kernel.sum(axis=-1, keepdims=True)
        mac = Mac(kernel)
        wflat = kernel.reshape(4, 2)
        py = p @ wflat
        with np.errstate(divide="ignore", invalid="ignore"):
            logt = np.log2(wflat[None]) - np.log2(py[:, None, :])
            term = np.where(wflat[None] > 0, wflat[None] * logt, 0.0)
        tsum = term.sum(-1)
        tsum[~np.isfinite(tsum)] = 0.0
        mi_xy = (p * tsum).sum(1)
        cap = sum_capacity(mac)
        for a in (0.01, 0.1, 1.0):
            want = mi_xy[mi12 <= a].max() - cap.c_sum
            got = delta(mac, a, capacity=cap).delta
            assert got == pytest.approx(want, abs=5e-3)


@pytest.fixture(scope="module")
def simulation_grid():
    """n=50, M1=M2=4, K in {1,2,4}, 1e5 ensemble trials per config.

    For each channel and K, records the run with the K-dependent default
    thresholds (plus its error bound) and a companion run with thresholds
    pinned at the K=1 defaults, isolating the facilitation benefit.
    """
    grid = {}
    for name, mac in (("adder2", adder2()), ("xor11", xor_channel(0.11))):
        pinned = default_thresholds(mac, UNIFORM, 50, 4, 4, 1, "iid")
        for k in (1, 2, 4):
            cfg = SimConfig(
                mac=mac, dist=UNIFORM, n=50, m1_count=4, m2_count=4, k=k,
                mode="iid", trials=10**5, seed=42,
            )
            report = estimate_error(cfg)
            bound = fbl_bound(cfg, mc_samples=10**5)
            pinned_report = estimate_error(
                SimConfig(
                    mac=mac, dist=UNIFORM, n=50, m1_count=4, m2_count=4, k=k,
                    mode="iid", thresholds=pinned, trials=10**5, seed=42,
                )
            )
            grid[name, k] = (report, bound, pinned_report)
    return grid


def test_criterion_09_error_bound_dominates_simulation(simulation_grid):
    """fbl_bound sits above the lower CI endpoint in every configuration."""
    for (name, k), (report, bound, _) in simulation_grid.items():
        assert bound >= report.ci95[0], (name, k)


def test_criterion_10_cooperation_monotonicity(simulation_grid):
    """More facilitation never hurts: error and best-rate monotonicity.

    The simulated comparison pins decoder thresholds at their K=1 values so
    K only adds facilitator choices; the default thresholds grow with K by
    construction, which would mechanically raise the error on a channel the
    facilitator cannot help (flat expected density).
    """
    for name in ("adder2", "xor11"):
        reports = [simulation_grid[name, k][2] for k in (1, 2, 4)]
        for lo, hi in zip(reports, reports[1:]):
            width = max(lo.ci95[1] - lo.ci95[0], hi.ci95[1] - hi.ci95[0])
            assert hi.p_hat <= lo.p_hat + 2.0 * width, name

    cap = sum_capacity(adder2())
    adder_rates = [
        rate_report(adder2(), RateQuery(1000, 0.01, k), capacity=cap).best_rate
        for k in (1, 2, 4)
    ]
    assert all(b > a for a, b in zip(adder_rates, adder_rates[1:]))

    mac = xor_channel(0.11)
    cap = sum_capacity(mac)
    xor_rates = {
        rate_report(mac, RateQuery(1000, 0.01, k), capacity=cap).best_rate
        for k in (1, 2, 4)
    }
    assert len(xor_rates) == 1


def test_criterion_11_exhaustive_micro_oracle():
    """Exact ensemble error at n=2 (full enumeration) matches the estimator."""
    mac = adder2()
    n, m, k = 2, 2, 2
    th = default_thresholds(mac, UNIFORM, n, m, m, k, "iid")
    tables = gather_reference.decode_tables(mac, UNIFORM, th.units)
    i_bar = info_density_tables(mac, UNIFORM, units="nats").i_bar

    # all 256 equiprobable codebooks per user: 8 uniform binary symbols each
    bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.int64)
    per_user = bits.reshape(256, m, k, n)
    f1 = np.repeat(per_user, 256, axis=0)
    f2 = np.tile(per_user, (256, 1, 1, 1))
    e = gather_reference.score_argmax(i_bar, f1, f2)
    x1, x2 = gather_reference.selected_words(f1, f2, e)
    total_error = 0.0
    for m1 in range(m):
        for m2 in range(m):
            y = x1[:, m1, m2] + x2[:, m1, m2]  # noiseless adder output
            s12, s1, s2 = gather_reference.decode_metrics(tables, x1, x2, y)
            passes = (s12 >= th.c12) & (s1 >= th.c1) & (s2 >= th.c2)
            npass = passes.sum(axis=(1, 2))
            correct = (npass == 1) & passes[:, m1, m2]
            total_error += (~correct).mean()
    exact = total_error / (m * m)

    cfg = SimConfig(
        mac=mac, dist=UNIFORM, n=n, m1_count=m, m2_count=m, k=k,
        mode="iid", trials=10**6, seed=1101,
    )
    rep = estimate_error(cfg)
    lo = float(beta.ppf(0.005, rep.errors, rep.trials - rep.errors + 1))
    hi = float(beta.ppf(0.995, rep.errors + 1, rep.trials - rep.errors))
    assert lo <= exact <= hi


def test_criterion_12_single_bit_gain_scaling():
    """One facilitator bit buys Theta(sqrt(n)) total message bits."""
    mac = adder2()
    cap = sum_capacity(mac)
    const = 0.5 * (float(ndtri(math.sqrt(0.01))) - float(ndtri(0.01)))
    for n in (10**3, 10**5, 10**7):
        g = cooperation_gain(mac, RateQuery(n, 0.01, 2), capacity=cap)
        assert g["gain_bits_per_use"] * math.sqrt(n) == pytest.approx(const, abs=1e-6)
