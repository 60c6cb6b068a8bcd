"""Achievable sum-rate curves for the facilitated MAC at finite blocklength.

Two lower bounds are evaluated: a dispersion-style bound built on the
max-of-Gaussians quantile (valid for moderate facilitator alphabets) and a
type-based bound built on the correlation-benefit curve (valid for large
ones), together with the non-facilitated K=1 baseline.  Asymptotically
unspecified constants default to the values traceable in the constructions
and to zero elsewhere; every applied constant is echoed in the report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.special import ndtri

from .channel import CapacityResult, ChannelStats, Mac, _capacity_in, _log_units, channel_stats
from .delta_curve import delta
from .gauss_max import SkParams, sk_inverse_cdf


@dataclass(frozen=True)
class RateQuery:
    n: int
    eps: float
    k: int
    units: str = "bits"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class Thm2Result:
    rate: float
    regime: str
    theta_n: float
    quantile: float
    corrections_used: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Thm3Result:
    rate: float
    budget: float
    delta_value: float
    budget_exhausted: bool
    corrections_used: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RateReport:
    thm2_rate: float | None
    thm3_rate: float | None
    baseline_rate: float
    best_rate: float
    regime: str
    corrections_used: dict
    flags: list[str]
    units: str = "bits"


def theta_regime(n: int, k: int, units: str = "bits") -> tuple[str, str]:
    """Regime tag and the matching correction shape for the dispersion bound."""
    ln = _log_units(n, units)
    if k <= ln:
        return "theta1", "log(n)/n"
    if k <= ln ** 1.5:
        return "theta2", "K/n"
    if k <= n:
        return "theta3", "log^{3/2}(n)/n"
    return "theta4", "log^{3/2}(K)/n"


def _theta_value(n: int, k: int, regime: str, coeff: float, units: str) -> float:
    ln = _log_units(n, units)
    if regime == "theta1":
        return coeff * ln / n
    if regime == "theta2":
        return coeff * k / n
    if regime == "theta3":
        return coeff * ln ** 1.5 / n
    return coeff * _log_units(k, units) ** 1.5 / n


def thm2_sum_rate(
    stats: ChannelStats,
    q: RateQuery,
    corrections: dict | None = None,
    c_sum: float | None = None,
) -> Thm2Result:
    """Dispersion-style achievable sum-rate at a capacity-achieving product law.

    rate = C_sum + quantile(eps) / sqrt(n) - theta_n; theta_n defaults to 0
    (normal-approximation convention) with the regime shape selected by K
    versus n and scaled by a user-supplied constant.
    """
    corrections = dict(corrections or {})
    if stats.units != q.units:
        raise ValueError("stats and query use different units")
    c = stats.mutual_info if c_sum is None else c_sum
    quantile = sk_inverse_cdf(SkParams(stats.v1, stats.v2, q.k), q.eps).value
    regime, shape = theta_regime(q.n, q.k, q.units)
    coeff = float(corrections.get(regime, 0.0))
    theta = _theta_value(q.n, q.k, regime, coeff, q.units)
    used = {"regime": regime, "theta_shape": shape, "theta_coeff": coeff, "theta_n": theta}
    return Thm2Result(
        rate=c + quantile / math.sqrt(q.n) - theta,
        regime=regime,
        theta_n=theta,
        quantile=quantile,
        corrections_used=used,
    )


def _baseline(
    mac: Mac, q: RateQuery, corrections: dict | None, capacity: CapacityResult
) -> tuple[ChannelStats, Thm2Result]:
    """The K=1 rate, with the caller's corrections, at the dispersion-maximizing
    member of the capacity-achieving set, and that member's stats."""
    best = max(
        (channel_stats(mac, d, units=q.units) for d in capacity.argmax_dists),
        key=lambda s: s.v1,
    )
    k1 = RateQuery(q.n, q.eps, 1, q.units)
    return best, thm2_sum_rate(best, k1, corrections, c_sum=capacity.c_sum)


def thm3_sum_rate(
    mac: Mac,
    q: RateQuery,
    corrections: dict | None = None,
    capacity: CapacityResult | None = None,
) -> Thm3Result:
    """Type-construction achievable sum-rate using the correlation benefit.

    rate = C_sum + delta(budget) - c_b * sqrt(V2/n) * Q^{-1}(eps), with
    budget = log(K)/n - c_a log(n)/n.  The default c_a covers the type-class
    counting penalty; c_b defaults to 1, matching the explicit message-size
    choice in the construction.  A non-positive budget means the facilitator
    alphabet is too small for this construction; the K=1 baseline rate is
    returned, flagged.
    """
    if q.k < 2:
        raise ValueError("the type construction needs k >= 2")
    corrections = dict(corrections or {})
    capacity = _capacity_in(mac, q.units, capacity)
    c_a = float(corrections.get("c_a", mac.x1_size * mac.x2_size + 1))
    c_b = float(corrections.get("c_b", 1.0))
    budget = _log_units(q.k, q.units) / q.n - c_a * _log_units(q.n, q.units) / q.n
    used = {"c_a": c_a, "c_b": c_b, "budget": budget}
    if budget <= 0.0:
        rate, delta_value = _baseline(mac, q, corrections, capacity)[1].rate, 0.0
    else:
        point = delta(mac, budget, units=q.units, capacity=capacity)
        stats_joint = channel_stats(mac, point.argmax_joint, units=q.units)
        q_inv = float(ndtri(1.0 - q.eps))
        rate = capacity.c_sum + point.delta - c_b * math.sqrt(stats_joint.v2 / q.n) * q_inv
        delta_value = point.delta
    return Thm3Result(
        rate=rate,
        budget=budget,
        delta_value=delta_value,
        budget_exhausted=budget <= 0.0,
        corrections_used=used,
    )


def rate_report(
    mac: Mac,
    q: RateQuery,
    corrections: dict | None = None,
    capacity: CapacityResult | None = None,
) -> RateReport:
    """Evaluate both bounds plus the K=1 baseline and record the best."""
    capacity = _capacity_in(mac, q.units, capacity)
    stats, baseline = _baseline(mac, q, corrections, capacity)
    flags: list[str] = []
    corrections_used: dict = {"baseline": baseline.corrections_used}
    if q.k == 1:
        return RateReport(
            thm2_rate=None,
            thm3_rate=None,
            baseline_rate=baseline.rate,
            best_rate=baseline.rate,
            regime=baseline.regime,
            corrections_used=corrections_used,
            flags=flags,
            units=q.units,
        )
    t2 = thm2_sum_rate(stats, q, corrections, c_sum=capacity.c_sum)
    t3 = thm3_sum_rate(mac, q, corrections, capacity=capacity)
    corrections_used["thm2"] = t2.corrections_used
    corrections_used["thm3"] = t3.corrections_used
    if t3.budget_exhausted:
        flags.append("thm3_budget_exhausted")
    return RateReport(
        thm2_rate=t2.rate,
        thm3_rate=t3.rate,
        baseline_rate=baseline.rate,
        best_rate=max(t2.rate, t3.rate, baseline.rate),
        regime=t2.regime,
        corrections_used=corrections_used,
        flags=flags,
        units=q.units,
    )


def cooperation_gain(
    mac: Mac,
    q: RateQuery,
    corrections: dict | None = None,
    capacity: CapacityResult | None = None,
) -> dict:
    """Best-rate improvement of K-fold facilitation over no facilitation."""
    if q.k == 1:
        return {"gain_bits_per_use": 0.0, "gain_total_bits": 0.0}
    with_cf = rate_report(mac, q, corrections, capacity)
    gain = with_cf.best_rate - with_cf.baseline_rate
    return {"gain_bits_per_use": gain, "gain_total_bits": gain * q.n}
