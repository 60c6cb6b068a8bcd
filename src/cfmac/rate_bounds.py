"""Achievable sum-rate curves for the facilitated MAC at finite blocklength.

Two lower bounds are evaluated next to the non-facilitated K=1 baseline:

- Thm 2, a dispersion-style bound built on the max-of-Gaussians quantile
  (valid for moderate facilitator alphabets): C + Q_{S_K}(eps)/sqrt(n).  The
  paper's third-order term theta_n has unspecified constants and is taken as
  0, the normal-approximation convention; ``theta_regime`` names the regime
  its shape would follow.
- Thm 3, a type-based bound built on the correlation-benefit curve (valid for
  large ones): C + delta(log(K)/n - c_a log(n)/n) - sqrt(V2/n) Q^{-1}(eps), with
  c_a = A1*A2 + 1, the construction's type-class counting penalty.

The baseline is the K=1 Thm-2 rate.  ``rate_report`` owns it: it is the only
place the baseline stands in for a Thm-3 bound whose budget is exhausted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ndtri

from .channel import (
    CapacityResult,
    ChannelStats,
    Mac,
    _capacity_in,
    _integer,
    _log_units,
    channel_stats,
)
from .delta_curve import delta
from .gauss_max import SkParams, sk_inverse_cdf


@dataclass(frozen=True)
class RateQuery:
    n: int
    eps: float
    k: int
    units: str = "bits"

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n))
        object.__setattr__(self, "k", _integer(self.k))
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
    quantile: float


@dataclass(frozen=True)
class Thm3Result:
    rate: float | None  # None when the budget is exhausted (K <= n^c_a): the bound does not apply
    budget: float  # in the query's units: <= 0 when exhausted, else >= 0
    delta_value: float
    budget_exhausted: bool


@dataclass(frozen=True)
class RateReport:
    thm2_rate: float | None
    thm3_rate: float | None
    baseline_rate: float
    best_rate: float
    regime: str
    flags: list[str]
    units: str = "bits"


def theta_regime(n: int, k: int) -> str:
    """Regime of the dispersion bound's theta_n: K against log n, log^1.5 n and n.

    The regimes are orders of growth, so log n is log2 n whatever the units of
    the rates: the tag of one (n, K) is the same in bits and nats.
    """
    log_n = math.log2(n)
    if k <= log_n:
        return "theta1"
    if k <= log_n ** 1.5:
        return "theta2"
    if k <= n:
        return "theta3"
    return "theta4"


def thm2_sum_rate(stats: ChannelStats, q: RateQuery, c_sum: float | None = None) -> Thm2Result:
    """Dispersion-style achievable sum-rate at a capacity-achieving product law.

    rate = C_sum + quantile(eps) / sqrt(n), with theta_n = 0.  On a channel of
    zero dispersion (V1 = V2 = 0) S_K is the point mass at 0, whose every
    quantile is 0, so the rate is C_sum.
    """
    if stats.units != q.units:
        raise ValueError("stats and query use different units")
    c = stats.mutual_info if c_sum is None else c_sum
    sk = SkParams(stats.v1, stats.v2, q.k)
    quantile = 0.0 if sk.degenerate else sk_inverse_cdf(sk, q.eps).value
    return Thm2Result(
        rate=c + quantile / math.sqrt(q.n),
        regime=theta_regime(q.n, q.k),
        quantile=quantile,
    )


def thm3_sum_rate(mac: Mac, q: RateQuery, capacity: CapacityResult | None = None) -> Thm3Result:
    """Type-construction achievable sum-rate using the correlation benefit.

    rate = C_sum + delta(budget) - sqrt(V2/n) * Q^{-1}(eps), with
    budget = log(K)/n - c_a log(n)/n and c_a = A1*A2 + 1, which covers the
    type-class counting penalty.  The budget is exhausted exactly when
    K <= n^c_a, which is decided in integers and so alike in every unit: the
    facilitator alphabet is too small for this construction, the result has
    rate None and budget_exhausted set, and ``rate_report`` decides what
    stands in for it.  An exhausted budget solves no sum-capacity.  The
    budget's value can round to the other sign; it is clamped to agree.
    """
    if q.k < 2:
        raise ValueError("the type construction needs k >= 2")
    c_a = mac.x1_size * mac.x2_size + 1
    exhausted = q.k <= q.n**c_a
    budget = _log_units(q.k, q.units) / q.n - c_a * _log_units(q.n, q.units) / q.n
    budget = min(budget, 0.0) if exhausted else max(budget, 0.0)
    if capacity is not None or not exhausted:  # a passed capacity's units are checked either way
        capacity = _capacity_in(mac, q.units, capacity)
    if exhausted:
        return Thm3Result(rate=None, budget=budget, delta_value=0.0, budget_exhausted=True)
    point = delta(mac, budget, units=q.units, capacity=capacity)
    v2 = channel_stats(mac, point.argmax_joint, units=q.units).v2
    q_inv = float(ndtri(1.0 - q.eps))
    return Thm3Result(
        rate=capacity.c_sum + point.delta - math.sqrt(v2 / q.n) * q_inv,
        budget=budget,
        delta_value=point.delta,
        budget_exhausted=False,
    )


def rate_report(mac: Mac, q: RateQuery, capacity: CapacityResult | None = None) -> RateReport:
    """Evaluate both bounds plus the K=1 baseline and record the best.

    The baseline is the K=1 Thm-2 rate at the dispersion-maximizing member of
    the capacity-achieving set.  At K=1 it is the only rate.  When the Thm-3
    budget is exhausted, the baseline is reported as ``thm3_rate`` and the
    flag ``thm3_budget_exhausted`` is set.
    """
    capacity = _capacity_in(mac, q.units, capacity)
    stats = max(
        (channel_stats(mac, d, units=q.units) for d in capacity.argmax_dists),
        key=lambda s: s.v1,
    )
    baseline = thm2_sum_rate(stats, RateQuery(q.n, q.eps, 1, q.units), c_sum=capacity.c_sum)
    thm2_rate = thm3_rate = None
    regime = baseline.regime
    flags: list[str] = []
    if q.k > 1:
        t2 = thm2_sum_rate(stats, q, c_sum=capacity.c_sum)
        t3 = thm3_sum_rate(mac, q, capacity=capacity)
        thm2_rate, thm3_rate, regime = t2.rate, t3.rate, t2.regime
        if t3.budget_exhausted:
            thm3_rate = baseline.rate
            flags.append("thm3_budget_exhausted")
    return RateReport(
        thm2_rate=thm2_rate,
        thm3_rate=thm3_rate,
        baseline_rate=baseline.rate,
        best_rate=max(r for r in (thm2_rate, thm3_rate, baseline.rate) if r is not None),
        regime=regime,
        flags=flags,
        units=q.units,
    )


def cooperation_gain(mac: Mac, q: RateQuery, capacity: CapacityResult | None = None) -> dict:
    """Best-rate improvement of K-fold facilitation over no facilitation.

    The keys name the query's units: ``gain_bits_per_use`` and
    ``gain_total_bits``, or ``gain_nats_per_use`` and ``gain_total_nats``.
    """
    rep = rate_report(mac, q, capacity)
    gain = rep.best_rate - rep.baseline_rate
    return {f"gain_{q.units}_per_use": gain, f"gain_total_{q.units}": gain * q.n}
