"""Law of S_K = sqrt(V2) Z0 + sqrt(V1) max_{k<=K} Z_k: CDF, quantiles, bounds.

The CDF is evaluated by adaptive Gaussian quadrature on the mixing variable,
with the K-th power of the normal CDF kept in log space.  From K = 2^53, the
largest K a float holds exactly, K enters through ln K: there
Phi(u)^K = exp(-K * Q(u)) to float precision, since the transition sits where
the tail Q(u) is about 1/K and the dropped K * Q(u)^2 / 2 is about 1/(2K).
The product form exp(K * log Phi(u)) would lose that tail as K nears 2^1024,
where log Phi(u) ~ -1/K turns subnormal, and float(K) overflows beyond.
Closed forms take over when one of the variance components vanishes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .channel import _integer
from .errors import DegenerateBothZero, TargetOutOfRange

_CDF_ABS_TOL = 1e-10
_QUANTILE_TOL = 1e-9
_Z_CUTOFF = 12.0  # phi mass beyond |z|=12 is ~1.8e-33
_DERIVATIVE_STEP = 1e-4  # half-width of the quantile derivative's central difference
# from this K on, Phi(u)^K comes from ln K: float(K) is no longer exact, and the
# ln K form's relative error ~1/(2K) is below float precision
_LOG_K_FROM = 2**53


@dataclass(frozen=True)
class SkParams:
    """Variance components and facilitator alphabet size."""

    v1: float
    v2: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k))
        if self.v1 < 0 or self.v2 < 0:
            raise ValueError("variance components must be nonnegative")
        if self.k < 1:
            raise ValueError("k must be a positive integer")

    @property
    def degenerate(self) -> bool:
        return self.v1 == 0.0 and self.v2 == 0.0


@dataclass(frozen=True)
class QuantileResult:
    value: float
    achieved_probability: float
    tolerance: float


@dataclass(frozen=True)
class Lemma1Bounds:
    """Analytic quantile bounds; ``lower`` is None when the K condition fails."""

    lower_at_eps: float | None
    upper_at_one_minus_eps: float
    applicable: bool


def _phi_pow(u: float, k: float) -> float:
    """Phi(u)^k via exp(k * log Phi(u))."""
    v = k * float(log_ndtr(u))
    return math.exp(v) if v > -745.0 else 0.0


def _phi_pow_log_k(u: float, log_k: float) -> float:
    """Phi(u)^K via exp(-K * Q(u)), from ln K: exact to float precision for K >= 2^53."""
    v = log_k + float(log_ndtr(-u))
    return math.exp(-math.exp(v)) if v < 7.0 else 0.0


def _max_cdf(k: int):
    """(f, a) with f(u, a) = Phi(u)^K: the product form below 2^53, else from ln K."""
    return (_phi_pow, float(k)) if k < _LOG_K_FROM else (_phi_pow_log_k, math.log(k))


def _max_quantile(log_p: float, k: int) -> float:
    """The u with Phi(u)^K = p, from log p < 0."""
    if k < _LOG_K_FROM:
        return float(ndtri_exp(log_p / k))
    return -float(ndtri_exp(math.log(-log_p) - math.log(k)))  # Q(u) = -log(p) / K


def sk_cdf(p: SkParams, s: float) -> float:
    """F_{S_K}(s) = Pr(S_K <= s), absolute error below 1e-8."""
    if p.degenerate:
        # Point mass at 0; callers can detect this case via p.degenerate.
        return 0.0 if s < 0.0 else 1.0
    if p.v1 == 0.0:
        return float(ndtr(s / math.sqrt(p.v2)))
    sq1 = math.sqrt(p.v1)
    power, k_arg = _max_cdf(p.k)
    if p.v2 == 0.0:
        return power(s / sq1, k_arg)
    sq2 = math.sqrt(p.v2)
    k = p.k

    def integrand(z: float) -> float:
        u = (s - sq2 * z) / sq1
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * power(u, k_arg)

    # The inner factor transitions from 1 to 0 near the median of the max term;
    # hint the adaptive rule at that location.
    u_half = _max_quantile(-math.log(2.0), k)
    z_center = (s - sq1 * u_half) / sq2
    spread = (sq1 / sq2) * 3.0 / math.sqrt(2.0 * math.log(k + 2.0 if k < _LOG_K_FROM else k))
    pts = sorted(
        {
            min(max(z, -_Z_CUTOFF), _Z_CUTOFF)
            for z in (z_center - 4 * spread, z_center, z_center + 4 * spread)
        }
    )
    value, _ = quad(
        integrand,
        -_Z_CUTOFF,
        _Z_CUTOFF,
        points=pts,
        epsabs=_CDF_ABS_TOL,
        epsrel=1e-10,
        limit=400,
    )
    return min(max(value, 0.0), 1.0)


def _bracket(p: SkParams, eps: float) -> tuple[float, float]:
    """Interval [lo, hi] with F(lo) <= eps <= F(hi), seeded from the analytic bounds."""
    scale = math.sqrt(p.v1 + p.v2)
    top = math.sqrt(2.0 * p.v1 * math.log(p.k)) if p.k > 1 else 0.0
    lo = -10.0 * scale
    hi = top + 10.0 * scale
    bounds = lemma1_bounds(p, min(eps, 1.0 - eps))
    if bounds.lower_at_eps is not None:
        lo = max(lo, min(bounds.lower_at_eps, hi - scale))
    while sk_cdf(p, lo) > eps:
        lo -= 10.0 * scale
    while sk_cdf(p, hi) < eps:
        hi += 10.0 * scale
    return lo, hi


def sk_inverse_cdf(p: SkParams, eps: float) -> QuantileResult:
    """Quantile of S_K: the s with F_{S_K}(s) = eps, to within 1e-9 in probability."""
    if not 0.0 < eps < 1.0:
        raise TargetOutOfRange(f"eps must lie in (0, 1), got {eps}")
    if p.degenerate:
        raise DegenerateBothZero("quantile undefined for the point mass at 0")
    if p.v1 == 0.0:
        value = math.sqrt(p.v2) * float(ndtri(eps))
        return QuantileResult(value, sk_cdf(p, value), _QUANTILE_TOL)
    if p.v2 == 0.0:
        value = math.sqrt(p.v1) * _max_quantile(math.log(eps), p.k)
        return QuantileResult(value, sk_cdf(p, value), _QUANTILE_TOL)
    lo, hi = _bracket(p, eps)
    value = float(brentq(lambda s: sk_cdf(p, s) - eps, lo, hi, xtol=1e-13, rtol=8.9e-16))
    achieved = sk_cdf(p, value)
    return QuantileResult(value, achieved, _QUANTILE_TOL)


def lemma1_bounds(p: SkParams, eps: float) -> Lemma1Bounds:
    """Analytic bounds on the quantiles of S_K.

    Lower bound on the eps-quantile is valid only when
    K > e^3 sqrt(2 pi) ln(4/eps); the upper bound on the (1-eps)-quantile
    holds for every K.  Natural logs throughout; outputs inherit the units
    of sqrt(V1), sqrt(V2).
    """
    if not 0.0 < eps < 1.0:
        raise TargetOutOfRange(f"eps must lie in (0, 1), got {eps}")
    k = p.k
    upper = (
        math.sqrt(2.0 * p.v1 * math.log(k))
        + math.sqrt(2.0 * p.v1 * math.log(4.0 / eps))
        + math.sqrt(2.0 * p.v2 * math.log(2.0 / eps))
    )
    applicable = k > math.exp(3.0) * math.sqrt(2.0 * math.pi) * math.log(4.0 / eps)
    lower = None
    if applicable:
        inner = (
            2.0 * math.log(k)
            - 2.0 * math.log(math.log(4.0 / eps))
            - math.log(math.log(k))
            - math.log(4.0 * math.pi)
        )
        if inner >= 0.0:
            lower = math.sqrt(p.v1 * inner) - math.sqrt(2.0 * p.v2 * math.log(2.0 / eps))
        else:
            applicable = False
    return Lemma1Bounds(lower_at_eps=lower, upper_at_one_minus_eps=upper, applicable=applicable)


def sk_quantile_derivative(p: SkParams, eps: float) -> float:
    """Central finite difference of the quantile function at eps, with step ``_DERIVATIVE_STEP``."""
    h = _DERIVATIVE_STEP
    if not (0.0 < eps - h and eps + h < 1.0):
        raise TargetOutOfRange(f"eps +/- h must lie in (0, 1), got eps={eps}, h={h}")
    hi = sk_inverse_cdf(p, eps + h).value
    lo = sk_inverse_cdf(p, eps - h).value
    return (hi - lo) / (2.0 * h)
