"""Law of S_K = sqrt(V2) Z0 + sqrt(V1) max_{k<=K} Z_k: CDF, quantiles, bounds.

F(s) = E[Phi(u)^K] over the mixing variable z ~ N(0, 1), with
u = (s - sqrt(V2) z) / sqrt(V1).  The integrand is phi(z) times a step from
1 to 0 in z, centred where Phi(u)^K = 1/2, with the Gumbel scale of the max
term as its width, w ~ (sqrt(V1) / sqrt(V2)) / sqrt(2 ln K).  Below the
centre the step decays slowly, like K Q(u); above it, doubly exponentially.
The CDF is a fixed composite rule, evaluated as one numpy expression, on
panels for both scales: breakpoints at -40, -20, -10, -5, -2.5, 0, 2.5, 5, 10
and 20 widths from the centre for the step, and every 3 over [-12, 12] for
phi.  Below -40 widths Phi(u)^K is 1 to within 2e-18 for every K >= 2, and
above 20 widths it is below 1e-60, so the rule covers the span between them
and adds the normal mass below it.  Each panel carries the 21-point
Gauss-Kronrod rule; the embedded 10-point Gauss rule gives an error estimate,
which ``sk_inverse_cdf`` checks at the quantile it returns.  Over 6000 seeded
points (V1 and V2 log-uniform on [1e-4, 30], K up to 2^1100) the rule was
within 4e-14 of an adaptive quadrature split at the step to 1e-15
(``tests/sk_reference.py``), and the error estimate stayed below 1e-10.

The K-th power of the normal CDF is kept in log space.  From K = 2^53, the
largest K a float holds exactly, K enters through ln K: there
Phi(u)^K = exp(-K * Q(u)) to float precision, since the transition sits where
the tail Q(u) is about 1/K and the dropped K * Q(u)^2 / 2 is about 1/(2K).
The product form exp(K * log Phi(u)) would lose that tail as K nears 2^1024,
where log Phi(u) ~ -1/K turns subnormal, and float(K) overflows beyond.
Closed forms take over when one of the variance components vanishes, and at
K = 1, where S_1 is N(0, V1 + V2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .channel import _integer
from .errors import DegenerateBothZero, NonConvergence, TargetOutOfRange

_QUANTILE_TOL = 1e-9
_Z_CUTOFF = 12.0  # phi mass beyond |z|=12 is ~1.8e-33
_DERIVATIVE_STEP = 1e-4  # half-width of the quantile derivative's central difference
# from this K on, Phi(u)^K comes from ln K: float(K) is no longer exact, and the
# ln K form's relative error ~1/(2K) is below float precision
_LOG_K_FROM = 2**53
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_PHI_EDGES = np.linspace(-_Z_CUTOFF, _Z_CUTOFF, 9)
# breakpoints around the step's centre, in step widths: the slow side is below
_STEP_EDGES = np.array([-40.0, -20.0, -10.0, -5.0, -2.5, 0.0, 2.5, 5.0, 10.0, 20.0])


def _gauss_kronrod(half_nodes, kronrod, gauss) -> tuple[np.ndarray, np.ndarray]:
    """A Kronrod rule on [-1, 1] from its nodes >= 0, listed from 1 down to 0 with
    their weights, and the embedded Gauss rule's weights at the odd-indexed nodes.

    Returns the nodes and an (n, 2) weight matrix: the Kronrod weights, and the
    Kronrod minus the Gauss weights, whose sum estimates the Gauss rule's error,
    a conservative estimate of the more accurate Kronrod rule's.
    """
    x, wk = np.array(half_nodes, dtype=float), np.array(kronrod, dtype=float)
    wg = np.zeros_like(wk)
    wg[1::2] = gauss
    mirror = slice(-2, None, -1)  # the Kronrod nodes include 0 once
    nodes = np.concatenate((-x, x[mirror]))
    weights = np.concatenate((wk, wk[mirror]))
    embedded = np.concatenate((wg, wg[mirror]))
    return nodes, np.stack((weights, weights - embedded), axis=1)


# the 21-point Kronrod extension of the 10-point Gauss rule (QUADPACK's qk21)
_RULE = _gauss_kronrod(
    (
        0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0,
    ),
    (
        0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980220301, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821,
    ),
    (
        0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
        0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
        0.295524224714752870173892994651146,
    ),
)


@dataclass(frozen=True)
class SkParams:
    """Variance components and facilitator alphabet size."""

    v1: float
    v2: float
    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k))
        # a finite sum of nonnegative terms makes each term and S_K's scale sqrt(V1 + V2) finite
        if not (0.0 <= self.v1 and 0.0 <= self.v2 and self.v1 + self.v2 < math.inf):
            raise ValueError(
                "variance components must be nonnegative with a finite sum, "
                f"got {self.v1!r}, {self.v2!r}"
            )
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


def _max_cdf(u: float, k: int) -> float:
    """Phi(u)^K at one u: the product form below 2^53, else from ln K.

    The closed form at V2 = 0 keeps math.exp: numpy's vector exp can differ
    from it in the last bit.
    """
    if k < _LOG_K_FROM:
        v = k * float(log_ndtr(u))
        return math.exp(v) if v > -745.0 else 0.0
    v = math.log(k) + float(log_ndtr(-u))
    return math.exp(-math.exp(v)) if v < 7.0 else 0.0


def _log_max_cdf_array(u: np.ndarray, k: int) -> np.ndarray:
    """log Phi(u)^K elementwise, in the forms of ``_max_cdf``."""
    if k < _LOG_K_FROM:
        return float(k) * log_ndtr(u)
    return -np.exp(np.minimum(math.log(k) + log_ndtr(-u), 7.0))


def _max_quantile(log_p: float, k: int) -> float:
    """The u with Phi(u)^K = p, from log p < 0."""
    if k < _LOG_K_FROM:
        return float(ndtri_exp(log_p / k))
    return -float(ndtri_exp(math.log(-log_p) - math.log(k)))  # Q(u) = -log(p) / K


def _cdf_and_error(p: SkParams, s: float) -> tuple[float, float]:
    """F_{S_K}(s) and the estimate of its quadrature error, 0 for a closed form."""
    if p.degenerate:
        # Point mass at 0; callers can detect this case via p.degenerate.
        return (0.0 if s < 0.0 else 1.0), 0.0
    if p.v2 == 0.0:
        return _max_cdf(s / math.sqrt(p.v1), p.k), 0.0
    if p.v1 == 0.0 or p.k == 1:
        return float(ndtr(s / math.sqrt(p.v1 + p.v2))), 0.0
    sq1, sq2, k = math.sqrt(p.v1), math.sqrt(p.v2), p.k
    center = (s - sq1 * _max_quantile(-math.log(2.0), k)) / sq2
    width = (sq1 / sq2) / math.sqrt(2.0 * math.log(k + 2.0 if k < _LOG_K_FROM else k))
    step = center + width * _STEP_EDGES
    lo, hi = (min(max(float(z), -_Z_CUTOFF), _Z_CUTOFF) for z in (step[0], step[-1]))
    inner = np.concatenate((step, _PHI_EDGES))
    edges = np.sort(np.concatenate(((lo, hi), inner[(inner > lo) & (inner < hi)])))
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes, weights = _RULE
    z = np.multiply.outer(half, nodes)  # one row of nodes per panel
    z += (edges[:-1] + half)[:, None]
    u = z * (-sq2 / sq1)
    u += s / sq1
    log_f = _log_max_cdf_array(u, k)
    log_f -= 0.5 * z * z
    sums = np.exp(log_f) @ weights  # per panel: the rule, and the rule minus the embedded one
    value = float(ndtr(lo)) + _INV_SQRT_2PI * float(half @ sums[:, 0])
    return min(max(value, 0.0), 1.0), _INV_SQRT_2PI * float(half @ np.abs(sums[:, 1]))


def sk_cdf(p: SkParams, s: float) -> float:
    """F_{S_K}(s) = Pr(S_K <= s); the panel rule errs by a few 1e-14 (module docstring)."""
    return _cdf_and_error(p, s)[0]


def _bracket(p: SkParams, eps: float) -> tuple[float, float]:
    """Interval [lo, hi] with F(lo) <= eps <= F(hi), seeded from the analytic bounds.

    Raises ``ValueError`` naming (V1, V2, K) when the seed is not finite: near
    the float range, 2 V1 ln K overflows.
    """
    scale = math.sqrt(p.v1 + p.v2)
    top = math.sqrt(2.0 * p.v1 * math.log(p.k)) if p.k > 1 else 0.0
    lo = -10.0 * scale
    hi = top + 10.0 * scale
    bounds = lemma1_bounds(p, min(eps, 1.0 - eps))
    if bounds.lower_at_eps is not None:
        lo = max(lo, min(bounds.lower_at_eps, hi - scale))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(
            f"the S_K quantile bracket [{lo}, {hi}] is not finite in floats at "
            f"V1 = {p.v1!r}, V2 = {p.v2!r}, K = {p.k}"
        )
    while sk_cdf(p, lo) > eps:
        lo -= 10.0 * scale
    while sk_cdf(p, hi) < eps:
        hi += 10.0 * scale
    return lo, hi


def sk_inverse_cdf(p: SkParams, eps: float) -> QuantileResult:
    """Quantile of S_K: the s with F_{S_K}(s) = eps, to within 1e-9 in probability.

    Raises ``NonConvergence`` when the CDF's quadrature error estimate at the
    returned quantile exceeds that tolerance.
    """
    if not 0.0 < eps < 1.0:
        raise TargetOutOfRange(f"eps must lie in (0, 1), got {eps}")
    if p.degenerate:
        raise DegenerateBothZero("quantile undefined for the point mass at 0")
    if p.v2 == 0.0:
        value = math.sqrt(p.v1) * _max_quantile(math.log(eps), p.k)
    elif p.v1 == 0.0 or p.k == 1:
        value = math.sqrt(p.v1 + p.v2) * float(ndtri(eps))
    else:
        lo, hi = _bracket(p, eps)
        value = float(brentq(lambda s: sk_cdf(p, s) - eps, lo, hi, xtol=1e-13, rtol=8.9e-16))
    achieved, error = _cdf_and_error(p, value)
    if error > _QUANTILE_TOL:
        raise NonConvergence(
            f"S_K quadrature error estimate {error:.3g} at the {eps}-quantile exceeds "
            f"{_QUANTILE_TOL:g}"
        )
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
