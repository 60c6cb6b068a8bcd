"""Reference CDF of S_K = sqrt(V2) Z0 + sqrt(V1) max_{k<=K} Z_k, by adaptive quadrature.

An oracle for ``cfmac.gauss_max.sk_cdf`` with V1 > 0 and V2 > 0: the mixing
integral over z ~ N(0, 1) in scalar form, split by ``scipy.integrate.quad``
at the step of Phi(u)^K, z_c +/- {10, 40} * spread (z_c where Phi(u)^K = 1/2,
spread = 3 (sqrt(V1) / sqrt(V2)) / sqrt(2 ln K)), each piece to an absolute
error of 1e-15.  Phi(u)^K is the product form below K = 2^53 and
exp(-K Q(u)) from ln K above.  It takes about a millisecond per point.
"""
from __future__ import annotations

import math
import warnings

from scipy.integrate import IntegrationWarning, quad
from scipy.special import log_ndtr, ndtri_exp

_LOG_K_FROM = 2**53
_Z_CUTOFF = 12.0


def _phi_pow(u: float, k: int) -> float:
    if k < _LOG_K_FROM:
        return math.exp(float(k) * float(log_ndtr(u)))
    v = math.log(k) + float(log_ndtr(-u))
    return math.exp(-math.exp(v)) if v < 7.0 else 0.0


def _u_half(k: int) -> float:
    if k < _LOG_K_FROM:
        return float(ndtri_exp(-math.log(2.0) / k))
    return -float(ndtri_exp(math.log(math.log(2.0)) - math.log(k)))


def reference_cdf(v1: float, v2: float, k: int, s: float) -> float:
    """Pr(S_K <= s) for V1 > 0, V2 > 0 and an integer K >= 1."""
    sq1, sq2 = math.sqrt(v1), math.sqrt(v2)
    z_c = (s - sq1 * _u_half(k)) / sq2
    log_k = math.log(k + 2.0) if k < _LOG_K_FROM else math.log(k)
    spread = (sq1 / sq2) * 3.0 / math.sqrt(2.0 * log_k)
    cuts = {-_Z_CUTOFF, _Z_CUTOFF}
    for m in (-40.0, -10.0, 10.0, 40.0):
        cuts.add(min(max(z_c + m * spread, -_Z_CUTOFF), _Z_CUTOFF))

    def integrand(z: float) -> float:
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * _phi_pow((s - sq2 * z) / sq1, k)

    edges = sorted(cuts)
    total = 0.0
    with warnings.catch_warnings():
        # at 1e-15 quad may report roundoff; its result is still the most accurate available
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(edges, edges[1:]):
            if b > a:
                total += quad(integrand, a, b, epsabs=1e-15, epsrel=1e-14, limit=500)[0]
    return total
