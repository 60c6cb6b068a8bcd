"""How many facilitator words does the type construction need to cover its joint type?

Theorem 3's construction draws K pairs of type-class words and needs one pair
with the joint type P of delta(a)'s maximizing law.  Two independent uniform
words of marginal types t1 and t2 have joint type t12 with probability
q = prod t1! prod t2! / (n! prod t12!), so all K pairs miss it with probability
(1 - q)^K exactly, and the smallest K with (1 - q)^K <= eps/2 is what covering
costs.  Stirling gives log2(1/q) = n*I(P) + s*log2(n) + O(1), with the slope
s = (cells - rows - columns + 1)/2 over the type's nonzero cells, rows and
columns: (A1 - 1)*(A2 - 1)/2 at full support.

For adder2 and the 2x2x3 and 4x4x5 Dirichlet kernels of the benchmark's fixed
kernel seed, this rounds delta(a)'s argmax law at a = 0.1 bits to an n-type
for n = 100 ... 10^5, and prints log2 K - n*I(P), the covering overhead in
bits, next to the penalty c_a*log2 n (c_a = A1*A2 + 1) that Theorem 3's
budget log2(K)/n - c_a*log2(n)/n charges.  The penalty also pays for the
decoder's union over (n + 1)^(A1*A2) type classes, so it is larger than the
covering overhead by design.

Run:  python3 demos/type_covering.py
"""
import math

import numpy as np

from cfmac import Mac, adder2, delta
from cfmac.code_sim import _log_miss_rate, _unmatched_probability

A = 0.1  # bits
EPS = 0.01
KERNEL_SEED = 210201247  # the benchmark's fixed kernel seed: 2x2x3, then 4x4x5


def n_type(p12, n):
    """Largest-remainder rounding of the law p12 to joint type counts summing to n."""
    scaled = np.asarray(p12) * n
    counts = np.floor(scaled).astype(np.int64)
    short = n - int(counts.sum())
    order = np.argsort(-(scaled - counts), axis=None, kind="stable")
    counts.flat[order[:short]] += 1
    return counts


def mutual_info_bits(t12):
    """I(X1; X2) in bits of the joint type t12."""
    p = t12 / t12.sum()
    outer = np.outer(p.sum(axis=1), p.sum(axis=0))
    held = p > 0
    return float((p[held] * np.log2(p[held] / outer[held])).sum())


def stirling_slope(t12):
    """s of log2(1/q) - n*I(P) = s*log2(n) + O(1)."""
    cells = np.count_nonzero(t12)
    rows, cols = np.count_nonzero(t12.sum(axis=1)), np.count_nonzero(t12.sum(axis=0))
    return (cells - rows - cols + 1) / 2


def covering_log2_k(t12):
    """log2 of the smallest K with (1 - q)^K <= EPS/2."""
    log_k = math.log(math.log(2 / EPS)) - _log_miss_rate(t12)  # ln of the real-valued K
    if log_k > 25:  # past K = 2^36 the ceiling is below the formula's rounding
        return log_k / math.log(2)
    k = max(1, math.ceil(math.exp(log_k)))
    assert _unmatched_probability(t12, k) <= EPS / 2
    assert k == 1 or _unmatched_probability(t12, k - 1) > EPS / 2
    return math.log2(k)


rng = np.random.default_rng(KERNEL_SEED)
kernels = {
    "adder2": adder2(),
    "dir2x2x3": Mac(rng.dirichlet(np.ones(3), size=(2, 2))),
    "dir4x4x5": Mac(rng.dirichlet(np.ones(5), size=(4, 4))),
}

print(f"delta(a)'s argmax law at a = {A} bits, eps = {EPS}: K covers the joint type "
      "with probability 1 - eps/2\n")
print(f"{'kernel':>9} {'n':>7} {'n*I(P)':>9} {'log2 K':>9} {'overhead':>9} "
      f"{'c_a*log2 n':>11} {'overhead/log2 n':>16} {'slope s':>8}")
for name, mac in kernels.items():
    law = delta(mac, A).argmax_joint.p12
    c_a = mac.x1_size * mac.x2_size + 1
    for n in (100, 1000, 10**4, 10**5):
        t12 = n_type(law, n)
        n_info = n * mutual_info_bits(t12)
        log2_k = covering_log2_k(t12)
        overhead = log2_k - n_info
        print(f"{name:>9} {n:>7} {n_info:>9.1f} {log2_k:>9.1f} {overhead:>9.2f} "
              f"{c_a * math.log2(n):>11.1f} {overhead / math.log2(n):>16.3f} "
              f"{stirling_slope(t12):>8.1f}")
        assert overhead < c_a * math.log2(n), "Theorem 3's penalty covers the type"
