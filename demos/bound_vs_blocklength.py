"""The finite-blocklength bound at large blocklengths.

Evaluates ``fbl_bound`` on the binary XOR channel with flip probability 0.11
(xor:0.11) with uniform inputs at n = 10^3, 10^4 and 10^5 and K = 1 and 16.
The sum rate backs off from capacity by two standard deviations of the
information density, log2(M1*M2) = floor(n*C - 2*sqrt(n*V)) bits, so the
Monte Carlo term of the bound stays a few percent at every n; the three union
terms of the default thresholds add exactly 3/sqrt(n).  The bound samples
joint-symbol counts, not symbols, so its time does not grow with n.

On this channel the expected information density is flat and the facilitator
has nothing to choose between: K = 16 only raises the threshold by 4 bits,
and the bound with it.  Every score ties, so a bound sample draws nothing per
k and its time does not grow with K either.

Run:  python3 demos/bound_vs_blocklength.py
"""
import math
import time

import numpy as np

from cfmac import ProductDist, SimConfig, channel_stats, fbl_bound, named_channel

mac = named_channel("xor:0.11")
dist = ProductDist(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
stats = channel_stats(mac, dist)
capacity, dispersion = stats.mutual_info, stats.v1 + stats.v2
samples = 20_000

print(f"channel xor:0.11, C = {capacity:.4f} bits, V = {dispersion:.4f} bits^2, "
      f"{samples} bound samples\n")
print(f"{'n':>7} {'K':>3} {'log2(M1*M2)':>12} {'bound':>8} {'3/sqrt(n)':>10} {'seconds':>8}")
for n in (10**3, 10**4, 10**5):
    bits = math.floor(n * capacity - 2.0 * math.sqrt(n * dispersion))
    for k in (1, 16):
        cfg = SimConfig(
            mac=mac, dist=dist, n=n, m1_count=2 ** (bits // 2),
            m2_count=2 ** (bits - bits // 2), k=k, mode="iid", seed=7,
        )
        start = time.perf_counter()
        bound = fbl_bound(cfg, mc_samples=samples)
        seconds = time.perf_counter() - start
        print(f"{n:>7} {k:>3} {bits:>12} {bound:>8.4f} {3 / math.sqrt(n):>10.4f} {seconds:>8.3f}")
        assert 3 / math.sqrt(n) < bound < 1, "the bound is the union terms plus a probability"
