"""Monte Carlo walk-through of the facilitated random-coding construction.

Simulates the binary XOR channel with flip probability 0.11 (xor:0.11) at
blocklength 50 with 4x4 messages, sweeping the facilitator alphabet K, and
checks the estimated ensemble error against the constant-free
finite-blocklength bound.  Thresholds are pinned
at their K=1 values so the sweep isolates the facilitation benefit.

Run:  python3 demos/simulate_facilitated_code.py
"""
import numpy as np

from cfmac import (
    ProductDist,
    SimConfig,
    default_thresholds,
    estimate_error,
    fbl_bound,
    named_channel,
)

mac = named_channel("xor:0.11")
dist = ProductDist(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
n, m = 50, 4
pinned = default_thresholds(mac, dist, n, m, m, 1, "iid")

print(f"channel xor:0.11, n={n}, M1=M2={m}, thresholds pinned at K=1 defaults\n")
print(f"{'K':>3} {'p_hat':>9} {'95% CI':>22} {'bound':>8}")
for k in (1, 2, 4, 8):
    cfg = SimConfig(
        mac=mac, dist=dist, n=n, m1_count=m, m2_count=m, k=k,
        mode="iid", thresholds=pinned, trials=20_000, seed=7,
    )
    rep = estimate_error(cfg)
    bound = fbl_bound(cfg, mc_samples=20_000)
    ci = f"[{rep.ci95[0]:.5f}, {rep.ci95[1]:.5f}]"
    print(f"{k:>3} {rep.p_hat:>9.5f} {ci:>22} {bound:>8.4f}")
    assert bound >= rep.ci95[0], "bound must dominate the simulation"

print("\nOn this channel the expected information density is flat, so the")
print("facilitator has nothing to optimize: the error stays put as K grows.")
print("Rerun with named_channel('adder2') to see the score-argmax at work")
print("(its error is already ~0 at this blocklength, as the bound predicts).")
