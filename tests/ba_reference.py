"""Oracle: the retired two-stage solver of ``sum_capacity``, one start at a time.

Before ``sum_capacity`` became one SLSQP run per start on the analytic
gradient, it ran a Blahut-Arimoto ascent from each start of the seed grid and
then polished each start with SLSQP on a finite-difference gradient.
``_mi_nats``, ``_dbar_nats`` and ``_ba_ascend`` run that ascent on 1-D input
laws, and ``_seed_grid`` lists the starts as pairs.  ``reference_sum_capacity``
drives the same seed grid, polish, keeper dedup, dispersion and KKT residual
through them.  The tests hold the one-stage solver to its sum-capacity and
dispersion.
"""
import itertools

import numpy as np
from scipy.optimize import minimize
from scipy.special import rel_entr, xlogy

from cfmac.channel import LN2, CapacityResult, ProductDist, _stats_nats, _unit_scale


def _seed_grid(mac) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic multi-start seeds: uniform, vertex-leaning, and a skew mix."""
    n1, n2 = mac.x1_size, mac.x2_size
    u1 = np.full(n1, 1.0 / n1)
    u2 = np.full(n2, 1.0 / n2)
    seeds = [(u1, u2)]
    for a, b in itertools.product(range(n1), range(n2)):
        p1 = np.full(n1, 0.1 / n1)
        p1[a] += 0.9
        p2 = np.full(n2, 0.1 / n2)
        p2[b] += 0.9
        seeds.append((p1, p2))
    skew1 = np.arange(1, n1 + 1, dtype=float)
    skew2 = np.arange(n2, 0, -1, dtype=float)
    seeds.append((skew1 / skew1.sum(), skew2 / skew2.sum()))
    return seeds


def _mi_nats(kernel: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> float:
    p12 = np.outer(p1, p2)
    p_y = np.einsum("ij,ijy->y", p12, kernel)
    h_y = -float(xlogy(p_y, p_y).sum())
    h_y_given_x = -float((p12[:, :, None] * xlogy(kernel, kernel)).sum())
    return h_y - h_y_given_x


def _dbar_nats(kernel: np.ndarray, p1: np.ndarray, p2: np.ndarray):
    """Per-letter divergences D(W_{x1,x2} || p_Y) and their p2/p1 averages."""
    p12 = np.outer(p1, p2)
    p_y = np.einsum("ij,ijy->y", p12, kernel)
    div = rel_entr(kernel, np.broadcast_to(p_y, kernel.shape)).sum(axis=2)
    return div, div @ p2, p1 @ div


def _ba_ascend(kernel, p1, p2, max_iter, tol):
    """Alternating multiplicative ascent on the product-input objective."""
    value = _mi_nats(kernel, p1, p2)
    it = 0
    for it in range(1, max_iter + 1):
        _, dbar1, _ = _dbar_nats(kernel, p1, p2)
        g = np.exp(dbar1 - dbar1.max())
        new_p1 = p1 * g
        total = new_p1.sum()
        if total > 0:
            p1 = new_p1 / total
        _, _, dbar2 = _dbar_nats(kernel, p1, p2)
        g = np.exp(dbar2 - dbar2.max())
        new_p2 = p2 * g
        total = new_p2.sum()
        if total > 0:
            p2 = new_p2 / total
        new_value = _mi_nats(kernel, p1, p2)
        if new_value - value < tol:
            value = max(value, new_value)
            break
        value = new_value
    return p1, p2, value, it


def _polish(kernel, p1, p2):
    """Joint local refinement of (p1, p2) with SLSQP."""
    n1 = len(p1)

    def neg_mi(x):
        return -_mi_nats(kernel, np.abs(x[:n1]), np.abs(x[n1:]))

    cons = [
        {"type": "eq", "fun": lambda x: x[:n1].sum() - 1.0},
        {"type": "eq", "fun": lambda x: x[n1:].sum() - 1.0},
    ]
    res = minimize(
        neg_mi,
        np.concatenate([p1, p2]),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * (n1 + len(p2)),
        constraints=cons,
        options={"ftol": 1e-14, "maxiter": 500},
    )
    a = np.clip(res.x[:n1], 0.0, None)
    b = np.clip(res.x[n1:], 0.0, None)
    a /= a.sum()
    b /= b.sum()
    return a, b, _mi_nats(kernel, a, b)


def reference_ascents(mac, tol=1e-7, units="bits", max_iter=5000):
    """``(p1, p2, value, iterations)`` of every seed-grid start, one start at a time."""
    tol_nats = tol * (LN2 if units == "bits" else 1.0)
    return [
        _ba_ascend(mac.kernel, p1, p2, max_iter, min(tol_nats, 1e-12))
        for p1, p2 in _seed_grid(mac)
    ]


def reference_sum_capacity(mac, tol=1e-7, units="bits", max_iter=5000) -> CapacityResult:
    """``sum_capacity`` with the per-start ascent and polish."""
    kernel = mac.kernel
    tol_nats = tol * (LN2 if units == "bits" else 1.0)
    candidates = []
    total_iters = 0
    for p1, p2, _, it in reference_ascents(mac, tol, units, max_iter):
        total_iters += it
        p1, p2, value = _polish(kernel, p1, p2)
        candidates.append((value, p1, p2))
    best = max(c[0] for c in candidates)
    keepers = []
    for value, p1, p2 in sorted(candidates, key=lambda c: (-c[0], tuple(c[1]), tuple(c[2]))):
        if value < best - tol_nats:
            continue
        if not any(np.abs(p1 - q1).sum() + np.abs(p2 - q2).sum() < 1e-6 for q1, q2 in keepers):
            keepers.append((p1, p2))
    scale = _unit_scale(units)
    dists = [ProductDist(p1, p2) for p1, p2 in keepers]
    v1_star = 0.0
    for d in dists:
        v1_star = max(v1_star, _stats_nats(mac, d)[1])
    p1, p2 = keepers[0]
    _, dbar1, dbar2 = _dbar_nats(kernel, p1, p2)
    resid = max(
        float(np.max(dbar1 - best)),
        float(np.max(dbar2 - best)),
        float(np.max(np.abs(dbar1[p1 > 1e-9] - best))) if np.any(p1 > 1e-9) else 0.0,
        float(np.max(np.abs(dbar2[p2 > 1e-9] - best))) if np.any(p2 > 1e-9) else 0.0,
    )
    return CapacityResult(
        c_sum=best * scale,
        argmax_dists=dists,
        v1_star=v1_star * scale * scale,
        iterations=total_iters,
        kkt_residual=resid * scale,
        units=units,
    )
