"""Correlation-benefit curve: the best sum-rate gain under an input-dependence budget.

delta(a) maximizes I(X1,X2;Y) over joint input distributions whose input
mutual information I(X1;X2) stays below ``a``.  The objective and its
gradient come from ``channel``, whose ``_mi_nats`` also gives the
sum-capacity C.  SLSQP, through ``channel._slsqp``, refines four kinds of
start over the joint simplex: each capacity-achieving product law, its
analytic perturbation along the first-order optimal direction, the uniform
law, and the unconstrained joint Blahut-Arimoto law
(``_joint_ba_unconstrained``, which holds the BA step) shrunk into the
budget.  The problem is not concave and the starts end in different basins:
where the maximizer fixes one input its perturbation is zero, and on such a
3x3x3 kernel only the uniform start reaches the better basin.  Every
feasible start and refinement is a candidate, converged or not: in a
maximization each feasible law's value is achievable, so a stalled
refinement can only understate delta.  The top capacity maximizer is the
first candidate, so delta = max(best - C, 0) >= 0, and at a = 0 it is
returned with delta exactly 0.

Every start and refinement meets the budget through ``_project_feasible``:
along the segment to the product of its marginals I(X1;X2) is convex, so
the step 1 - a/I brackets its bisection.  The perturbed start is p* + t r at
the simplex boundary along r, projected back toward p* the same way.

Some kernels gain nothing from dependence, and that is certified without a
refinement.  For any output law q and any joint input law, I(X1,X2;Y) <=
max_x D(W_x || q), the maximum over the input pairs x = (x1, x2).  When that
maximum, at the output law of the top capacity maximizer, is at most C +
``_ZERO_GAIN_SLACK`` nats, no joint law beats C by more than the slack, and
``delta`` returns the maximizer with delta exactly 0 for every a, as at a = 0,
running no SLSQP.  xor:0.11 is such a kernel: its maximum exceeds C by
5.6e-17 nats.

Capacity-achieving laws often put zero mass on some input pairs.  At such a
cell the budget's gradient log(p12 / (p1 p2)) - 1 is unbounded: with its logs
floored at 1e-300, a cell whose row and column are empty too gets about +690.
SLSQP's linearised budget then says nothing useful, the refinement stalls at
its iteration limit and the curve is not monotone.  The gradient alone
therefore floors its logs at a bounded constant; the value, the projection
and the budget check keep the 1e-300 floor.  A law is kept only when its
computed I(X1;X2) is at most the budget in nats, with no tolerance, so for
a > 0 every returned law meets the budget as computed exactly.  The top
capacity maximizer is a product law, and its budget use is 0 at every a:
it is not recomputed, since its rounded marginals can give I(X1;X2) ~ 4e-17
nats, above a tiny budget.

For a > 0 a result is certified: the divergence bound above holds, or at
least one refinement ends with SLSQP status 0 and meets the budget, or
``delta`` raises ``NonConvergence``.

Each SLSQP step of a refinement evaluates the MI core once: its value and
its gradient 1 - D(W_x || p_Y) come from one output law
(``channel._mi_and_div_nats``), and every step takes the kernel's constant
xlogy(W, W) from the Mac, which holds it as ``_w_log_w``.  What does not
depend on the budget is computed once per (mac, capacity) in a
``_DeltaContext``: the top maximizer and the zero-gain certificate, and,
when a budget first needs them, each maximizer's centered
density j with E[j^2] and the joint Blahut-Arimoto law.  ``delta`` builds a
context and solves its one point; the CLI builds one and solves its whole
grid, so both run the same code.  No context outlives the call that builds it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import (
    CapacityResult,
    JointDist,
    Mac,
    ProductDist,
    _capacity_in,
    _letter_div_nats,
    _mi_and_div_nats,
    _mi_nats,
    _nats_per_unit,
    _slsqp,
    _unit_scale,
    info_density_tables,
)
from .errors import NonConvergence, NotCapacityAchieving

# a base law more than this many nats below the sum-capacity is not
# capacity-achieving
_CAPACITY_GAP = 1e-6
_EPS = 1e-300
# floor of the logs in the budget gradient only: at _EPS an empty cell in an
# empty row and column gets ~+690 and SLSQP's linearised budget stalls
_GRAD_LOG_FLOOR = 1e-12
# delta is 0 where no input pair's divergence from the top maximizer's output
# law exceeds the sum-capacity by more than this many nats
_ZERO_GAIN_SLACK = 1e-12


@dataclass(frozen=True)
class DeltaPoint:
    a: float
    delta: float
    argmax_joint: JointDist
    achieved_mi_budget: float
    units: str = "bits"


@dataclass(frozen=True)
class Perturbation:
    """First-order optimal direction away from a capacity-achieving product law.

    ``r_table`` has zero row and column sums; ``lambda_scale`` is the factor
    1/(2 lambda) fixed by the dependence budget.
    """

    base: ProductDist
    j_table: np.ndarray
    r_table: np.ndarray
    lambda_scale: float
    units: str = "bits"


def perturbation_direction(
    mac: Mac,
    base: ProductDist,
    a: float,
    capacity: CapacityResult | None = None,
    units: str = "bits",
) -> Perturbation:
    """Budget-scaled optimal perturbation of the joint law around ``base``."""
    if not 0 < a < math.inf:
        raise ValueError(f"a must be positive and finite, got {a!r}")
    capacity = _capacity_in(mac, units, capacity)
    return _perturbation(base, *_centered_density(mac, base, capacity, units), a, units)


def _centered_density(
    mac: Mac, base: ProductDist, capacity: CapacityResult, units: str
) -> tuple[np.ndarray, float]:
    """The centered density j of ``base`` in nats and E[j^2] under ``base``.

    Raises ``NotCapacityAchieving`` when ``base`` is not capacity-achieving.
    """
    i_bar = info_density_tables(mac, base, units="nats").i_bar
    p1, p2 = base.p1, base.p2
    total = float(p1 @ i_bar @ p2)  # I(X1, X2; Y) under base
    if total < capacity.c_sum * _nats_per_unit(units) - _CAPACITY_GAP:
        raise NotCapacityAchieving(
            f"base achieves {total * _unit_scale(units):.6g} {units}/use, "
            f"sum-capacity is {capacity.c_sum:.6g}"
        )
    # Centered density: on an exact maximizer the row and column averages both
    # equal the sum-capacity, so this reduces to i_bar - C on the support.
    row_mean = i_bar @ p2
    col_mean = p1 @ i_bar
    j = i_bar - row_mean[:, None] - col_mean[None, :] + total
    return j, float((base.joint() * j * j).sum())


def _perturbation(base: ProductDist, j: np.ndarray, e_j2: float, a: float, units: str) -> Perturbation:
    """The direction of ``perturbation_direction`` from j (nats) and E[j^2] at budget ``a``."""
    scale = _unit_scale(units)
    if e_j2 < 1e-18:
        return Perturbation(base, j * scale, np.zeros_like(j), 0.0, units)
    lam_scale = math.sqrt(a * (2.0 * _nats_per_unit(units)) / e_j2)
    # r is free of units; j and 1/(2 lambda) are converted once, here
    return Perturbation(base, j * scale, lam_scale * base.joint() * j, lam_scale / scale, units)


def delta_small_a(v1_star: float, a: float, units: str = "bits") -> float:
    """Small-budget closed form sqrt(2 a V1* ln 2) (ln 2 dropped in nats mode)."""
    if not (0 <= a < math.inf and 0 <= v1_star < math.inf):
        raise ValueError(
            f"a and v1_star must be finite and nonnegative, got {a!r}, {v1_star!r}"
        )
    return math.sqrt(a * (2.0 * _nats_per_unit(units)) * v1_star)


# ---------------------------------------------------------------------------
# solver internals (all in nats)


def _mi_12_nats(p12: np.ndarray) -> float:
    p1 = p12.sum(axis=1)
    p2 = p12.sum(axis=0)
    prod = p1[:, None] * p2
    ratio = np.log(np.maximum(p12, _EPS)) - np.log(np.maximum(prod, _EPS))
    # never negative: a product law's recomputed marginals can leave -1e-16
    return max(float(np.where(p12 > 0, p12 * ratio, 0.0).sum()), 0.0)


def _mi_12_grad_nats(p12: np.ndarray) -> np.ndarray:
    p1 = p12.sum(axis=1)
    p2 = p12.sum(axis=0)
    return (
        np.log(np.maximum(p12, _GRAD_LOG_FLOOR))
        - np.log(np.maximum(p1, _GRAD_LOG_FLOOR))[:, None]
        - np.log(np.maximum(p2, _GRAD_LOG_FLOOR))[None, :]
        - 1.0
    )


def _project_feasible(p12: np.ndarray, a_nats: float) -> np.ndarray:
    """The law nearest ``p12`` on its segment to the product of its marginals
    that meets the budget; ``p12`` itself when its I(X1;X2) <= a.

    The segment keeps the marginals, so I(X1;X2) = D(p || p1 p2) is convex
    along it and 0 at its end: the step theta = 1 - a/I meets the budget in
    exact arithmetic.  It is the first probe, so [0, 1 - a/I] brackets the
    bisection, or [1 - a/I, 1] when rounding makes that probe miss.  The
    bisection runs until its ends are adjacent floats and returns the law at
    the upper end.
    """
    mi = _mi_12_nats(p12)
    if mi <= a_nats:
        return p12
    prod = p12.sum(axis=1)[:, None] * p12.sum(axis=0)
    lo, mid, hi = 0.0, 1.0 - a_nats / mi, 1.0
    while lo < mid < hi:
        if _mi_12_nats((1 - mid) * p12 + mid * prod) <= a_nats:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return (1 - hi) * p12 + hi * prod


def _line_search_start(base: ProductDist, r: np.ndarray, a_nats: float) -> np.ndarray:
    """p* + t r at the simplex boundary along r, projected into the budget;
    r has zero row and column sums, so the projection walks back along r."""
    p0 = base.joint()
    neg = r < 0
    t_box = float(np.min(p0[neg] / -r[neg])) if np.any(neg) else 1.0
    p = np.clip(p0 + t_box * r, 0.0, None)
    return _project_feasible(p / p.sum(), a_nats)


def _neg_mi_joint(x: np.ndarray, kernel: np.ndarray, w_log_w: np.ndarray, shape) -> tuple:
    """-I(X1, X2; Y) and its gradient at the flattened joint law x, from one evaluation of the core."""
    mi, div = _mi_and_div_nats(kernel, x.reshape(shape), w_log_w)
    return -mi, 1.0 - div.ravel()


def _refine(
    kernel, w_log_w, p_start: np.ndarray, a_nats: float
) -> tuple[np.ndarray | None, int]:
    """SLSQP from ``p_start``: the projected law (None if it vanished) and the SLSQP
    status; ``w_log_w`` is the kernel's xlogy(W, W)."""
    shape = p_start.shape
    m = p_start.size
    cons = [
        {"type": "eq", "fun": lambda x: x.sum() - 1.0, "jac": lambda x: np.ones(m)},
        {
            "type": "ineq",
            "fun": lambda x: a_nats - _mi_12_nats(x.reshape(shape)),
            "jac": lambda x: -_mi_12_grad_nats(x.reshape(shape)).ravel(),
        },
    ]
    args = (kernel, w_log_w, shape)
    x, status, _ = _slsqp(_neg_mi_joint, p_start.ravel(), args, cons, 1e-13, 400)
    p = x.reshape(shape)
    total = p.sum()
    if total <= 0:
        return None, status
    return _project_feasible(p / total, a_nats), status


def _joint_ba_unconstrained(kernel: np.ndarray) -> np.ndarray:
    """Blahut-Arimoto over the composite input alphabet X1 x X2 (no budget), at
    most 400 steps."""
    p = np.full(kernel.shape[:2], 1.0 / (kernel.shape[0] * kernel.shape[1]))
    for _ in range(400):
        # the multiplicative update; the mass stays positive, since the largest
        # entry of p is at least 1/(A1*A2) and no divergence exceeds ~690 nats
        d = _letter_div_nats(kernel, p)
        new_p = p * np.exp(d - d.max())
        new_p /= new_p.sum()
        p, old = new_p, p
        if np.abs(p - old).sum() < 1e-14:
            break
    return p


class _DeltaContext:
    """What ``delta`` computes once per (mac, capacity); ``point(a)`` solves one budget."""

    def __init__(self, mac: Mac, capacity: CapacityResult, units: str):
        self.mac, self.capacity, self.units = mac, capacity, units
        self.best_p = capacity.argmax_dists[0].joint()
        # no joint law beats a divergence bound at C
        div = _letter_div_nats(mac.kernel, self.best_p)
        self.zero_gain = div.max() <= capacity.c_sum / _unit_scale(units) + _ZERO_GAIN_SLACK

    @cached_property
    def densities(self) -> list[tuple[ProductDist, np.ndarray, float]]:
        """(base, j, E[j^2]) of every capacity maximizer."""
        return [
            (base, *_centered_density(self.mac, base, self.capacity, self.units))
            for base in self.capacity.argmax_dists
        ]

    @cached_property
    def ba_law(self) -> np.ndarray:
        return _joint_ba_unconstrained(self.mac.kernel)

    def point(self, a: float) -> DeltaPoint:
        if not 0 <= a < math.inf:
            raise ValueError(f"a must be finite and nonnegative, got {a!r}")
        units = self.units
        scale = _unit_scale(units)
        a_nats = a * _nats_per_unit(units)
        kernel, w_log_w = self.mac.kernel, self.mac._w_log_w
        best_p = self.best_p
        # only product laws meet a zero budget, and the certificate bounds
        # every joint law: either way the maximizer, of I(X1;X2) = 0, is optimal
        if a == 0 or self.zero_gain:
            return DeltaPoint(a, 0.0, JointDist(best_p), 0.0, units)

        starts: list[np.ndarray] = []
        for base, j, e_j2 in self.densities:
            starts.append(base.joint())
            r = _perturbation(base, j, e_j2, a, units).r_table
            if np.any(r != 0):
                starts.append(_line_search_start(base, r, a_nats))
        n1, n2 = kernel.shape[:2]
        starts.append(np.full((n1, n2), 1.0 / (n1 * n2)))
        starts.append(_project_feasible(self.ba_law, a_nats))

        # the maximizer is a product law: its budget use is 0, not its marginals' rounding
        best_val, best_mi_12 = _mi_nats(kernel, best_p, w_log_w), 0.0
        converged = False
        for p0 in starts:
            p, status = _refine(kernel, w_log_w, p0, a_nats)
            for cand, refined_ok in ((p0, False), (p, status == 0)):
                mi_12 = math.inf if cand is None else _mi_12_nats(cand)
                if mi_12 > a_nats:
                    continue
                converged = converged or refined_ok
                val = _mi_nats(kernel, cand, w_log_w)
                if val > best_val:
                    best_val, best_p, best_mi_12 = val, cand, mi_12
        if not converged:
            raise NonConvergence(f"no SLSQP refinement converged within the budget at a={a!r}")

        return DeltaPoint(
            a=a,
            delta=max((best_val - self.capacity.c_sum / scale) * scale, 0.0),
            argmax_joint=JointDist(best_p),
            achieved_mi_budget=best_mi_12 * scale,
            units=units,
        )


def delta(
    mac: Mac,
    a: float,
    units: str = "bits",
    capacity: CapacityResult | None = None,
) -> DeltaPoint:
    """Constrained maximum sum-rate gain at dependence budget ``a``."""
    return _DeltaContext(mac, _capacity_in(mac, units, capacity), units).point(a)
