"""One solve per kernel whatever the units.

The rates are defined up to the base of the logarithm, so a bits call and a
nats call of one kernel must take the same solver decisions: the same kept
maximizers, the same delta(a) law, the same Thm-3 exhaustion verdict.  Only
the reported numbers differ, by the factor ln 2.
"""
import functools

import numpy as np
import pytest

import cfmac.rate_bounds
from cfmac.channel import LN2, Mac, _unit_scale, adder2, sum_capacity
from cfmac.delta_curve import delta
from cfmac.rate_bounds import RateQuery, thm3_sum_rate

SHAPES = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4), (4, 4, 5)]


def split_kernel() -> Mac:
    """A symmetric kernel, nudged apart, whose two local maxima lie 9.0e-8 nats apart."""
    rng = np.random.default_rng(7)
    for _ in range(3):
        w = rng.dirichlet([0.4] * 3, size=(2, 2))
    w = (w + w.transpose(1, 0, 2)) / 2
    w[0, 1, 0] += 2e-7
    w[0, 1, 1] -= 2e-7
    return Mac(w)


def _kernels() -> dict:
    kernels = {"adder2": adder2(), "split": split_kernel()}
    rng = np.random.default_rng(12345)
    for i in range(16):
        a1, a2, ny = SHAPES[i % len(SHAPES)]
        alpha = 1.0 if i % 2 == 0 else 0.3
        kernels[f"dir{i}-{a1}x{a2}x{ny}"] = Mac(rng.dirichlet([alpha] * ny, size=(a1, a2)))
    return kernels


KERNELS = _kernels()


@functools.cache
def capacity(name: str, units: str):
    return sum_capacity(KERNELS[name], units=units)


def test_split_kernel_has_two_maxima_within_the_tolerance():
    # the kernel the keeper test needs: two kept maximizers in both units
    assert len(capacity("split", "bits").argmax_dists) == 2


@pytest.mark.parametrize("name", KERNELS)
def test_capacity_keeps_the_same_maximizers(name):
    bits, nats = capacity(name, "bits"), capacity(name, "nats")
    assert [(d.p1.tobytes(), d.p2.tobytes()) for d in bits.argmax_dists] == [
        (d.p1.tobytes(), d.p2.tobytes()) for d in nats.argmax_dists
    ]
    assert bits.c_sum == nats.c_sum * _unit_scale("bits")


@pytest.mark.parametrize("name", KERNELS)
def test_delta_solves_the_same_law(name):
    mac = KERNELS[name]
    for a in (0.001, 0.01, 0.1, 0.5):
        bits = delta(mac, a, "bits", capacity=capacity(name, "bits"))
        nats = delta(mac, a * LN2, "nats", capacity=capacity(name, "nats"))
        assert bits.argmax_joint.p12.tobytes() == nats.argmax_joint.p12.tobytes(), a


@pytest.mark.parametrize("name", ["adder2", "dir3-3x3x3"])
@pytest.mark.parametrize("n", [2, 128, 2**20, 100, 1000])
def test_exhaustion_is_decided_exactly(name, n, monkeypatch):
    mac = KERNELS[name]
    c_a = mac.x1_size * mac.x2_size + 1
    budgets = []
    solve = cfmac.rate_bounds.delta

    def recorded(mac, a, **kwargs):
        budgets.append(a)
        return solve(mac, a, **kwargs)

    monkeypatch.setattr(cfmac.rate_bounds, "delta", recorded)
    for units in ("bits", "nats"):
        cap = capacity(name, units)
        at = thm3_sum_rate(mac, RateQuery(n, 0.01, n**c_a, units), capacity=cap)
        assert at.budget_exhausted and at.rate is None and at.budget <= 0.0
        # rates are not compared across units: near a zero budget, rounding
        # of ~1e-20 in the budget becomes delta ~ sqrt(2 a V1) ~ 1e-10
        past = thm3_sum_rate(mac, RateQuery(n, 0.01, n**c_a + 1, units), capacity=cap)
        assert not past.budget_exhausted and past.rate is not None and past.budget >= 0.0
    assert len(budgets) == 2 and min(budgets) >= 0.0
