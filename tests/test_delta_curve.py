import dataclasses
import math

import numpy as np
import pytest
from scipy.special import xlogy

import cfmac.delta_curve
from cfmac.channel import (
    JointDist,
    Mac,
    ProductDist,
    _letter_div_nats,
    _mi_nats,
    _nats_per_unit,
    adder2,
    mutual_information,
    sum_capacity,
    xor_channel,
)
from cfmac.delta_curve import (
    _DeltaContext,
    _mi_12_nats,
    _neg_mi_joint,
    _project_feasible,
    delta,
    delta_small_a,
    perturbation_direction,
)
from cfmac.errors import NonConvergence, NotCapacityAchieving


def brute_force_gain(mac, a, resolution=100):
    """Grid search over the joint simplex (2x2 inputs only), in bits."""
    assert mac.x1_size == 2 and mac.x2_size == 2
    n = resolution
    idx = np.arange(n + 1)
    i, j, k = np.meshgrid(idx, idx, idx, indexing="ij")
    mask = i + j + k <= n
    p = np.stack([i[mask], j[mask], k[mask], n - i[mask] - j[mask] - k[mask]], axis=1) / n
    wflat = mac.kernel.reshape(4, mac.y_size)
    py = p @ wflat
    with np.errstate(divide="ignore", invalid="ignore"):
        logt = np.log2(wflat[None]) - np.log2(py[:, None, :])
        term = np.where(wflat[None] > 0, wflat[None] * logt, 0.0)
    tsum = term.sum(-1)
    # +inf divergences occur only at cells the grid point gives zero mass
    tsum[~np.isfinite(tsum)] = 0.0
    mi_xy = (p * tsum).sum(1)
    p1 = np.stack([p[:, [0, 1]].sum(1), p[:, [2, 3]].sum(1)], 1)
    p2 = np.stack([p[:, [0, 2]].sum(1), p[:, [1, 3]].sum(1)], 1)
    prod = (p1[:, :, None] * p2[:, None, :]).reshape(-1, 4)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0, p * (np.log2(p) - np.log2(prod)), 0.0)
    feasible = r.sum(1) <= a
    return mi_xy[feasible].max() - sum_capacity(mac).c_sum


class TestDelta:
    def test_zero_budget_is_zero_gain(self):
        point = delta(adder2(), 0.0)
        assert point.delta == pytest.approx(0.0, abs=1e-7)
        assert point.achieved_mi_budget <= 1e-9

    def test_saturates_at_full_cooperation(self):
        # with unlimited dependence the adder reaches log2(3) output bits
        point = delta(adder2(), 2.0)
        assert point.delta == pytest.approx(math.log2(3.0) - 1.5, abs=1e-7)

    def test_curve_nondecreasing(self):
        mac = adder2()
        cap = sum_capacity(mac)
        vals = [delta(mac, a, capacity=cap).delta for a in (0.0, 0.01, 0.1, 0.5, 2.0)]
        assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))

    def test_budget_respected(self):
        point = delta(adder2(), 0.05)
        assert point.achieved_mi_budget <= 0.05 + 1e-7

    def test_xor_gains_nothing_from_dependence(self):
        # output depends on x1 xor x2 only; correlation cannot raise the rate
        point = delta(xor_channel(0.11), 0.5)
        assert point.delta == pytest.approx(0.0, abs=1e-7)

    def test_brute_force_oracle_adder(self):
        mac = adder2()
        for a in (0.01, 0.1, 1.0):
            got = delta(mac, a).delta
            want = brute_force_gain(mac, a)
            assert got == pytest.approx(want, abs=5e-3)
            assert got >= want - 1e-9  # grid is a restricted (inner) search

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            delta(adder2(), -0.1)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, a):
        with pytest.raises(ValueError, match="finite"):
            delta(adder2(), a)


@pytest.fixture(scope="module")
def dir4x4x5():
    """The 4x4x5 Dirichlet kernel of the benchmark: the draw after the 2x2x3 one."""
    rng = np.random.default_rng(210201247)
    rng.dirichlet(np.ones(3), size=(2, 2))
    mac = Mac(rng.dirichlet(np.ones(5), size=(4, 4)))
    return mac, sum_capacity(mac)


class TestDirichlet4x4x5:
    """A kernel whose capacity maximizer puts zero mass on 12 of its 16 input pairs."""

    def test_curve_nondecreasing(self, dir4x4x5):
        mac, cap = dir4x4x5
        grid = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0)
        vals = [delta(mac, a, capacity=cap).delta for a in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:])), vals

    def test_tiny_shift_of_the_maximizer_keeps_delta(self, dir4x4x5):
        mac, cap = dir4x4x5
        base = cap.argmax_dists[0]
        p1 = base.p1.copy()
        p1[0] += 1.3e-8
        p1[1] -= 1.3e-8  # 2.6e-8 in L1
        shifted = dataclasses.replace(
            cap, argmax_dists=[ProductDist(p1, base.p2)] + list(cap.argmax_dists[1:])
        )
        got = delta(mac, 0.01, capacity=shifted).delta
        assert got == pytest.approx(delta(mac, 0.01, capacity=cap).delta, abs=1e-9)

    def test_tiny_budgets_are_met(self, dir4x4x5):
        # the maximizer is a product law, yet its recomputed marginals give
        # I(X1;X2) ~ 4.4e-17 nats, above both budgets
        mac, _ = dir4x4x5
        cap = sum_capacity(mac, "nats")
        for a in (1e-17, 3e-17):
            point = delta(mac, a, units="nats", capacity=cap)
            assert point.achieved_mi_budget <= a, (a, point.achieved_mi_budget)


SWEEP_SHAPES = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4), (4, 4, 5)]


@pytest.fixture(scope="module")
def fixed_x2_3x3x3():
    """A 3x3x3 Dirichlet(0.3) kernel whose capacity maximizer fixes X2.

    The maximizer's perturbation is zero; its refinement and the joint
    Blahut-Arimoto start both end at delta = 0.0031335 bits at a = 0.1, where
    the uniform start reaches 0.0033064.  The 12th draw of a seeded sweep that
    cycles through SWEEP_SHAPES with the Dirichlet parameter alternating 1 and
    0.3.
    """
    rng = np.random.default_rng(12345)
    for i in range(12):
        shape = SWEEP_SHAPES[i % len(SWEEP_SHAPES)]
        kernel = rng.dirichlet(np.full(shape[2], (1.0, 0.3)[i % 2]), size=shape[:2])
    mac = Mac(kernel)
    return mac, sum_capacity(mac)


class TestStarts:
    @pytest.mark.parametrize(
        "kernel, units", [("dir4x4x5", "bits"), ("dir4x4x5", "nats"), ("fixed_x2_3x3x3", "bits")]
    )
    def test_uniform_start_finds_nothing_better(self, request, kernel, units):
        # guards the uniform start: without it delta loses 1.7e-4 bits on the
        # 3x3x3 kernel at a = 0.1
        mac, _ = request.getfixturevalue(kernel)
        cap = sum_capacity(mac, units=units)
        uniform = np.full((mac.x1_size, mac.x2_size), 1.0 / (mac.x1_size * mac.x2_size))
        for a in (0.001, 0.01, 0.03, 0.1, 0.5, 1.0):
            a_nats = a * (math.log(2.0) if units == "bits" else 1.0)
            p, _ = cfmac.delta_curve._refine(mac.kernel, mac._w_log_w, uniform, a_nats)
            gain = mutual_information(mac, JointDist(p), units=units) - cap.c_sum
            assert gain <= delta(mac, a, units=units, capacity=cap).delta + 1e-9, a


@pytest.mark.parametrize("units", ["bits", "nats"])
def test_input_mi_is_never_negative_at_zero_budget(units):
    # the benchmark's 2x2x3 and 4x4x5 kernels; the 2x2x3 one's product law
    # read -2.0e-16 bits before the input MI was clamped at 0
    rng = np.random.default_rng(210201247)
    for shape in ((2, 2, 3), (4, 4, 5)):
        point = delta(Mac(rng.dirichlet(np.ones(shape[2]), size=shape[:2])), 0.0, units=units)
        assert point.delta == 0.0 and point.achieved_mi_budget >= 0.0, shape


RANDOM_SHAPES = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (3, 3, 4), (4, 4, 5)]
PROPERTY_GRID = (0.0, 0.001, 0.01, 0.1, 0.5, 1.0)


def random_kernels(seed=20211):
    """adder2, then seeded Dirichlet(1) and sparse Dirichlet(0.3) kernels up to 4x4x5."""
    yield "adder2", adder2()
    rng = np.random.default_rng(seed)
    for shape in RANDOM_SHAPES:
        for alpha in (1.0, 0.3):
            kernel = rng.dirichlet(np.full(shape[2], alpha), size=shape[:2])
            yield f"{shape} alpha={alpha}", Mac(kernel)


class TestDeltaProperties:
    def test_zero_at_zero_nonnegative_and_nondecreasing(self):
        for i, (label, mac) in enumerate(random_kernels()):
            units = ("bits", "nats")[i % 2]
            cap = sum_capacity(mac, units=units)
            points = [delta(mac, a, units=units, capacity=cap) for a in PROPERTY_GRID]
            # I(X1,X2;Y) of each returned law, the value before delta's clamp at
            # 0: c_sum comes from the same MI core, so it is exact at a = 0 and
            # a law that wins over the maximizer never falls below it
            mis = [mutual_information(mac, p.argmax_joint, units=units) for p in points]
            assert mis[0] == cap.c_sum, label
            assert min(mis) >= cap.c_sum, (label, mis)
            vals = [p.delta for p in points]
            for mi, val in zip(mis, vals):
                assert val == pytest.approx(mi - cap.c_sum, abs=4 * math.ulp(cap.c_sum)), label
            assert vals[0] == 0.0, label
            assert min(vals) >= 0.0, (label, vals)
            # a = 0 returns the product maximizer and reports its input MI as
            # exactly 0; for a > 0 every returned law meets its budget exactly,
            # in nats (the bits value may round an ulp past a)
            assert PROPERTY_GRID[0] == 0 and points[0].achieved_mi_budget == 0.0, label
            for a, p in zip(PROPERTY_GRID[1:], points[1:]):
                a_nats = a * _nats_per_unit(units)
                assert _mi_12_nats(p.argmax_joint.p12) <= a_nats, (label, a)
            # once the budget stops binding every refinement reaches the same law,
            # up to SLSQP's rounding
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), (label, vals)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestFusedObjective:
    def test_refine_objective_is_the_core_bit_for_bit(self):
        # kernels with zero entries, and joint laws with an empty row and column
        rng = np.random.default_rng(27)
        for label, mac in random_kernels():
            kernel = mac.kernel.copy()
            kernel[rng.random(kernel.shape) < 0.3] = 0.0
            kernel[..., 0] += kernel.sum(axis=-1) == 0
            mac = Mac(kernel / kernel.sum(axis=-1, keepdims=True))
            w, w_log_w = mac.kernel, xlogy(mac.kernel, mac.kernel)
            a1, a2 = w.shape[:2]
            sparse = rng.dirichlet(np.ones(a1 * a2)).reshape(a1, a2)
            sparse[rng.integers(a1)] = 0.0
            sparse[:, rng.integers(a2)] = 0.0
            for p12 in (np.full((a1, a2), 1.0 / (a1 * a2)), sparse / sparse.sum()):
                value, grad = _neg_mi_joint(p12.ravel(), w, mac._w_log_w, p12.shape)
                assert _bits(value) == _bits(-_mi_nats(w, p12, w_log_w)), label
                assert _bits(grad) == _bits(1.0 - _letter_div_nats(w, p12).ravel()), label


class TestContext:
    @pytest.mark.parametrize("units", ["bits", "nats"])
    def test_one_context_gives_the_points_of_separate_calls(self, units):
        # the context's budget-independent parts are built once and reused
        # across a grid; every point equals a delta call of its own
        grid = (0.1, 0.0, 0.01, 0.5)
        for label, mac in list(random_kernels())[:7]:
            cap = sum_capacity(mac, units=units)
            context = _DeltaContext(mac, cap, units)
            for a in grid:
                got, want = context.point(a), delta(mac, a, units=units, capacity=cap)
                assert _bits(got.delta) == _bits(want.delta), (label, a)
                assert _bits(got.achieved_mi_budget) == _bits(want.achieved_mi_budget), (label, a)
                assert _bits(got.argmax_joint.p12) == _bits(want.argmax_joint.p12), (label, a)

    @pytest.mark.parametrize("a", [-0.1, math.nan, math.inf])
    def test_point_rejects_bad_budgets(self, a):
        context = _DeltaContext(adder2(), sum_capacity(adder2()), "bits")
        with pytest.raises(ValueError, match="finite and nonnegative"):
            context.point(a)


class TestCertificate:
    def test_no_converged_refinement_raises(self, monkeypatch):
        def stalled(objective, x0, *rest):
            return np.array(x0), 9, 0

        monkeypatch.setattr(cfmac.delta_curve, "_slsqp", stalled)
        with pytest.raises(NonConvergence, match="converged"):
            delta(adder2(), 0.1)
        # a zero budget refines nothing, so it needs no certificate
        assert delta(adder2(), 0.0).delta == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("units", ["bits", "nats"])
    def test_divergence_bound_certifies_zero_gain_without_slsqp(self, monkeypatch, units):
        # at xor's uniform maximizer every input pair's divergence from the
        # output law is C, so no joint law gains and no refinement is run
        def refuse(*args, **kwargs):
            raise AssertionError("SLSQP ran")

        monkeypatch.setattr(cfmac.delta_curve, "_slsqp", refuse)
        mac = xor_channel(0.11)
        cap = sum_capacity(mac, units)
        for a in (1e-6, 0.1, 0.5, 50.0):
            point = delta(mac, a, units=units, capacity=cap)
            assert point.delta == 0.0 and point.achieved_mi_budget == 0.0, a
            assert np.array_equal(point.argmax_joint.p12, cap.argmax_dists[0].joint()), a
        # adder2 gains from dependence: its bound does not hold at C, so it refines
        with pytest.raises(AssertionError, match="SLSQP ran"):
            delta(adder2(), 0.1, units=units)

    def test_a_gain_below_the_slack_of_a_loose_certificate_is_found(self):
        # 3% of adder2 in a kernel of uniform rows: the divergence bound misses C by
        # 3.4e-4 nats, so a certificate slack of 1e-3 would report no gain at all
        mac = Mac(0.97 * np.full((2, 2, 3), 1 / 3) + 0.03 * adder2().kernel)
        cap = sum_capacity(mac, "nats")
        gap = _letter_div_nats(mac.kernel, cap.argmax_dists[0].joint()).max() - cap.c_sum
        assert 1e-12 < gap < 1e-3
        # the grid oracle works in bits; a = 0.1 nats
        grid_gain = brute_force_gain(mac, 0.1 / math.log(2), resolution=80) * math.log(2)
        assert grid_gain >= 1e-5
        assert delta(mac, 0.1, units="nats", capacity=cap).delta >= grid_gain - 1e-9


def random_laws(count, seed=20211):
    """Seeded Dirichlet(1) and Dirichlet(0.3) joint laws, 2x2 up to 4x4."""
    rng = np.random.default_rng(seed)
    shapes = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
    for i in range(count):
        a1, a2 = shapes[i % len(shapes)]
        yield rng.dirichlet(np.full(a1 * a2, (1.0, 0.3)[i % 2])).reshape(a1, a2)


class TestProjection:
    @staticmethod
    def check_projection(p12, a_nats):
        out = _project_feasible(p12, a_nats)
        p1, p2 = p12.sum(axis=1), p12.sum(axis=0)
        assert np.abs(out.sum(axis=1) - p1).max() <= 1e-15
        assert np.abs(out.sum(axis=0) - p2).max() <= 1e-15
        # on the segment (1 - theta) p12 + theta p1 p2, read theta off the
        # cell that moves most
        prod = np.outer(p1, p2)
        cell = np.unravel_index(np.argmax(np.abs(p12 - prod)), p12.shape)
        theta = (p12[cell] - out[cell]) / (p12[cell] - prod[cell])
        assert 0.0 <= theta <= 1.0
        assert np.abs(out - ((1 - theta) * p12 + theta * prod)).max() <= 1e-15
        assert _mi_12_nats(out) <= a_nats
        return out

    @pytest.mark.parametrize("a_nats", [0.001, 0.01, 0.1])
    def test_meets_the_budget_on_the_segment_keeping_the_marginals(self, a_nats):
        outside = 0
        for p12 in random_laws(40):
            out = self.check_projection(p12, a_nats)
            if _mi_12_nats(p12) > a_nats:
                outside += 1
                # the nearest such law: the budget binds up to rounding
                assert _mi_12_nats(out) >= a_nats * (1 - 1e-9)
        assert outside > 0

    def test_law_just_past_the_budget(self):
        # theta = 1 - a/I is ~1e-13 here, where its law can miss the budget by
        # rounding: measured on 7 of these 400 projections
        for p12 in random_laws(200):
            for excess in (1e-14, 1e-13):
                self.check_projection(p12, _mi_12_nats(p12) / (1 + excess))

    def test_law_within_the_budget_is_returned_as_is(self):
        for p12 in random_laws(10):
            assert _project_feasible(p12, _mi_12_nats(p12)) is p12
            product = np.outer(p12.sum(axis=1), p12.sum(axis=0))
            assert _project_feasible(product, 0.001) is product


class TestSmallBudgetAsymptote:
    def test_closed_form_value(self):
        assert delta_small_a(0.25, 1e-4) == pytest.approx(
            math.sqrt(1e-4 * 2.0 * 0.25 * math.log(2.0)), abs=1e-15
        )

    def test_nats_variant_drops_ln2(self):
        assert delta_small_a(0.25, 1e-4, units="nats") == pytest.approx(
            math.sqrt(1e-4 * 2.0 * 0.25), abs=1e-15
        )

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, a):
        with pytest.raises(ValueError, match="finite"):
            delta_small_a(0.25, a)

    @pytest.mark.parametrize("v1_star", [math.nan, math.inf, -0.25])
    def test_non_finite_or_negative_dispersion_rejected(self, v1_star):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            delta_small_a(v1_star, 0.1)

    def test_ratio_near_one_at_small_budget(self):
        mac = adder2()
        cap = sum_capacity(mac)
        a = 1e-3
        ratio = delta(mac, a, capacity=cap).delta / delta_small_a(cap.v1_star, a)
        assert 0.9 <= ratio <= 1.05


class TestPerturbation:
    def test_direction_has_zero_marginal_shift(self):
        mac = adder2()
        pert = perturbation_direction(mac, ProductDist(np.array([0.5, 0.5]), np.array([0.5, 0.5])), 1e-3)
        assert np.allclose(pert.r_table.sum(axis=0), 0.0, atol=1e-12)
        assert np.allclose(pert.r_table.sum(axis=1), 0.0, atol=1e-12)

    def test_perturbed_law_meets_budget_to_first_order(self):
        mac = adder2()
        base = ProductDist(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        a = 1e-5
        pert = perturbation_direction(mac, base, a)
        p = base.joint() + pert.r_table
        d = JointDist(p / p.sum())
        mi12 = (
            np.where(d.p12 > 0, d.p12 * (np.log2(d.p12) - np.log2(np.outer(d.p1, d.p2))), 0)
        ).sum()
        assert mi12 == pytest.approx(a, rel=0.05)

    def test_flat_density_gives_zero_direction(self):
        mac = xor_channel(0.11)
        pert = perturbation_direction(
            mac, ProductDist(np.array([0.5, 0.5]), np.array([0.5, 0.5])), 0.01
        )
        assert np.allclose(pert.r_table, 0.0)
        assert pert.lambda_scale == 0.0

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, a):
        base = ProductDist(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            perturbation_direction(adder2(), base, a)

    def test_rejects_suboptimal_base(self):
        skew = ProductDist(np.array([0.9, 0.1]), np.array([0.5, 0.5]))
        with pytest.raises(NotCapacityAchieving):
            perturbation_direction(adder2(), skew, 0.01)


class TestUnitsAndCapacity:
    def test_unknown_units_are_rejected(self):
        with pytest.raises(ValueError, match="unknown units 'Bits'"):
            delta_small_a(0.25, 1e-4, units="Bits")
        with pytest.raises(ValueError, match="unknown units"):
            delta(adder2(), 0.01, units="nat")

    def test_capacity_in_other_units_is_rejected(self):
        mac = adder2()
        cap_bits = sum_capacity(mac)
        with pytest.raises(ValueError, match="capacity is in bits"):
            delta(mac, 0.01, units="nats", capacity=cap_bits)
        base = cap_bits.argmax_dists[0]
        with pytest.raises(ValueError, match="capacity is in bits"):
            perturbation_direction(mac, base, 0.01, capacity=cap_bits, units="nats")
