import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.special import xlogy
from hypothesis import strategies as st

import ba_reference
import cfmac.channel
from cfmac.channel import (
    JointDist,
    Mac,
    ProductDist,
    adder2,
    channel_stats,
    dump_dist,
    info_density_tables,
    load_channel,
    load_dist,
    mutual_information,
    named_channel,
    output_marginal,
    sum_capacity,
    uniform_product,
    xor_channel,
    _CAPACITY_TOL,
    _check_entries,
    _check_prob,
    _dbar_nats,
    _letter_div_nats,
    _mi_and_div_nats,
    _mi_nats,
    _nats_per_unit,
    _neg_mi_product,
    _seed_grid,
)
from cfmac.errors import NegativeEntry, NonConvergence, RowNotStochastic, SizeMismatch

UNIFORM = ProductDist(np.array([0.5, 0.5]), np.array([0.5, 0.5]))


def _reference_check_prob(p, name):
    """The input-law check that searches every entry first: the reference for
    ``_check_prob``, which searches only when its quick check fails."""
    p = np.array(p, dtype=float)
    _check_entries(p, name)
    if abs(p.sum() - 1.0) > 1e-9:
        raise RowNotStochastic(f"{name} sums to {p.sum():.12g}")


def random_mac(rng, x1, x2, y):
    kernel = rng.random((x1, x2, y))
    kernel /= kernel.sum(axis=-1, keepdims=True)
    return Mac(kernel)


def random_product(rng, x1, x2):
    p1 = rng.random(x1)
    p2 = rng.random(x2)
    return ProductDist(p1 / p1.sum(), p2 / p2.sum())


class TestConstruction:
    def test_adder2_kernel_is_one_hot(self):
        mac = adder2()
        assert mac.kernel.shape == (2, 2, 3)
        for x1 in range(2):
            for x2 in range(2):
                row = mac.kernel[x1, x2]
                assert row[x1 + x2] == 1.0 and row.sum() == 1.0

    def test_xor_rows_are_permuted_bernoulli(self):
        mac = xor_channel(0.11)
        for x1 in range(2):
            for x2 in range(2):
                assert sorted(mac.kernel[x1, x2]) == [0.11, 0.89]

    def test_load_channel_rejects_substochastic_row(self):
        kernel = [[[0.5, 0.4]], [[0.5, 0.5]]]
        with pytest.raises(RowNotStochastic):
            load_channel({"x1_size": 2, "x2_size": 1, "y_size": 2, "kernel": kernel})

    def test_load_channel_rejects_negative_entry(self):
        kernel = [[[1.2, -0.2]], [[0.5, 0.5]]]
        with pytest.raises(NegativeEntry):
            load_channel({"x1_size": 2, "x2_size": 1, "y_size": 2, "kernel": kernel})

    def test_load_channel_rejects_shape_mismatch(self):
        kernel = [[[1.0, 0.0]], [[0.5, 0.5]]]
        with pytest.raises(SizeMismatch):
            load_channel({"x1_size": 2, "x2_size": 2, "y_size": 2, "kernel": kernel})

    def test_named_channel_round_trip(self):
        assert np.array_equal(named_channel("adder2").kernel, adder2().kernel)
        assert np.array_equal(named_channel("xor:0.3").kernel, xor_channel(0.3).kernel)
        with pytest.raises(ValueError):
            named_channel("bec")

    def test_product_dist_rejects_unnormalized(self):
        with pytest.raises(RowNotStochastic):
            ProductDist(np.array([0.6, 0.6]), np.array([0.5, 0.5]))

    def test_non_finite_kernel_entry_is_named(self):
        kernel = np.array(adder2().kernel)
        kernel[1, 0, 2] = np.nan
        with pytest.raises(NegativeEntry, match=r"kernel entry \(1, 0, 2\) is nan"):
            Mac(kernel)
        kernel[1, 0, 2] = np.inf
        with pytest.raises(NegativeEntry, match=r"\(1, 0, 2\) is inf"):
            Mac(kernel)

    def test_non_finite_input_laws_are_rejected(self):
        with pytest.raises(NegativeEntry, match=r"p1 entry \(0,\) is nan"):
            ProductDist(np.array([np.nan, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(NegativeEntry, match=r"p2 entry \(1,\) is nan"):
            ProductDist(np.array([0.5, 0.5]), np.array([1.0, np.nan]))
        with pytest.raises(NegativeEntry, match=r"p12 entry \(1, 1\) is nan"):
            JointDist(np.array([[0.5, 0.25], [0.25, np.nan]]))
        with pytest.raises(NegativeEntry):
            mutual_information(adder2(), ProductDist([np.nan, 0.5], [0.5, 0.5]))

    @pytest.mark.parametrize(
        "p",
        [
            [], [[]], 1.0, 0.5, [0.5, 0.5], [-0.0, 1.0], [0.3, 0.3], [1.0 + 2e-9],
            [np.nan, 1.0], [0.5, np.nan], [np.inf, 0.0], [0.5, -np.inf], [np.inf, -np.inf],
            [-0.1, 1.1], [0.7, -1e-300, 0.3], [1e308, 1e308], [-1e308, 1e308, 1.0],
            [[0.5, np.nan], [-1.0, 0.5]], [[0.25, 0.25], [0.25, 0.25]], [[0.5, 0.6]],
            ["a", 1.0],
        ],
    )
    def test_law_check_raises_as_the_entry_search(self, p):
        def outcome(check):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    check(p, "p1")
                except Exception as exc:
                    raised = type(exc), str(exc)
                else:
                    raised = None
            return raised, [(w.category, str(w.message)) for w in caught]

        assert outcome(_check_prob) == outcome(_reference_check_prob)

    def test_joint_dist_marginals(self):
        p12 = np.array([[0.4, 0.1], [0.2, 0.3]])
        d = JointDist(p12)
        assert np.allclose(d.p1, [0.5, 0.5])
        assert np.allclose(d.p2, [0.6, 0.4])
        assert np.array_equal(d.joint(), p12)

    def test_caller_arrays_stay_writable_and_stored_arrays_do_not(self):
        kernel = np.array(adder2().kernel)
        p, q, p12 = np.array([0.5, 0.5]), np.array([0.3, 0.7]), np.full((2, 2), 0.25)
        mac, prod, joint = Mac(kernel), ProductDist(p, q), JointDist(p12)
        kernel[0, 0, 0] = 0.5
        p[0] = 0.2
        q[0] = 0.2
        p12[0, 0] = 0.2
        assert mac.kernel[0, 0, 0] == 1.0 and prod.p1[0] == 0.5 and prod.p2[0] == 0.3
        assert joint.p12[0, 0] == 0.25
        for stored in (mac.kernel, prod.p1, prod.p2, joint.p12):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0.0


class TestDistRecords:
    def test_round_trip(self):
        for d in (ProductDist([0.3, 0.7], [0.5, 0.5]), JointDist([[0.2, 0.3], [0.1, 0.4]])):
            back = load_dist(json.loads(json.dumps(dump_dist(d))))
            assert type(back) is type(d)
            assert np.array_equal(back.joint(), d.joint())

    @pytest.mark.parametrize(
        "record, match",
        [
            ([[0.5, 0.5]], "expected an object, got list"),
            ({"p1": [0.5, 0.5]}, "missing field 'p2'"),
            ({"q": 1}, "missing field 'p1'"),
            ({"p1": ["a", 1], "p2": [1.0]}, "malformed distribution spec"),
            ({"p1": [0.5, 0.5], "p2": ["a", 1]}, "distribution spec: field 'p2': could not"),
            ({"p12": [[0.5], None]}, "distribution spec: field 'p12'"),
        ],
    )
    def test_malformed_record_is_named(self, record, match):
        with pytest.raises(SizeMismatch, match=match):
            load_dist(record)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("x1_size", None, "expected an integer, got None"),
            ("y_size", 2.5, "expected an integer, got 2.5"),
            ("x2_size", True, "expected an integer, got True"),
            ("kernel", "x", "could not convert"),
        ],
    )
    def test_mistyped_channel_field_is_named(self, field, value, match):
        record = {"x1_size": 2, "x2_size": 2, "y_size": 3, "kernel": adder2().kernel.tolist()}
        with pytest.raises(SizeMismatch, match=f"channel spec: field '{field}': {match}"):
            load_channel({**record, field: value})

    def test_malformed_channel_record_is_named(self):
        with pytest.raises(SizeMismatch, match="missing field 'kernel'"):
            load_channel({"x1_size": 1, "x2_size": 1, "y_size": 1})
        with pytest.raises(SizeMismatch, match="expected an object, got list"):
            load_channel([1.0])


class TestUnits:
    @pytest.mark.parametrize("units", ["Bits", "bit", "nat", ""])
    def test_unknown_units_are_rejected(self, units):
        with pytest.raises(ValueError, match="unknown units"):
            channel_stats(adder2(), UNIFORM, units=units)
        with pytest.raises(ValueError, match="unknown units"):
            sum_capacity(adder2(), units=units)
        with pytest.raises(ValueError, match="unknown units"):
            mutual_information(adder2(), UNIFORM, units=units)


class TestOutputMarginal:
    def test_adder2_uniform(self):
        assert np.allclose(output_marginal(adder2(), UNIFORM), [0.25, 0.5, 0.25])

    def test_xor_uniform_is_symmetric(self):
        assert np.allclose(output_marginal(xor_channel(0.11), UNIFORM), [0.5, 0.5])

    def test_point_mass_returns_kernel_row(self):
        mac = xor_channel(0.2)
        d = ProductDist(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose(output_marginal(mac, d), mac.kernel[1, 0])

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            output_marginal(adder2(), ProductDist(np.array([1.0]), np.array([1.0])))


class TestInfoDensities:
    def test_adder2_uniform_expected_density(self):
        t = info_density_tables(adder2(), UNIFORM)
        assert np.allclose(t.i_bar, [[2.0, 1.0], [1.0, 2.0]])

    def test_xor_uniform_expected_density_constant(self):
        t = info_density_tables(xor_channel(0.11), UNIFORM)
        h = -(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89))
        assert np.allclose(t.i_bar, 1.0 - h)

    def test_independent_output_all_densities_zero(self):
        kernel = np.tile(np.array([0.3, 0.7]), (2, 2, 1))
        t = info_density_tables(Mac(kernel), UNIFORM)
        assert np.allclose(t.i_joint, 0.0)
        assert np.allclose(t.i_1, 0.0)
        assert np.allclose(t.i_2, 0.0)

    def test_kernel_zeros_are_minus_inf_in_every_table(self):
        # p1 = (1, 0): the output 2 and the row x1 = 1 have zero reference
        # marginals, which the kernel zeros there meet
        t = info_density_tables(adder2(), ProductDist(np.array([1.0, 0.0]), np.array([0.5, 0.5])))
        zero = adder2().kernel == 0
        for table in (t.i_joint, t.i_1, t.i_2):
            assert np.all(table[zero] == -np.inf)
            assert not np.isnan(table).any()
        # the pair (1, 1) has probability zero: its y = 2 density is +inf and
        # is left out of i_bar
        assert t.i_joint[1, 1, 2] == np.inf
        assert np.array_equal(t.i_bar, [[1.0, 1.0], [1.0, 0.0]])

    def test_row_average_of_joint_density_is_i_bar(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            mac = random_mac(rng, 2, 3, 4)
            d = random_product(rng, 2, 3)
            t = info_density_tables(mac, d)
            avg = (mac.kernel * np.where(np.isfinite(t.i_joint), t.i_joint, 0.0)).sum(-1)
            assert np.allclose(avg, t.i_bar, atol=1e-9)

    def test_full_average_is_mutual_information(self):
        rng = np.random.default_rng(6)
        mac = random_mac(rng, 3, 2, 3)
        d = random_product(rng, 3, 2)
        t = info_density_tables(mac, d)
        p12 = d.joint()
        avg = (
            p12[:, :, None]
            * mac.kernel
            * np.where(np.isfinite(t.i_joint), t.i_joint, 0.0)
        ).sum()
        assert avg == pytest.approx(mutual_information(mac, d), abs=1e-9)

    def test_units_conversion(self):
        t_bits = info_density_tables(adder2(), UNIFORM, units="bits")
        t_nats = info_density_tables(adder2(), UNIFORM, units="nats")
        assert np.allclose(t_nats.i_bar, t_bits.i_bar * math.log(2.0))


class TestChannelStats:
    def test_adder2_oracle(self):
        # exact enumeration: i_bar takes values (2,1,1,2) each w.p. 1/4
        s = channel_stats(adder2(), UNIFORM)
        assert s.mutual_info == pytest.approx(1.5, abs=1e-12)
        assert s.v1 == pytest.approx(0.25, abs=1e-12)
        assert s.v2 == 0.0  # deterministic kernel: no conditional variance

    def test_xor11_oracle(self):
        s = channel_stats(xor_channel(0.11), UNIFORM)
        h = -(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89))
        # conditional variance of log2(2 p(y|x)) under each input pair
        gap = math.log2(0.89 / 0.11)
        v2 = 0.89 * 0.11 * gap * gap
        assert s.mutual_info == pytest.approx(1.0 - h, abs=1e-12)
        assert s.v1 == 0.0  # i_bar constant across input pairs
        assert s.v2 == pytest.approx(v2, abs=1e-12)

    def test_law_of_total_variance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mac = random_mac(rng, 2, 2, 3)
            d = random_product(rng, 2, 2)
            s = channel_stats(mac, d, units="nats")
            t = info_density_tables(mac, d, units="nats")
            p12 = d.joint()
            w = p12[:, :, None] * mac.kernel
            i = np.where(np.isfinite(t.i_joint), t.i_joint, 0.0)
            mean = (w * i).sum()
            var = (w * (i - mean) ** 2).sum()
            assert s.v1 + s.v2 == pytest.approx(var, abs=1e-9)

    def test_v_max_dominates_conditional_variances(self):
        rng = np.random.default_rng(8)
        mac = random_mac(rng, 2, 3, 3)
        d = random_product(rng, 2, 3)
        s = channel_stats(mac, d, units="nats")
        t = info_density_tables(mac, d, units="nats")
        cond_mean = (mac.kernel * t.i_joint).sum(-1)
        cond_var = (mac.kernel * (t.i_joint - cond_mean[..., None]) ** 2).sum(-1)
        assert s.v_max >= cond_var.max() - 1e-12


class TestSumCapacity:
    def test_adder2(self):
        cap = sum_capacity(adder2())
        assert cap.c_sum == pytest.approx(1.5, abs=1e-9)
        assert cap.v1_star == pytest.approx(0.25, abs=1e-7)
        d = cap.argmax_dists[0]
        assert np.allclose(d.p1, [0.5, 0.5], atol=1e-6)
        assert np.allclose(d.p2, [0.5, 0.5], atol=1e-6)

    def test_xor_closed_form(self):
        p = 0.11
        h = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        cap = sum_capacity(xor_channel(p))
        assert cap.c_sum == pytest.approx(1.0 - h, abs=1e-8)
        assert cap.v1_star == 0.0

    def test_achievers_reach_reported_value(self):
        rng = np.random.default_rng(9)
        mac = random_mac(rng, 2, 2, 3)
        cap = sum_capacity(mac)
        for d in cap.argmax_dists:
            assert mutual_information(mac, d) >= cap.c_sum - 1e-6

    def test_brute_force_small_channel(self):
        rng = np.random.default_rng(10)
        mac = random_mac(rng, 2, 2, 3)
        grid = np.linspace(0.0, 1.0, 201)
        best = 0.0
        for q in grid:
            p1 = np.array([q, 1 - q])
            for r in grid:
                d = ProductDist(p1, np.array([r, 1 - r]))
                best = max(best, mutual_information(mac, d))
        assert sum_capacity(mac).c_sum == pytest.approx(best, abs=1e-4)


def noisy_adder_with_zeros():
    """Y = X1 + X2 + N mod 3 with N in {0, 1}: one kernel zero per row."""
    kernel = np.zeros((2, 2, 3))
    for x1 in range(2):
        for x2 in range(2):
            kernel[x1, x2, (x1 + x2) % 3] = 0.9
            kernel[x1, x2, (x1 + x2 + 1) % 3] = 0.1
    return Mac(kernel)


def kernel_3x2x4_with_zeros():
    rng = np.random.default_rng(31)
    kernel = rng.random((3, 2, 4))
    kernel[rng.random((3, 2, 4)) < 0.35] = 0.0
    kernel[..., 0] += kernel.sum(axis=-1) == 0
    return Mac(kernel / kernel.sum(axis=-1, keepdims=True))


def dirichlet_4x4x5():
    """The benchmark's 4x4x5 kernel: the second draw of its fixed kernel seed."""
    rng = np.random.default_rng(210201247)
    rng.dirichlet(np.ones(3), size=(2, 2))
    return Mac(np.array(rng.dirichlet(np.ones(5), size=(4, 4)).tolist()))


BA_CASES = {
    "adder2": adder2,
    "xor0.11": lambda: xor_channel(0.11),
    "noisy-adder-zeros": noisy_adder_with_zeros,
    "3x2x4-zeros": kernel_3x2x4_with_zeros,
    "dir4x4x5": dirichlet_4x4x5,
}


def _seeded_kernels():
    """12 Dirichlet kernels from 2x2x2 to 4x4x5, concentration alternating 1 and 0.3."""
    shapes = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)]
    shapes += [(3, 3, 4), (3, 4, 4), (4, 4, 4), (4, 4, 5)]
    rng = np.random.default_rng(12345)
    cases = {}
    for i in range(12):
        shape, alpha = shapes[i % len(shapes)], (1.0, 0.3)[i % 2]
        name = f"dir{i}-{'x'.join(map(str, shape))}-{alpha}"
        cases[name] = Mac(rng.dirichlet(np.full(shape[2], alpha), size=shape[:2]))
    return cases


SEEDED = _seeded_kernels()


class TestBatchedAscent:
    """The one-stage SLSQP solver against the retired two-stage solver of ``ba_reference``."""

    def test_seed_grid_matches_reference(self):
        for make in BA_CASES.values():
            mac = make()
            p1s, p2s = _seed_grid(mac)
            want = ba_reference._seed_grid(mac)
            assert len(p1s) == len(want)
            for p1, p2, (q1, q2) in zip(p1s, p2s, want):
                assert np.array_equal(p1, q1) and np.array_equal(p2, q2)

    @pytest.mark.parametrize("case", sorted(BA_CASES) + sorted(SEEDED))
    def test_sum_capacity_equals_reference_solve(self, case):
        mac = BA_CASES[case]() if case in BA_CASES else SEEDED[case]
        for units in ("bits", "nats"):
            got = sum_capacity(mac, units=units)
            want = ba_reference.reference_sum_capacity(mac, units=units)
            assert got.units == want.units == units
            assert abs(got.c_sum - want.c_sum) <= 1e-12
            # V1 varies along a flat optimum, so the maximizers' V1 may move a little
            assert abs(got.v1_star - want.v1_star) <= 1e-8
            # every kept maximizer is within _CAPACITY_TOL nats of the best, in both units
            c_nats = got.c_sum * _nats_per_unit(units)
            for d in got.argmax_dists:
                assert abs(mutual_information(mac, d, "nats") - c_nats) <= _CAPACITY_TOL


class TestCertificate:
    @staticmethod
    def _stall(monkeypatch):
        real = cfmac.channel.minimize

        def stalled(*args, **kwargs):
            res = real(*args, **kwargs)
            res.status, res.success = 9, False
            return res

        monkeypatch.setattr(cfmac.channel, "minimize", stalled)

    def test_no_converged_start_raises(self, monkeypatch):
        self._stall(monkeypatch)
        with pytest.raises(NonConvergence, match="converged"):
            sum_capacity(adder2())

    def test_cli_exits_4(self, monkeypatch, capsys):
        from cfmac.cli import main

        self._stall(monkeypatch)
        assert main(["stats", "--channel", "adder2"]) == 4
        out = capsys.readouterr()
        assert out.out == "" and "numeric failure" in out.err

    @staticmethod
    def _shift_row_averages(monkeypatch):
        # a constant added to every dbar1 leaves the ascent's projected
        # gradient alone but puts the KKT residual near 1 nat
        real = cfmac.channel._dbar_nats

        def shifted(*args):
            dbar1, dbar2 = real(*args)
            return dbar1 + 1.0, dbar2

        monkeypatch.setattr(cfmac.channel, "_dbar_nats", shifted)

    def test_large_kkt_residual_raises(self, monkeypatch):
        self._shift_row_averages(monkeypatch)
        with pytest.raises(NonConvergence, match="KKT residual"):
            sum_capacity(adder2())

    def test_large_kkt_residual_exits_4(self, monkeypatch, capsys):
        from cfmac.cli import main

        self._shift_row_averages(monkeypatch)
        assert main(["stats", "--channel", "adder2"]) == 4
        out = capsys.readouterr()
        assert out.out == "" and "KKT residual" in out.err

    @pytest.mark.parametrize("units", ["bits", "nats"])
    def test_zero_capacity_is_exact(self, units):
        mac = Mac(np.full((2, 3, 2), 0.5))  # every row the same law
        got = sum_capacity(mac, units=units)
        assert got.c_sum == 0.0 and got.v1_star == 0.0 and got.kkt_residual == 0.0
        assert len(got.argmax_dists) == 1
        want = uniform_product(mac)
        assert np.array_equal(got.argmax_dists[0].p1, want.p1)
        assert np.array_equal(got.argmax_dists[0].p2, want.p2)

    @pytest.mark.parametrize("seed", range(8))
    def test_kkt_residual_is_small_on_random_kernels(self, seed):
        rng = np.random.default_rng(seed)
        shape = (rng.integers(2, 5), rng.integers(2, 5), rng.integers(2, 6))
        mac = Mac(rng.dirichlet(np.full(shape[2], (1.0, 0.3)[seed % 2]), size=shape[:2]))
        for units in ("bits", "nats"):
            assert sum_capacity(mac, units=units).kkt_residual <= 1e-6, (shape, units)


def _random_law(rng, x1, x2, joint, zeros):
    if joint:
        p12 = rng.random((x1, x2))
        if zeros:
            p12[rng.random((x1, x2)) < 0.4] = 0.0
            p12[0, 0] += p12.sum() == 0
        return JointDist(p12 / p12.sum())
    p1, p2 = rng.random(x1), rng.random(x2)
    if zeros:
        p1[rng.integers(x1)] = 0.0
        p1[rng.integers(x1)] += 0.5
    return ProductDist(p1 / p1.sum(), p2 / p2.sum())


def _assert_mi_matches_stats(mac, d):
    for units in ("bits", "nats"):
        got = mutual_information(mac, d, units=units)
        assert math.isfinite(got)
        assert got == pytest.approx(channel_stats(mac, d, units=units).mutual_info, abs=1e-12)


class TestMutualInformation:
    """The table-free mutual information against the density-table statistics."""

    def test_random_product_and_joint_laws(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            x1, x2, y = (int(v) for v in rng.integers(1, 5, size=3))
            mac = random_mac(rng, x1, x2, y)
            for joint in (False, True):
                for zeros in (False, True):
                    _assert_mi_matches_stats(mac, _random_law(rng, x1, x2, joint, zeros))

    def test_grid_endpoints(self):
        rng = np.random.default_rng(12)
        for mac in (adder2(), xor_channel(0.11), random_mac(rng, 2, 2, 3), noisy_adder_with_zeros()):
            for q in (0.0, 0.3, 1.0):
                for r in (0.0, 0.7, 1.0):
                    d = ProductDist(np.array([q, 1.0 - q]), np.array([r, 1.0 - r]))
                    _assert_mi_matches_stats(mac, d)
                    _assert_mi_matches_stats(mac, JointDist(d.joint()))

    def test_output_never_produced(self):
        rng = np.random.default_rng(13)
        kernel = np.array(random_mac(rng, 3, 2, 4).kernel)
        kernel[..., 2] = 0.0
        mac = Mac(kernel / kernel.sum(axis=-1, keepdims=True))
        for joint in (False, True):
            for zeros in (False, True):
                _assert_mi_matches_stats(mac, _random_law(rng, 3, 2, joint, zeros))

    def test_wrong_shape_raises(self):
        with pytest.raises(SizeMismatch):
            mutual_information(adder2(), ProductDist(np.array([1.0]), np.array([0.5, 0.5])))
        with pytest.raises(SizeMismatch):
            mutual_information(adder2(), JointDist(np.full((3, 2), 1.0 / 6.0)))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _fused_cases(seed=26, count=40):
    """Kernels with zero entries, each with product laws of full support and
    with an empty row and column, and a joint law with an empty row and column."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x1, x2, y = (int(v) for v in rng.integers(1, 5, size=3))
        kernel = rng.dirichlet(np.full(y, 0.5), size=(x1, x2))
        kernel[rng.random(kernel.shape) < 0.3] = 0.0
        kernel[..., 0] += kernel.sum(axis=-1) == 0  # no row is all zeros
        mac = Mac(kernel / kernel.sum(axis=-1, keepdims=True))
        p1, p2 = rng.dirichlet(np.ones(x1)), rng.dirichlet(np.ones(x2))
        q1, q2 = p1.copy(), p2.copy()
        if x1 > 1:
            q1[rng.integers(x1)] = 0.0
        if x2 > 1:
            q2[rng.integers(x2)] = 0.0
        p12 = rng.dirichlet(np.ones(x1 * x2)).reshape(x1, x2)
        if x1 > 1 and x2 > 1:
            p12[rng.integers(x1)] = 0.0
            p12[:, rng.integers(x2)] = 0.0
        yield mac, [(p1, p2), (q1 / q1.sum(), q2 / q2.sum())], p12 / p12.sum()


class TestFusedCore:
    """A solver step's one evaluation of the MI core gives the floats of the
    separate functions bit for bit, zero kernel entries and empty rows included."""

    def test_per_kernel_constant(self):
        for mac, _, _ in _fused_cases():
            assert _bits(mac._w_log_w) == _bits(xlogy(mac.kernel, mac.kernel))
            assert not mac._w_log_w.flags.writeable

    def test_value_and_divergences_from_one_output_law(self):
        for mac, products, joint in _fused_cases():
            w, w_log_w = mac.kernel, xlogy(mac.kernel, mac.kernel)
            for p12 in [np.outer(p1, p2) for p1, p2 in products] + [joint]:
                mi, div = _mi_and_div_nats(w, p12, mac._w_log_w)
                assert _bits(mi) == _bits(_mi_nats(w, p12, w_log_w))
                assert _bits(div) == _bits(_letter_div_nats(w, p12))

    def test_ascent_objective(self):
        for mac, products, _ in _fused_cases():
            w, w_log_w = mac.kernel, xlogy(mac.kernel, mac.kernel)
            for p1, p2 in products:
                value, grad = _neg_mi_product(np.concatenate([p1, p2]), w, mac._w_log_w, len(p1))
                assert _bits(value) == _bits(-_mi_nats(w, np.outer(p1, p2), w_log_w))
                dbar1, dbar2 = _dbar_nats(w, p1, p2)
                assert _bits(grad) == _bits(-np.concatenate([dbar1 - p2.sum(), dbar2 - p1.sum()]))

    def test_public_mutual_information(self):
        for mac, products, joint in _fused_cases(count=10):
            w_log_w = xlogy(mac.kernel, mac.kernel)
            for d in [ProductDist(p1, p2) for p1, p2 in products] + [JointDist(joint)]:
                got = mutual_information(mac, d, units="nats")
                assert _bits(got) == _bits(_mi_nats(mac.kernel, d.joint(), w_log_w))

    def test_product_joint_is_the_outer_product(self):
        for _, products, _ in _fused_cases(count=10):
            for p1, p2 in products:
                assert _bits(ProductDist(p1, p2).joint()) == _bits(np.outer(p1, p2))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    st.booleans(),
)
# p_Y(1) = p12[0, 1] * W[0, 1, 1] = 2.7e-255 * 2.2e-308 underflows to zero
# although both factors are positive
@example(
    raw=[1.0, 0.0, 0.0, 0.0, 2.2e-308, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    law=[1.0, 1.0, 1.0, 5.4e-255],
    joint=False,
)
def test_mutual_information_property(raw, law, joint):
    kernel = np.array(raw).reshape(2, 2, 3)
    kernel[..., 0] += kernel.sum(axis=-1) == 0
    mac = Mac(kernel / kernel.sum(axis=-1, keepdims=True))
    w = np.array(law)
    if joint:
        w[0] += w.sum() == 0
        d = JointDist((w / w.sum()).reshape(2, 2))
    else:
        p1, p2 = w[:2], w[2:]
        p1[0] += p1.sum() == 0
        p2[0] += p2.sum() == 0
        d = ProductDist(p1 / p1.sum(), p2 / p2.sum())
    _assert_mi_matches_stats(mac, d)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.05, 1.0), min_size=12, max_size=12),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
)
def test_stats_invariants_random(raw, q, r):
    kernel = np.array(raw).reshape(2, 2, 3)
    kernel /= kernel.sum(axis=-1, keepdims=True)
    mac = Mac(kernel)
    d = ProductDist(np.array([q, 1 - q]), np.array([r, 1 - r]))
    s = channel_stats(mac, d, units="nats")
    assert s.v1 >= 0.0 and s.v2 >= 0.0
    assert s.mutual_info >= -1e-12
