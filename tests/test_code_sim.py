import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import gather_reference
from cfmac import code_sim
from cfmac.channel import (
    JointDist,
    Mac,
    ProductDist,
    adder2,
    info_density_tables,
    xor_channel,
)
from cfmac.code_sim import (
    DecoderThresholds,
    SimConfig,
    default_thresholds,
    draw_codebooks,
    estimate_error,
    estimate_error_fixed_code,
    facilitate,
    fbl_bound,
    sim_config_from_dict,
    sim_config_to_dict,
    simulate_with_bound,
    threshold_decode,
)
from cfmac.errors import DegenerateThresholds, ModeMismatch, NotAnNType, SizeMismatch

UNIFORM = ProductDist(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
HALF_TYPE = JointDist(np.array([[0.25, 0.25], [0.25, 0.25]]))


class TestDrawCodebooks:
    def test_same_seed_identical(self):
        a = draw_codebooks(adder2(), UNIFORM, 10, 2, 2, 4, "iid", seed=3)
        b = draw_codebooks(adder2(), UNIFORM, 10, 2, 2, 4, "iid", seed=3)
        assert np.array_equal(a.f1, b.f1) and np.array_equal(a.f2, b.f2)
        c = draw_codebooks(adder2(), UNIFORM, 10, 2, 2, 4, "iid", seed=4)
        assert not np.array_equal(a.f1, c.f1)

    def test_type_mode_words_stay_in_type_class(self):
        cb = draw_codebooks(adder2(), HALF_TYPE, 4, 3, 3, 5, "type", seed=1)
        for user_words in (cb.f1, cb.f2):
            counts = (user_words == 0).sum(axis=-1)
            assert np.all(counts == 2)  # exactly half zeros in every word

    def test_type_mode_rejects_non_type(self):
        bad = JointDist(np.array([[0.3, 0.2], [0.2, 0.3]]))
        with pytest.raises(NotAnNType):
            draw_codebooks(adder2(), bad, 7, 2, 2, 2, "type", seed=0)

    def test_iid_symbol_frequencies_concentrate(self):
        n = 10_000
        dist = ProductDist(np.array([0.3, 0.7]), np.array([0.5, 0.5]))
        cb = draw_codebooks(adder2(), dist, n, 1, 1, 1, "iid", seed=8)
        freq = (cb.f1 == 0).mean()
        assert abs(freq - 0.3) <= 3.0 * math.sqrt(0.21 / n)

    def test_unknown_mode(self):
        with pytest.raises(ModeMismatch):
            draw_codebooks(adder2(), UNIFORM, 4, 1, 1, 1, "mixed", seed=0)

    def test_symbols_are_uint8(self):
        cb = draw_codebooks(adder2(), UNIFORM, 6, 3, 2, 4, "iid", seed=0)
        assert cb.f1.dtype == cb.f2.dtype == np.uint8
        assert cb.f1.shape == (3, 4, 6) and cb.f2.shape == (2, 4, 6)


class TestFacilitate:
    def test_k1_always_first_entry(self):
        cb = draw_codebooks(adder2(), UNIFORM, 6, 3, 3, 1, "iid", seed=0)
        table = facilitate(cb, adder2(), UNIFORM, "iid")
        assert np.all(table.e == 0)

    def test_score_argmax_recomputed_independently(self):
        mac = adder2()
        cb = draw_codebooks(mac, UNIFORM, 8, 3, 3, 4, "iid", seed=5)
        table = facilitate(cb, mac, UNIFORM, "iid")
        i_bar = info_density_tables(mac, UNIFORM, units="nats").i_bar
        for m1 in range(3):
            for m2 in range(3):
                scores = [
                    i_bar[cb.f1[m1, k], cb.f2[m2, k]].sum() for k in range(4)
                ]
                best = max(scores)
                chosen = table.e[m1, m2]
                assert scores[chosen] == pytest.approx(best, abs=1e-12)
                # ties break toward the smallest index
                assert all(s < best - 1e-12 for s in scores[:chosen])

    def test_type_match_unmatched_fallback(self):
        # K=1 with an effectively unreachable joint type: fall back to k=0,
        # flagged unmatched
        mac = adder2()
        corner = JointDist(np.array([[0.5, 0.0], [0.0, 0.5]]))
        cb = draw_codebooks(mac, corner, 4, 2, 2, 1, "type", seed=11)
        # marginals are uniform; most independent pairings miss the diagonal type
        table = facilitate(cb, mac, corner, "type", seed=11)
        assert np.all(table.e == 0)
        assert table.unmatched is not None

    def test_mode_mismatch(self):
        cb = draw_codebooks(adder2(), UNIFORM, 4, 2, 2, 2, "iid", seed=0)
        with pytest.raises(ModeMismatch):
            facilitate(cb, adder2(), UNIFORM, "type")


class TestThresholdDecode:
    def test_single_pair_with_open_thresholds(self):
        mac = adder2()
        cb = draw_codebooks(mac, UNIFORM, 5, 1, 1, 1, "iid", seed=2)
        table = facilitate(cb, mac, UNIFORM, "iid")
        th = DecoderThresholds(c12=-math.inf, c1=-math.inf, c2=-math.inf)
        y = cb.f1[0, 0] + cb.f2[0, 0]
        decoded, reason = threshold_decode(y, cb, table, th, mac, UNIFORM)
        assert decoded == (0, 0) and reason == "decoded"

    def test_multiple_pass_collision(self):
        # all-identical codebooks: every message pair has the same words
        mac = adder2()
        cb_one = draw_codebooks(mac, UNIFORM, 5, 1, 1, 1, "iid", seed=2)
        f1 = np.tile(cb_one.f1, (2, 1, 1))
        f2 = np.tile(cb_one.f2, (2, 1, 1))
        cb = type(cb_one)(f1=f1, f2=f2, mode="iid", seed=2)
        table = facilitate(cb, mac, UNIFORM, "iid")
        th = DecoderThresholds(c12=-math.inf, c1=-math.inf, c2=-math.inf)
        y = f1[0, 0] + f2[0, 0]
        decoded, reason = threshold_decode(y, cb, table, th, mac, UNIFORM)
        assert decoded is None and reason == "multiple-pass"

    def test_rejects_out_of_alphabet_word(self):
        mac = adder2()
        cb = draw_codebooks(mac, UNIFORM, 5, 1, 1, 1, "iid", seed=2)
        table = facilitate(cb, mac, UNIFORM, "iid")
        th = DecoderThresholds(c12=-math.inf, c1=-math.inf, c2=-math.inf)
        with pytest.raises(SizeMismatch):
            threshold_decode(np.array([0, 1, 3, 0, 0]), cb, table, th, mac, UNIFORM)

    def test_none_pass_with_closed_thresholds(self):
        mac = adder2()
        cb = draw_codebooks(mac, UNIFORM, 5, 2, 2, 2, "iid", seed=2)
        table = facilitate(cb, mac, UNIFORM, "iid")
        th = DecoderThresholds(c12=math.inf, c1=math.inf, c2=math.inf)
        y = np.zeros(5, dtype=int)
        decoded, reason = threshold_decode(y, cb, table, th, mac, UNIFORM)
        assert decoded is None and reason == "none-pass"


class TestEstimateError:
    def config(self, **kw):
        base = dict(
            mac=adder2(), dist=UNIFORM, n=20, m1_count=2, m2_count=2, k=2,
            mode="iid", trials=2000, seed=7,
        )
        base.update(kw)
        return SimConfig(**base)

    def test_deterministic_given_seed(self):
        a = estimate_error(self.config())
        b = estimate_error(self.config())
        assert a == b

    def test_decomposition_sums_to_errors(self):
        th = DecoderThresholds(c12=18.0, c1=2.0, c2=2.0)
        rep = estimate_error(self.config(thresholds=th, trials=5000))
        assert sum(rep.decomposition.values()) == rep.errors
        assert rep.p_hat == rep.errors / rep.trials
        assert rep.ci95[0] <= rep.p_hat <= rep.ci95[1]

    def test_closed_thresholds_always_fail(self):
        th = DecoderThresholds(c12=math.inf, c1=math.inf, c2=math.inf)
        rep = estimate_error(self.config(thresholds=th, trials=500))
        assert rep.p_hat == 1.0
        assert rep.decomposition["threshold_miss"] == 500

    def test_noiseless_defaults_decode_reliably(self):
        rep = estimate_error(self.config(trials=20_000))
        assert rep.p_hat < 0.01

    def test_facilitation_does_not_hurt(self):
        th = default_thresholds(adder2(), UNIFORM, 20, 2, 2, 1, "iid")
        r1 = estimate_error(self.config(k=1, thresholds=th, trials=20_000))
        r2 = estimate_error(self.config(k=2, thresholds=th, trials=20_000))
        width = max(r1.ci95[1] - r1.ci95[0], r2.ci95[1] - r2.ci95[0])
        assert r2.p_hat <= r1.p_hat + 2.0 * width

    def test_type_mode_runs_and_classifies(self):
        cfg = SimConfig(
            mac=xor_channel(0.11), dist=HALF_TYPE, n=8, m1_count=2, m2_count=2,
            k=8, mode="type", trials=3000, seed=1,
        )
        rep = estimate_error(cfg)
        assert sum(rep.decomposition.values()) == rep.errors

    def test_fixed_code_deterministic(self):
        cfg = self.config(trials=3000)
        cb = draw_codebooks(cfg.mac, cfg.dist, cfg.n, 2, 2, 2, "iid", seed=9)
        table = facilitate(cb, cfg.mac, cfg.dist, "iid")
        a = estimate_error_fixed_code(cb, table, cfg)
        b = estimate_error_fixed_code(cb, table, cfg)
        assert a == b


class TestFblBound:
    def test_union_terms_equal_three_over_sqrt_n(self):
        # with the default threshold choices the three closed-form terms sum
        # to exactly 3/sqrt(n); the remaining gap is the Monte Carlo first
        # term, which is at most its 99% upper endpoint at zero failures
        n = 50
        cfg = SimConfig(
            mac=adder2(), dist=UNIFORM, n=n, m1_count=4, m2_count=4, k=2,
            mode="iid", trials=1, seed=0,
        )
        bound = fbl_bound(cfg, mc_samples=20_000, seed=1)
        assert bound >= 3.0 / math.sqrt(n)
        assert bound - 3.0 / math.sqrt(n) <= 0.01

    def test_degenerate_thresholds_rejected(self):
        cfg = SimConfig(
            mac=adder2(), dist=UNIFORM, n=10, m1_count=1, m2_count=1, k=1,
            mode="iid",
            thresholds=DecoderThresholds(c12=-math.inf, c1=-math.inf, c2=-math.inf),
        )
        with pytest.raises(DegenerateThresholds):
            fbl_bound(cfg, mc_samples=10)

    def test_bound_dominates_simulation(self):
        cfg = SimConfig(
            mac=xor_channel(0.11), dist=UNIFORM, n=50, m1_count=2, m2_count=2,
            k=2, mode="iid", trials=20_000, seed=2,
        )
        rep = simulate_with_bound(cfg, mc_samples=20_000)
        assert rep.fbl_bound is not None
        assert rep.fbl_bound >= rep.ci95[0]


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = SimConfig(
            mac=xor_channel(0.11), dist=UNIFORM, n=12, m1_count=2, m2_count=4,
            k=3, mode="iid",
            thresholds=DecoderThresholds(c12=5.0, c1=2.0, c2=2.5),
            trials=123, seed=42,
        )
        doc = sim_config_to_dict(cfg)
        back = sim_config_from_dict(doc)
        assert np.array_equal(back.mac.kernel, cfg.mac.kernel)
        assert np.array_equal(np.asarray(back.dist.p1), np.asarray(cfg.dist.p1))
        assert back.thresholds.c12 == 5.0
        assert (back.n, back.m1_count, back.m2_count, back.k) == (12, 2, 4, 3)
        assert (back.trials, back.seed, back.mode) == (123, 42, "iid")
        assert estimate_error(back) == estimate_error(cfg)


class _ConstantRng:
    """Stands in for a Generator whose uniforms all equal ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


class TestSamplers:
    # cumsum([0.7, 0.2, 0.1])[-1] is 0.9999999999999999: a uniform just below
    # one lies past the last cumulative sum and must still map to the last symbol
    CDF = np.cumsum([0.7, 0.2, 0.1])
    TOP = np.nextafter(1.0, 0.0)

    def test_codeword_draw_maps_top_uniform_to_last_symbol(self):
        assert self.TOP >= self.CDF[-1]
        words = code_sim._draw_iid(_ConstantRng(self.TOP), (2, 3), self.CDF)
        assert np.all(words == 2)
        assert np.all(code_sim._draw_iid(_ConstantRng(0.0), (2, 3), self.CDF) == 0)

    def test_channel_maps_top_uniform_to_last_symbol(self):
        mac = Mac(np.tile([0.7, 0.2, 0.1], (2, 2, 1)))
        output_cdf = np.cumsum(mac.kernel, axis=-1)[..., :-1]
        x = np.zeros((3, 4), dtype=np.uint8)
        y = code_sim._channel(_ConstantRng(self.TOP), output_cdf, x, x + 1)
        assert np.all(y == 2)
        assert np.all(code_sim._channel(_ConstantRng(0.0), output_cdf, x, x) == 0)


class TestStreams:
    FAMILIES = (
        code_sim._ENSEMBLE, code_sim._BOUND, code_sim._CODEBOOK,
        code_sim._FACILITATOR, code_sim._FIXED_CODE,
    )

    def test_families_seeds_and_blocks_get_disjoint_keys(self):
        keys = set()
        for seed in (0, 1, 2, 2**64 - 1):
            for family in self.FAMILIES:
                for block in range(4):
                    rng = code_sim._stream(seed, family, block)
                    keys.add(tuple(rng.bit_generator.state["state"]["key"]))
        assert len(keys) == 4 * len(self.FAMILIES) * 4

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_range_is_named(self, seed):
        cfg = SimConfig(
            mac=adder2(), dist=UNIFORM, n=4, m1_count=2, m2_count=2, k=2,
            trials=10, seed=seed,
        )
        with pytest.raises(ValueError, match=f"seed {seed} "):
            estimate_error(cfg)
        with pytest.raises(ValueError, match=f"seed {seed} "):
            fbl_bound(replace(cfg, seed=0), mc_samples=10, seed=seed)
        with pytest.raises(ValueError, match=f"seed {seed} "):
            draw_codebooks(adder2(), UNIFORM, 4, 2, 2, 2, "iid", seed=seed)

    def test_stream_version(self):
        assert code_sim.STREAM_VERSION == 2


def _kernel_3x2x4():
    rng = np.random.default_rng(342)
    kernel = rng.dirichlet(np.ones(4), size=(3, 2))
    kernel[0, 1, 2] = kernel[2, 0, 0] = kernel[1, 1, 3] = 0.0  # zeros give -inf densities
    return Mac(kernel / kernel.sum(axis=-1, keepdims=True))


# (mac, dist, n): one case per channel and mode
_IID_CASES = {
    "adder2": (adder2(), UNIFORM, 12),
    "xor0.11": (xor_channel(0.11), UNIFORM, 12),
    "3x2x4": (
        _kernel_3x2x4(),
        ProductDist(np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4])),
        12,
    ),
}
_TYPE_CASES = {
    "adder2": (adder2(), HALF_TYPE, 8),
    "xor0.11": (xor_channel(0.11), HALF_TYPE, 8),
    "3x2x4": (_kernel_3x2x4(), JointDist(np.array([[2, 1], [1, 2], [1, 1]]) / 8.0), 8),
}


class TestCountKernel:
    """The joint-count kernel against the gather-based reference."""

    B, M1, M2, K = 6, 3, 2, 4

    def draw(self, mac, dist, n, mode, seed):
        rng = np.random.default_rng(seed)
        if mode == "iid":
            f1 = rng.choice(mac.x1_size, size=(self.B, self.M1, self.K, n), p=dist.p1)
            f2 = rng.choice(mac.x2_size, size=(self.B, self.M2, self.K, n), p=dist.p2)
        else:
            counts = np.rint(dist.p12 * n).astype(int)
            base1 = np.repeat(np.arange(mac.x1_size), counts.sum(axis=1))
            base2 = np.repeat(np.arange(mac.x2_size), counts.sum(axis=0))
            f1 = rng.permuted(np.broadcast_to(base1, (self.B, self.M1, self.K, n)), axis=-1)
            f2 = rng.permuted(np.broadcast_to(base2, (self.B, self.M2, self.K, n)), axis=-1)
        y = rng.integers(0, mac.y_size, size=(self.B, n))
        return f1.astype(np.uint8), f2.astype(np.uint8), y.astype(np.uint8)

    def kernel_parts(self, mac, f1, f2):
        l1 = code_sim._onehot(f1.transpose(0, 2, 1, 3), mac.x1_size)
        r2 = code_sim._onehot(f2.transpose(0, 2, 1, 3), mac.x2_size)
        return l1, r2, code_sim._pair_counts(l1, r2)

    def check_decode(self, mac, dist, n, mode, f1, f2, y, e, l1, r2, counts):
        th = default_thresholds(mac, dist, n, self.M1, self.M2, self.K, mode)
        dec = code_sim._Decoder.build(mac, dist, n, th)
        z = code_sim._decode_counts(l1, r2, code_sim._onehot(y, mac.y_size), e)
        got = dec.metrics(z.astype(np.float64) @ dec.weights)
        x1, x2 = gather_reference.selected_words(f1, f2, e)
        tables = gather_reference.decode_tables(mac, dist, th.units)
        want = np.stack(gather_reference.decode_metrics(tables, x1, x2, y), axis=-1)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-9)
        # the same counts taken directly from the facilitated words
        direct = code_sim._word_counts(
            x1, x2, y[:, None, None], mac.x1_size, mac.x2_size, mac.y_size
        )
        assert np.array_equal(direct, z)
        if th.type_constraint is not None:
            target = np.rint(th.type_constraint * n).astype(int)
            want_in = np.take_along_axis(
                gather_reference.joint_type_match(f1, f2, target), e[..., None], axis=-1
            )[..., 0]
            counts_at_e = np.take_along_axis(counts, e[..., None, None], axis=3)[:, :, :, 0]
            assert np.array_equal(dec.in_type(counts_at_e), want_in)
        return np.isneginf(want).any()

    @pytest.mark.parametrize("case", sorted(_IID_CASES))
    def test_iid_matches_gather_reference(self, case):
        mac, dist, n = _IID_CASES[case]
        fac = code_sim._Facilitator.build(mac, dist, n, "iid")
        i_bar = info_density_tables(mac, dist, units="nats").i_bar
        saw_neg_inf = False
        for seed in range(5):
            f1, f2, y = self.draw(mac, dist, n, "iid", seed)
            l1, r2, counts = self.kernel_parts(mac, f1, f2)
            e, unmatched = fac.choose(counts)
            assert unmatched is None
            assert np.array_equal(e, gather_reference.score_argmax(i_bar, f1, f2))
            saw_neg_inf |= self.check_decode(mac, dist, n, "iid", f1, f2, y, e, l1, r2, counts)
        assert saw_neg_inf == (case != "xor0.11")  # xor:0.11 has no kernel zeros

    @pytest.mark.parametrize("case", sorted(_TYPE_CASES))
    def test_type_mode_matches_gather_reference(self, case):
        mac, dist, n = _TYPE_CASES[case]
        fac = code_sim._Facilitator.build(mac, dist, n, "type")
        target = np.rint(dist.p12 * n).astype(int)
        for seed in range(5):
            f1, f2, y = self.draw(mac, dist, n, "type", seed)
            l1, r2, counts = self.kernel_parts(mac, f1, f2)
            u = np.random.default_rng(seed).random((self.B, self.M1, self.M2))
            e, unmatched = fac.choose(counts, u)
            matched = gather_reference.joint_type_match(f1, f2, target)
            assert np.array_equal(unmatched, ~matched.any(axis=-1))
            chosen = np.take_along_axis(matched, e[..., None], axis=-1)[..., 0]
            assert np.array_equal(chosen, ~unmatched)
            self.check_decode(mac, dist, n, "type", f1, f2, y, e, l1, r2, counts)

    def test_xor_scores_all_tie_so_first_codeword_wins(self):
        # xor:0.11 under uniform inputs has four bitwise-equal i_bar entries
        mac, dist, n = _IID_CASES["xor0.11"]
        f1, f2, _ = self.draw(mac, dist, n, "iid", 0)
        _, _, counts = self.kernel_parts(mac, f1, f2)
        e, _ = code_sim._Facilitator.build(mac, dist, n, "iid").choose(counts)
        assert np.all(e == 0)


def test_memory_stays_bounded_at_m64_n1000():
    # The former (B, M1, M2, K, n) float64 score gather alone would take
    # 64 * 64 * 4 * 1000 * 8 B = 131 MB per trial.  The kernel keeps a block's
    # working set within the module's byte budget (64 MB) whatever
    # M1 * M2 * K * n is; this case peaks near 35 MB.
    bound_mb = code_sim._BLOCK_BYTES / 2**20
    cfg = SimConfig(
        mac=adder2(), dist=UNIFORM, n=1000, m1_count=64, m2_count=64, k=4,
        mode="iid", trials=6, seed=3,
    )
    tracemalloc.start()
    try:
        rep = estimate_error(cfg)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert rep.trials == 6 and sum(rep.decomposition.values()) == rep.errors
    assert peak_mb < bound_mb, peak_mb


def _noisy_adder():
    """y = x1 + x2 with probability 0.85, else x1 + x2 + 1 mod 3; zeros give -inf densities."""
    kernel = np.zeros((2, 2, 3))
    for a1 in range(2):
        for a2 in range(2):
            kernel[a1, a2, a1 + a2] = 0.85
            kernel[a1, a2, (a1 + a2 + 1) % 3] = 0.15
    return Mac(kernel)


class TestStreamGolden:
    """Exact results of stream version 2 for fixed (config, seed).

    Anything that moves the random streams (key domains, draw order, the
    samplers, or the trials per block set by ``_trial_bytes`` and
    ``_BLOCK_BYTES``) changes these figures.  Such a change must bump
    ``STREAM_VERSION`` and record the new figures here under the new version.
    """

    VERSION = 2
    # name: (config, trials per (ensemble, bound) block, errors,
    #        (threshold_miss, impostor_pass, ambiguity, type_miss),
    #        (bound samples, threshold fails, type-mode unmatched))
    CASES = {
        "xor-iid-blocks": (
            dict(mac=xor_channel(0.11), dist=UNIFORM, n=60, m1_count=16, m2_count=16, k=4,
                 trials=600, seed=11),
            (197, 5336), 14, (13, 0, 1, 0), (20_000, 247, 0),
        ),
        "noisy-adder-iid": (
            dict(mac=_noisy_adder(), dist=ProductDist(np.array([0.6, 0.4]), UNIFORM.p2), n=16,
                 m1_count=3, m2_count=2, k=3, trials=3000, seed=5),
            (5801, 19418), 87, (68, 0, 19, 0), (20_000, 436, 0),
        ),
        "noisy-adder-type": (
            dict(mac=_noisy_adder(), dist=HALF_TYPE, n=40, m1_count=4, m2_count=4, k=16,
                 mode="type", trials=1000, seed=1),
            (330, 1618), 509, (500, 0, 0, 9), (5000, 2481, 57),
        ),
    }

    def test_figures_belong_to_the_current_stream_version(self):
        assert code_sim.STREAM_VERSION == self.VERSION, (
            "the stream version changed: record this class's figures for the new version"
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trials_per_block(self, case):
        kw, blocks, *_ = self.CASES[case]
        cfg = SimConfig(**kw)
        per_trial = (
            code_sim._trial_bytes(cfg.mac, cfg.n, cfg.m1_count, cfg.m2_count, cfg.k),
            code_sim._trial_bytes(cfg.mac, cfg.n, 1, 1, cfg.k),
        )
        assert tuple(code_sim._BLOCK_BYTES // b for b in per_trial) == blocks
        # each case runs over more than one block of trials or of bound samples
        assert cfg.trials > blocks[0] or self.CASES[case][4][0] > blocks[1]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_estimate_error(self, case):
        kw, _, errors, tally, _ = self.CASES[case]
        rep = estimate_error(SimConfig(**kw))
        assert rep.errors == errors
        keys = ("threshold_miss", "impostor_pass", "ambiguity", "type_miss")
        assert tuple(rep.decomposition[key] for key in keys) == tally

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bound_samples(self, case):
        kw, _, _, _, (samples, fails, misses) = self.CASES[case]
        cfg = SimConfig(**kw)
        got = code_sim._bound_samples(cfg, cfg.resolved_thresholds(), samples, seed=3)
        assert got == (fails, misses)

    def test_codebooks_facilitator_and_fixed_code(self):
        kw = self.CASES["noisy-adder-iid"][0]
        cfg = SimConfig(**kw)
        cb = draw_codebooks(cfg.mac, cfg.dist, cfg.n, 3, 2, 3, "iid", seed=9)
        assert "".join(map(str, cb.f1[0, 0])) == "1111101010000100"
        assert "".join(map(str, cb.f2[1, 2])) == "0000011000001000"
        table = facilitate(cb, cfg.mac, cfg.dist, "iid")
        assert table.e.tolist() == [[0, 2], [1, 1], [2, 1]]
        rep = estimate_error_fixed_code(cb, table, replace(cfg, trials=2000))
        assert (rep.errors, rep.decomposition["threshold_miss"]) == (46, 45)
        kw = self.CASES["noisy-adder-type"][0]
        cb = draw_codebooks(kw["mac"], kw["dist"], kw["n"], 2, 2, 8, "type", seed=9)
        table = facilitate(cb, kw["mac"], kw["dist"], "type", seed=4)
        assert table.e.tolist() == [[6, 0], [1, 3]]
        assert table.unmatched.tolist() == [[True, False], [False, True]]
