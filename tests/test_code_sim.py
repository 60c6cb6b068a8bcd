import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bound_reference
import gather_reference
import sim_seam
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
    Codebooks,
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

ROOT = Path(__file__).resolve().parents[1]
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

    @pytest.mark.parametrize("field", ["n", "m1_count", "m2_count", "k"])
    def test_sizes_below_one_are_rejected(self, field):
        sizes = dict(n=4, m1_count=2, m2_count=2, k=2)
        with pytest.raises(ValueError, match=f"{field} must be at least 1, got 0"):
            draw_codebooks(adder2(), UNIFORM, **{**sizes, field: 0})

    def test_sizes_are_read_as_integers(self):
        with pytest.raises(ValueError, match="expected an integer, got 2.5"):
            draw_codebooks(adder2(), UNIFORM, 4, 2.5, 2, 2)
        cb = draw_codebooks(adder2(), UNIFORM, 4.0, np.int64(3), 2, 2.0)
        assert cb.f1.shape == (3, 2, 4) and cb.f2.shape == (2, 2, 4)

    def test_symbols_are_uint8(self):
        cb = draw_codebooks(adder2(), UNIFORM, 6, 3, 2, 4, "iid", seed=0)
        assert cb.f1.dtype == cb.f2.dtype == np.uint8
        assert cb.f1.shape == (3, 4, 6) and cb.f2.shape == (2, 4, 6)


class TestCodebookChecks:
    """Codebooks are checked where they enter: ``facilitate`` and the prepared code."""

    def code(self, **fields):
        """adder2 codebooks (n, M1, M2, K) = (6, 2, 2, 2), their table, config and thresholds."""
        cb = draw_codebooks(adder2(), UNIFORM, 6, 2, 2, 2, "iid", seed=1)
        table = facilitate(cb, adder2(), UNIFORM, "iid")
        cfg = SimConfig(mac=adder2(), dist=UNIFORM, n=6, m1_count=2, m2_count=2, k=2, trials=100)
        return replace(cb, **fields), table, cfg, cfg.resolved_thresholds()

    def rejected_everywhere(self, cb, table, cfg, th, match):
        with pytest.raises(SizeMismatch, match=match):
            facilitate(cb, adder2(), UNIFORM, "iid")
        with pytest.raises(SizeMismatch, match=match):
            estimate_error_fixed_code(cb, table, cfg)
        with pytest.raises(SizeMismatch, match=match):
            threshold_decode(np.zeros(6, dtype=np.uint8), cb, table, th, adder2(), UNIFORM)

    @pytest.mark.parametrize("user", [1, 2])
    def test_symbols_outside_the_input_alphabet_are_rejected(self, user):
        # adder2's inputs are binary: a codebook of 2s used to read as all zeros
        twos = np.full((2, 2, 6), 2, dtype=np.uint8)
        cb, table, cfg, th = self.code(**{f"f{user}": twos})
        match = re.escape(f"codebook {user} holds symbols in [2, 2], outside [0, 2)")
        self.rejected_everywhere(cb, table, cfg, th, match)

    @pytest.mark.parametrize("user", [1, 2])
    @pytest.mark.parametrize("shape", [(2, 3, 6), (2, 2, 5), (2, 6), (0, 2, 6)],
                             ids=["other-k", "other-n", "two-axes", "no-words"])
    def test_codebooks_of_other_sizes_are_rejected(self, user, shape):
        cb, table, cfg, th = self.code(**{f"f{user}": np.zeros(shape, dtype=np.uint8)})
        shapes = (shape, (2, 2, 6)) if user == 1 else ((2, 2, 6), shape)
        match = re.escape("codebooks of shapes {} and {} are not (M1, K, n)".format(*shapes))
        self.rejected_everywhere(cb, table, cfg, th, match)


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

    @pytest.mark.parametrize("mode", ["iid", "type"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_range_is_rejected(self, mode, seed):
        cb = draw_codebooks(adder2(), HALF_TYPE, 4, 2, 2, 2, mode, seed=0)
        with pytest.raises(ValueError, match="outside"):
            facilitate(cb, adder2(), HALF_TYPE, mode, seed)

    @pytest.mark.parametrize("mode, uniforms", [("iid", 0), ("type", 3 * 2 * 4)])
    def test_choice_takes_one_uniform_per_message_pair_in_type_mode(self, mode, uniforms):
        fac = sim_seam.facilitator(adder2(), HALF_TYPE, 8, mode)
        # pair counts (A1*A2, B, M1, M2, K); only their matches to the target matter
        counts = np.random.default_rng(1).integers(0, 3, size=(4, 3, 2, 4, 5))
        rng, fresh = np.random.default_rng(7), np.random.default_rng(7)
        sim_seam.choose(fac, counts, rng)
        fresh.random(uniforms)
        assert rng.random() == fresh.random()


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

    def test_type_code_checks_the_joint_type_under_explicit_thresholds(self):
        # K = 1 words with two of each symbol: under the diagonal type a pair
        # matches where its words are equal, which only the pair (0, 1) is, so
        # with open thresholds the type check alone leaves one pair passing
        mac = adder2()
        corner = JointDist(np.array([[0.5, 0.0], [0.0, 0.5]]))
        words = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 0, 0]], dtype=np.uint8)
        cb = Codebooks(f1=words[:2, None], f2=words[[2, 0], None], mode="type", seed=3)
        table = facilitate(cb, mac, corner, "type", seed=3)
        assert np.argwhere(~table.unmatched).tolist() == [[0, 1]]
        th = DecoderThresholds(c12=-math.inf, c1=-math.inf, c2=-math.inf)
        for m1, m2 in np.ndindex(2, 2):
            y = cb.f1[m1, 0] + cb.f2[m2, 0]
            assert threshold_decode(y, cb, table, th, mac, corner) == ((0, 1), "decoded")
        cfg = SimConfig(
            mac=mac, dist=corner, n=4, m1_count=2, m2_count=2, k=1, mode="type",
            thresholds=th, trials=2000, seed=5,
        )
        rep = estimate_error_fixed_code(cb, table, cfg)
        # only messages (0, 1) decode; the others lose to that pair's pass
        assert rep.decomposition["ambiguity"] == 0
        assert rep.errors == rep.decomposition["impostor_pass"]
        assert 0.7 < rep.p_hat < 0.8

    def test_rejects_out_of_alphabet_word(self):
        mac = adder2()
        cb = draw_codebooks(mac, UNIFORM, 5, 1, 1, 1, "iid", seed=2)
        table = facilitate(cb, mac, UNIFORM, "iid")
        th = DecoderThresholds(c12=-math.inf, c1=-math.inf, c2=-math.inf)
        with pytest.raises(SizeMismatch):
            threshold_decode(np.array([0, 1, 3, 0, 0]), cb, table, th, mac, UNIFORM)

    def test_rejects_fractional_word_and_accepts_integral_floats(self):
        mac = adder2()
        cb = draw_codebooks(mac, UNIFORM, 5, 1, 1, 1, "iid", seed=2)
        table = facilitate(cb, mac, UNIFORM, "iid")
        th = DecoderThresholds(c12=-math.inf, c1=-math.inf, c2=-math.inf)
        with pytest.raises(SizeMismatch, match="5 integers in"):
            threshold_decode(np.array([0.9, 1.5, 0.2, 1.9, 0.0]), cb, table, th, mac, UNIFORM)
        y = cb.f1[0, 0] + cb.f2[0, 0]
        assert threshold_decode(y.astype(float), cb, table, th, mac, UNIFORM) == (
            threshold_decode(y, cb, table, th, mac, UNIFORM)
        )

    def test_rejects_a_table_that_does_not_fit_the_codebooks(self):
        # codebooks with M = 2, K = 2, against the table of an M = 4, K = 3 code
        # and against a 2 x 2 table with an entry past K
        mac = adder2()
        cb = draw_codebooks(mac, UNIFORM, 8, 2, 2, 2, "iid", seed=2)
        other = facilitate(draw_codebooks(mac, UNIFORM, 8, 4, 4, 3, "iid", seed=2), mac, UNIFORM)
        past_k = replace(other, e=np.full((2, 2), 2))
        th = DecoderThresholds(c12=-math.inf, c1=-math.inf, c2=-math.inf)
        for table in (other, past_k):
            m = len(table.e)  # a config of the table's sizes passes the config check
            cfg = SimConfig(mac=mac, dist=UNIFORM, n=8, m1_count=m, m2_count=m, k=2, trials=100)
            match = rf"table of shape \({m}, {m}\) .* codebooks of \(M1, M2\) = \(2, 2\)"
            with pytest.raises(SizeMismatch, match=match):
                threshold_decode(np.zeros(8), cb, table, th, mac, UNIFORM)
            with pytest.raises(SizeMismatch, match=match):
                estimate_error_fixed_code(cb, table, cfg)

    def test_none_pass_with_closed_thresholds(self):
        mac = adder2()
        cb = draw_codebooks(mac, UNIFORM, 5, 2, 2, 2, "iid", seed=2)
        table = facilitate(cb, mac, UNIFORM, "iid")
        th = DecoderThresholds(c12=math.inf, c1=math.inf, c2=math.inf)
        y = np.zeros(5, dtype=int)
        decoded, reason = threshold_decode(y, cb, table, th, mac, UNIFORM)
        assert decoded is None and reason == "none-pass"


def _facilitated(cb, table):
    """The facilitated words x1, x2 (1, M1, M2, n) of a fixed code."""
    return gather_reference.selected_words(cb.f1[None], cb.f2[None], table.e[None])


def _pair_metrics(y, cb, table, th, mac, dist):
    """A freshly built decoder and its weighted counts (M1, M2, columns) of word y."""
    dec = code_sim._Decoder.build(mac, dist, th)
    x1, x2 = _facilitated(cb, table)
    y = np.asarray(y, dtype=np.int64)[None]
    z = gather_reference.decode_counts(x1, x2, y, mac.x1_size, mac.y_size, mac.x2_size)
    return dec, z[0].astype(np.float64) @ dec.weights


def _decode_from_scratch(y, cb, table, th, mac, dist):
    """threshold_decode by the gather reference's counts and a freshly built decoder, no memo."""
    dec, z = _pair_metrics(y, cb, table, th, mac, dist)
    passes = dec.passes(z)
    if cb.mode == "type":
        target = code_sim._type_counts(dist, cb.n)
        x1, x2 = (x.reshape(-1, 1, 1, cb.n) for x in _facilitated(cb, table))  # B = M1*M2 pairs
        counts = gather_reference.pair_counts(x1, x2, *target.shape).reshape(*passes.shape, -1)
        passes &= (counts == target.ravel()).all(axis=-1)
    hits = np.argwhere(passes)
    if len(hits) == 1:
        return (int(hits[0][0]), int(hits[0][1])), "decoded"
    return None, ("none-pass" if len(hits) == 0 else "multiple-pass")


class TestThresholdDecodeMemo:
    """threshold_decode keeps one prepared code, keyed by the values it is built from."""

    N, M, K = 12, 3, 4
    # type mode: the n-type of the words, and another joint type of the same marginals
    TYPES = (HALF_TYPE, JointDist(np.array([[4, 2], [2, 4]]) / 12.0))
    # below the iid defaults (7.0, 3.4, 3.4): most sent words decode, in both modes
    TH = DecoderThresholds(c12=6.0, c1=2.4, c2=2.4)

    def code(self, mode, seed=4):
        mac = _noisy_adder()
        dist = UNIFORM if mode == "iid" else self.TYPES[0]
        cb = draw_codebooks(mac, dist, self.N, self.M, self.M, self.K, mode, seed=seed)
        return [cb, facilitate(cb, mac, dist, mode, seed=seed), self.TH, mac, dist]

    def sent(self, rng, cb, table, mac, m1, m2):
        """Message pair (m1, m2)'s words sent through the channel."""
        k = table.e[m1, m2]
        cdf = np.cumsum(mac.kernel, axis=-1)[cb.f1[m1, k], cb.f2[m2, k]]
        return (rng.random(self.N)[:, None] >= cdf[:, :-1]).sum(-1)

    def words(self, cb, table, mac):
        """Each message pair's words sent through the channel, then uniform words."""
        rng = np.random.default_rng(8)
        for m1, m2 in np.ndindex(table.e.shape):
            yield self.sent(rng, cb, table, mac, m1, m2)
        yield from rng.integers(0, mac.y_size, size=(6, self.N))

    def near_thresholds(self, code, count=15):
        """The ``count`` distinct channel outputs whose d1 or d2 sits nearest c1 or c2 at
        a facilitated pair that passes c12, so that a changed code flips several."""
        cb, table, th, mac, _ = code
        rng = np.random.default_rng(9)
        pairs = np.ndindex(table.e.shape)
        outputs = [self.sent(rng, cb, table, mac, *pair) for pair in pairs for _ in range(50)]
        words = np.unique(outputs, axis=0)

        def gap(y):
            _, z = _pair_metrics(y, *code)
            near = np.abs(np.min(z[..., 1:3] - [th.c1, th.c2], axis=-1))
            finite = (z[..., 3:] == 0).all(axis=-1)  # no infinite term decides the pair
            return np.where(finite & (z[..., 0] >= th.c12), near, np.inf).min()

        return list(words[np.argsort([gap(y) for y in words], kind="stable")[:count]])

    def change(self, what, mode, code):
        cb, table, th, mac, dist = code
        if what == "codeword in place":
            cb.f1[[0, 1]] = cb.f1[[1, 0]]  # messages 0 and 1 of user 1 trade words
        elif what == "table":
            code[1] = replace(table, e=(table.e + 1) % self.K)
        elif what == "thresholds":
            code[2] = replace(th, c12=math.inf)
        elif mode == "iid":  # a JointDist, strongly correlated, of the same marginals
            code[4] = JointDist(np.array([[0.45, 0.05], [0.05, 0.45]]))
        else:
            code[4] = self.TYPES[1]

    @pytest.mark.parametrize("what", ["codeword in place", "table", "thresholds", "dist"])
    @pytest.mark.parametrize("mode", ["iid", "type"])
    def test_a_changed_code_is_decoded_afresh(self, mode, what):
        code = self.code(mode)
        words = list(self.words(*code[:2], code[3])) + self.near_thresholds(code)
        before = [threshold_decode(y, *code) for y in words]
        assert before == [_decode_from_scratch(y, *code) for y in words]
        self.change(what, mode, code)
        after = [_decode_from_scratch(y, *code) for y in words]
        assert after != before  # a stale code would show
        assert [threshold_decode(y, *code) for y in words] == after

    @pytest.mark.parametrize("mode", ["iid", "type"])
    def test_switching_codes_keeps_each_codes_answers(self, mode):
        a, b = self.code(mode, seed=4), self.code(mode, seed=5)
        words = list(self.words(*a[:2], a[3]))
        want = [_decode_from_scratch(y, *a) for y in words]
        assert want != [_decode_from_scratch(y, *b) for y in words]
        for y, answer in zip(words, want):
            assert threshold_decode(y, *a) == answer
            threshold_decode(y, *b)
            assert threshold_decode(y, *a) == answer


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

    @pytest.mark.parametrize("sizes", [(20, 4, 4), (20, 1, 1), (21, 2, 2)])
    def test_fixed_code_rejects_a_config_of_other_sizes(self, sizes):
        n, m1, m2 = sizes
        cb = draw_codebooks(adder2(), UNIFORM, n, m1, m2, 2, "iid", seed=3)
        table = facilitate(cb, adder2(), UNIFORM, "iid")
        with pytest.raises(SizeMismatch, match=r"\(20, 2, 2\) does not match"):
            estimate_error_fixed_code(cb, table, self.config(trials=100))

    def test_fixed_code_rejects_a_config_of_other_k(self):
        # a K = 2 code under K = 5 would run with K = 5's default thresholds
        cb = draw_codebooks(adder2(), UNIFORM, 20, 2, 2, 2, "iid", seed=3)
        table = facilitate(cb, adder2(), UNIFORM, "iid")
        with pytest.raises(SizeMismatch, match="config K = 5 does not match the code's K = 2"):
            estimate_error_fixed_code(cb, table, self.config(k=5, trials=100))

    @pytest.mark.parametrize("code_mode, config_mode", [("type", "iid"), ("iid", "type")])
    def test_fixed_code_rejects_a_config_of_other_mode(self, code_mode, config_mode):
        cb = draw_codebooks(adder2(), HALF_TYPE, 8, 2, 2, 2, code_mode, seed=3)
        table = facilitate(cb, adder2(), HALF_TYPE, code_mode)
        cfg = SimConfig(
            mac=adder2(), dist=HALF_TYPE, n=8, m1_count=2, m2_count=2, k=2,
            mode=config_mode, trials=100,
        )
        with pytest.raises(ModeMismatch, match=f"config mode '{config_mode}' does not match"):
            estimate_error_fixed_code(cb, table, cfg)

    @pytest.mark.parametrize("code_mode, table_mode", [("iid", "type"), ("type", "iid")])
    def test_fixed_code_rejects_a_table_of_other_mode(self, code_mode, table_mode):
        mac = adder2()
        cb = draw_codebooks(mac, HALF_TYPE, 8, 2, 2, 2, code_mode, seed=3)
        other = draw_codebooks(mac, HALF_TYPE, 8, 2, 2, 2, table_mode, seed=3)
        table = facilitate(other, mac, HALF_TYPE, table_mode)  # same shape, other mode
        cfg = SimConfig(
            mac=mac, dist=HALF_TYPE, n=8, m1_count=2, m2_count=2, k=2,
            mode=code_mode, trials=100,
        )
        match = f"table mode '{table_mode}' does not match codebook mode '{code_mode}'"
        with pytest.raises(ModeMismatch, match=match):
            estimate_error_fixed_code(cb, table, cfg)
        th, y = cfg.resolved_thresholds(), np.zeros(8, dtype=np.uint8)
        with pytest.raises(ModeMismatch, match=match):
            threshold_decode(y, cb, table, th, mac, HALF_TYPE)
        # a table equal to the code's own but for its mode misses the memo slot
        own = facilitate(cb, mac, HALF_TYPE, code_mode)
        threshold_decode(y, cb, own, th, mac, HALF_TYPE)
        with pytest.raises(ModeMismatch, match=match):
            threshold_decode(y, cb, replace(own, mode=table_mode), th, mac, HALF_TYPE)

    @pytest.mark.parametrize("mode", ["iid", "type"])
    def test_type_check_follows_the_mode(self, mode):
        # the three default levels, given explicitly as a config document gives
        # them, yield the default report: in type mode the decoder checks the
        # joint type either way
        cfg = SimConfig(
            mac=xor_channel(0.11), dist=HALF_TYPE, n=20, m1_count=2, m2_count=2, k=4,
            mode=mode, trials=4000, seed=1,
        )
        th = default_thresholds(cfg.mac, cfg.dist, 20, 2, 2, 4, mode)
        explicit = DecoderThresholds(c12=th.c12, c1=th.c1, c2=th.c2)
        rep = estimate_error(replace(cfg, thresholds=explicit))
        assert rep == estimate_error(cfg)
        misses = rep.decomposition["type_miss"]
        assert misses == 0 if mode == "iid" else misses > 400


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

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_rejected(self, samples):
        cfg = SimConfig(
            mac=adder2(), dist=UNIFORM, n=10, m1_count=1, m2_count=1, k=1, mode="iid",
        )
        with pytest.raises(ValueError, match=f"mc_samples must be at least 1, got {samples}"):
            fbl_bound(cfg, mc_samples=samples)

    @pytest.mark.parametrize(
        "samples, count", [(True, None), (2.5, None), (1000.0, 1000)], ids=["True", "2.5", "1000.0"]
    )
    def test_sample_count_must_be_an_integer(self, samples, count):
        # True used to run one sample and 2.5 to die in range(); 1000.0 is 1000
        cfg = SimConfig(
            mac=xor_channel(0.11), dist=UNIFORM, n=20, m1_count=2, m2_count=2, k=2, mode="iid",
        )
        if count is None:
            with pytest.raises(ValueError, match="expected an integer"):
                fbl_bound(cfg, mc_samples=samples)
        else:
            assert fbl_bound(cfg, mc_samples=samples) == fbl_bound(cfg, mc_samples=count)

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

    def test_class_count_does_not_overflow(self):
        # (n + 1)^(A1*A2) = 102401^64 overflows a float; the default thresholds
        # carry the same factor, so each union term is n^(-1/2)
        n = 102_400
        kernel = np.random.default_rng(8).dirichlet(np.ones(2), size=(8, 8))
        cfg = SimConfig(
            mac=Mac(kernel), dist=JointDist(np.full((8, 8), 1 / 64)), n=n, m1_count=1,
            m2_count=1, k=1, mode="type",
        )
        th = cfg.resolved_thresholds()
        assert code_sim._union(cfg, th) == pytest.approx(3.0 / math.sqrt(n), rel=1e-9)
        assert math.isfinite(fbl_bound(cfg, mc_samples=1))

    def test_kernel_rows_within_tolerance_are_sampled(self):
        # a kernel row may sum to 1 within 1e-9; multinomial allows only 1e-12
        kernel = adder2().kernel.copy()
        kernel[0, 0] = [1.0 + 5e-10, 0.0, 0.0]
        cfg = SimConfig(mac=Mac(kernel), dist=UNIFORM, n=20, m1_count=2, m2_count=2, k=2)
        assert fbl_bound(cfg, mc_samples=100) == pytest.approx(
            fbl_bound(replace(cfg, mac=adder2()), mc_samples=100)
        )


_CONFIG_DOC = {
    "channel": "adder2", "dist": {"p1": [0.5, 0.5], "p2": [0.5, 0.5]},
    "n": 20, "m1_count": 2, "m2_count": 2, "k": 2,
}


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

    def test_thresholds_in_other_units_are_rejected(self):
        th = DecoderThresholds(2.0, 1.0, 1.0, units="bits")
        with pytest.raises(ValueError, match="thresholds are in 'bits', the config in 'nats'"):
            SimConfig(
                mac=adder2(), dist=UNIFORM, n=20, m1_count=2, m2_count=2, k=2,
                units="nats", thresholds=th,
            )
        cfg = SimConfig(
            mac=adder2(), dist=UNIFORM, n=20, m1_count=2, m2_count=2, k=2,
            units="nats", thresholds=replace(th, units="nats"),
        )
        assert sim_config_from_dict(sim_config_to_dict(cfg)).thresholds == cfg.thresholds

    def test_joint_dist_round_trip(self):
        cfg = SimConfig(
            mac=adder2(), dist=HALF_TYPE, n=8, m1_count=2, m2_count=2, k=4, mode="type",
            trials=200, seed=3,
        )
        back = sim_config_from_dict(sim_config_to_dict(cfg))
        assert np.array_equal(back.dist.p12, HALF_TYPE.p12)
        assert estimate_error(back) == estimate_error(cfg)

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([1, 2], "expected an object, got list"),
            ({"channel": "adder2"}, "missing field"),
            ({**_CONFIG_DOC, "n": None}, "malformed simulation config"),
            ({**_CONFIG_DOC, "thresholds": 5}, "malformed simulation config"),
            ({**_CONFIG_DOC, "dist": {"p12": "x"}}, "malformed distribution spec"),
            ({**_CONFIG_DOC, "channel": {"x1_size": 2}}, "malformed channel spec"),
            ({**_CONFIG_DOC, "n": None}, "config: field 'n': expected an integer, got None"),
            ({**_CONFIG_DOC, "thresholds": 5}, "field 'thresholds': expected an object, got int"),
            ({**_CONFIG_DOC, "thresholds": {"c12": None, "c1": 1, "c2": 1}}, "field 'c12'"),
            ({**_CONFIG_DOC, "channel": "xor:a"}, "config: field 'channel'"),
            ({**_CONFIG_DOC, "dist": {"p12": "x"}}, "distribution spec: field 'p12'"),
            (
                {**_CONFIG_DOC, "channel": {"x1_size": 2, "x2_size": 2, "y_size": 3, "kernel": "x"}},
                "channel spec: field 'kernel'",
            ),
        ],
    )
    def test_malformed_config_is_named(self, doc, match):
        with pytest.raises(SizeMismatch, match=match):
            sim_config_from_dict(doc)

    @pytest.mark.parametrize("value", [20.7, 1.5, True, False, "20", None, float("inf")])
    @pytest.mark.parametrize("field", ["n", "m1_count", "m2_count", "k", "trials", "seed"])
    def test_integer_fields_reject_other_values(self, field, value):
        with pytest.raises(SizeMismatch, match=f"field '{field}': expected an integer, got {value!r}"):
            sim_config_from_dict({**_CONFIG_DOC, field: value})

    def test_integral_floats_are_integers(self):
        cfg = sim_config_from_dict({**_CONFIG_DOC, "n": 20.0, "trials": 1e3, "seed": 7.0})
        assert (cfg.n, cfg.trials, cfg.seed) == (20, 1000, 7)
        assert all(type(v) is int for v in (cfg.n, cfg.trials, cfg.seed))

    @pytest.mark.parametrize("value", [20.5, True, np.float64(1.5)])
    @pytest.mark.parametrize("field", ["n", "m1_count", "m2_count", "k", "trials", "seed"])
    def test_config_fields_must_be_integers(self, field, value):
        kw = dict(mac=adder2(), dist=UNIFORM, n=20, m1_count=2, m2_count=2, k=2)
        with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {value!r}")):
            SimConfig(**{**kw, field: value})

    def test_integral_config_fields_are_stored_as_ints(self):
        cfg = SimConfig(mac=adder2(), dist=UNIFORM, n=np.int64(20), m1_count=2.0,
                        m2_count=np.uint8(2), k=2, trials=1e3, seed=np.uint64(2**64 - 1))
        values = (cfg.n, cfg.m1_count, cfg.m2_count, cfg.k, cfg.trials, cfg.seed)
        assert values == (20, 2, 2, 2, 1000, 2**64 - 1)
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("field", ["n", "m1_count", "m2_count", "k"])
    def test_sizes_below_one_are_rejected(self, field):
        kw = dict(mac=adder2(), dist=UNIFORM, n=20, m1_count=2, m2_count=2, k=2)
        with pytest.raises(ValueError, match=f"{field} must be at least 1, got 0"):
            SimConfig(**{**kw, field: 0})

    def test_unknown_units_are_rejected(self):
        with pytest.raises(ValueError, match="unknown units 'bit'"):
            default_thresholds(adder2(), UNIFORM, 20, 2, 2, 2, "iid", units="bit")


class TestSamplers:
    # the compared sums 0.7 and 0.7 + 0.2 = 0.8999999999999999 take b = 52 bits:
    # the top U, 2^52 - 1, must still reach both and U = 0 neither
    P = (0.7, 0.2, 0.1)
    B = 52

    def test_codeword_draw_maps_top_uniform_to_last_symbol(self):
        assert sim_seam.thresholds(self.P)[0] == self.B
        for u, symbol in ((2**self.B - 1, 2), (0, 0)):
            words = sim_seam.iid_words(self.P, 130, sim_seam.ConstantRng(u, self.B), (2, 3))
            assert np.all(words == symbol), u

    def test_channel_maps_top_uniform_to_last_symbol(self):
        # beside a row of 0.3, which no 53 bits hold, the kernel takes b = 53
        n = 130
        kernel = np.array([[self.P, (0.3, 0.6, 0.1)], [(0.3, 0.6, 0.1), self.P]])
        assert sim_seam.thresholds(kernel)[0] == 53
        words = _rng(2).integers(0, 2, size=(2, 4, n)).astype(np.uint8)
        for u, symbol in ((2**53 - 1, 2), (0, 0)):
            y = sim_seam.received(kernel, words[0], words[1], sim_seam.ConstantRng(u, 53))
            assert np.all(y == symbol), u


class TestByteSampler:
    """Laws of at most 8 bits: U read off every byte value 0..255 gives the exact law,
    in the codeword sampler and in a channel row."""

    @pytest.mark.parametrize("p", [(1 / 2, 1 / 2), (1 / 4, 3 / 4), (1 / 8, 1 / 8, 3 / 4)])
    def test_every_byte_value_gives_the_exact_law(self, p):
        b = sim_seam.thresholds(p)[0]
        every_byte = partial(sim_seam.PositionRng, np.arange(256) % 2**b, b)  # U = i mod 2^b
        want = [256 * q for q in p]
        words = sim_seam.iid_words(p, 256, every_byte())
        assert np.bincount(words, minlength=len(p)).tolist() == want
        for a1, a2 in np.ndindex(2, 2):
            x1, x2 = np.full(256, a1, dtype=np.uint8), np.full(256, a2, dtype=np.uint8)
            y = sim_seam.received(np.tile(p, (2, 2, 1)), x1, x2, every_byte())
            assert np.bincount(y, minlength=len(p)).tolist() == want, (a1, a2)


class TestPlaneSamplers:
    """Codeword samplers write bit planes; their laws are exact."""

    P3 = (1 / 8, 3 / 8, 1 / 2)  # b = 3

    @pytest.mark.parametrize(
        "p", [(1 / 2, 1 / 2), (1 / 4, 3 / 4), P3, (1 / 8, 1 / 8, 3 / 4), (0, 1 / 2, 1 / 2),
              (1 / 4, 3 / 4, 0), (1, 0), (5 / 8, 3 / 8)],
    )
    def test_every_value_of_u_gives_the_exact_law(self, p):
        b = sim_seam.thresholds(p)[0]
        words = sim_seam.iid_words(p, 2**b, sim_seam.PositionRng(np.arange(2**b), b))
        assert np.bincount(words, minlength=len(p)).tolist() == [2**b * q for q in p]

    def test_dyadic_bits_is_the_smallest(self):
        bits = [sim_seam.thresholds(p)[0] for p in
                [(1,), (1, 0), (1 / 2, 1 / 2), (1 / 4, 3 / 4), self.P3, (3 / 256, 253 / 256),
                 (1 / 512, 511 / 512), (2**-52, 1 - 2**-52)]]
        assert bits == [0, 0, 1, 2, 3, 8, 9, 52]
        # sums exact in no b <= 53 bits take 53
        assert sim_seam.thresholds([0.3, 0.7])[0] == 53
        assert sim_seam.thresholds([2**-60, 1 - 2**-60])[0] == 53

    @pytest.mark.parametrize(
        "p", [(0.3, 0.7), (0.4, 0.6), (1 / 3, 1 / 3, 1 / 3), (2**-60, 1 - 2**-60), (0.89, 0.11),
              (0.11, 0.89), np.random.default_rng(8).dirichlet(np.ones(3), size=(2, 2))],
        ids=["0.3-0.7", "0.4-0.6", "1/3", "2^-60", "0.89-0.11", "0.11-0.89", "dirichlet2x2x3"],
    )
    def test_53_bit_thresholds_bracket_their_sums(self, p):
        # t is the least U with U * 2^-53 >= c: the 53-bit float uniform's law
        cdf = np.cumsum(p, axis=-1)
        b, t = sim_seam.thresholds(p)
        assert b == 53 and t.shape == cdf[..., :-1].shape
        for c, t in zip(cdf[..., :-1].ravel(), t.ravel().tolist()):
            assert Fraction(t - 1, 2**53) < Fraction(c) <= Fraction(t, 2**53)

    def test_three_symbol_dyadic_law(self):
        # the seam checks that the planes are one-hot, clear past n and the words' own
        n, lead = 130, (40, 25)
        words = sim_seam.iid_words(self.P3, n, _rng(4), lead)
        assert words.shape == (*lead, n) and words.dtype == np.uint8
        total = words.size
        for a, q in enumerate(self.P3):
            count = int((words == a).sum())
            assert abs(count - total * q) <= 4 * math.sqrt(total * q * (1 - q)), a

    def test_dyadic_draw_reads_b_raw_planes(self):
        # b raw words per plane word: W = 2 plane words for each of 15 words
        for p, b in ((self.P3, 3), ((0.3, 0.7), 53), ((1, 0), 0)):
            got, want = _rng(3), _rng(3)
            sim_seam.iid_words(p, 70, got, (5, 3))
            want.bit_generator.random_raw(b * 2 * 15)
            assert got.bit_generator.state == want.bit_generator.state, p

    @pytest.mark.parametrize("law", ["0.3-0.7", "1/3"])
    def test_other_laws_keep_the_symbol_draw(self, law):
        # a law no 53 bits hold reads the 53-bit float uniform u = U * 2^-53 of each
        # position's raw planes, a symbol counting the cumulative sums u reaches
        p = (0.3, 0.7) if law == "0.3-0.7" else (1 / 3, 1 / 3, 1 / 3)
        n, lead = 70, (4, 6)
        got, want = _rng(5), _rng(5)
        u = sim_seam.uniforms(want, 53, n, lead)
        words = (u[..., None] * 2.0**-53 >= np.cumsum(p)[:-1]).sum(axis=-1)
        assert np.array_equal(sim_seam.iid_words(p, n, got, lead), words)
        assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("p", [(0.4, 0.6), (0.7, 0.2, 0.1)], ids=["0.4-0.6", "0.7-0.2-0.1"])
    def test_non_dyadic_law_frequencies(self, p):
        n, lead = 130, (60, 5)
        words = sim_seam.iid_words(p, n, _rng(9), lead)
        total = words.size
        for a, q in enumerate(p):
            count = int((words == a).sum())
            assert abs(count - total * q) <= 4 * math.sqrt(total * q * (1 - q)), a

    @pytest.mark.parametrize("n", [4, 40, 64, 130])
    def test_every_type_word_has_the_target_type(self, n):
        # user 1 has three symbols, user 2 two
        c = n // 4
        dist = JointDist(np.array([[c, c, 0], [0, 0, n - 2 * c]]).T / n)
        for user, target in ((1, dist.p1 * n), (2, dist.p2 * n)):
            words = sim_seam.sampled_words(dist, n, "type", _rng(n), (30, 7), user)
            for a, c in enumerate(np.rint(target)):
                assert np.all((words == a).sum(axis=-1) == c), (a, c)

    def test_type_arrangements_are_uniform(self):
        from scipy.stats import chi2  # the reference; the package itself does not load it

        words = sim_seam.sampled_words(HALF_TYPE, 4, "type", _rng(6), (12_000,))
        arrangements, seen = np.unique(words, axis=0, return_counts=True)
        assert len(arrangements) == 6 and np.all(arrangements.sum(axis=1) == 2)
        statistic = float((((seen - 2000) ** 2) / 2000).sum())
        assert statistic < chi2.ppf(0.999, 5), seen

    @pytest.mark.parametrize("n", [50, 130])
    def test_symbols_inverts_planes(self, n):
        words = _rng(n).integers(0, 5, size=(3, 4, n)).astype(np.uint8)
        assert np.array_equal(sim_seam.round_trip(words, 5), words)


class TestChannel:
    """The channel draws each cell's row from bit planes; a cell's law is exact."""

    # rows of b = 1, 2, 3 bits and a 0/1 row: the kernel takes b = 3
    KERNEL = np.array([[[1 / 2, 1 / 4, 1 / 4], [1 / 8, 3 / 8, 1 / 2]],
                       [[0, 1, 0], [3 / 4, 0, 1 / 4]]])

    def test_every_value_of_u_gives_each_cells_law(self):
        assert sim_seam.thresholds(self.KERNEL)[0] == 3
        for a1, a2 in np.ndindex(2, 2):
            x1, x2 = np.full(8, a1, dtype=np.uint8), np.full(8, a2, dtype=np.uint8)
            y = sim_seam.received(self.KERNEL, x1, x2, sim_seam.PositionRng(np.arange(8), 3))
            assert y.shape == (8,)
            assert np.bincount(y, minlength=3).tolist() == (8 * self.KERNEL[a1, a2]).tolist(), (a1, a2)

    def test_outputs_are_one_hot_planes_up_to_n(self):
        # the seam checks that the planes are one-hot, clear past n and the words' own
        n, lead = 70, (6, 4)
        x1, x2 = (sim_seam.iid_words((0.5, 0.5), n, _rng(seed), lead) for seed in (1, 2))
        y = sim_seam.received(self.KERNEL, x1, x2, _rng(3))
        assert y.shape == (*lead, n) and y.dtype == np.uint8 and y.max() <= 2

    def test_a_deterministic_kernel_draws_nothing(self):
        n, lead = 130, (5, 3)
        x1, x2 = (sim_seam.iid_words((0.5, 0.5), n, _rng(seed), lead) for seed in (1, 2))
        rng = _rng(4)
        y = sim_seam.received(adder2().kernel, x1, x2, rng)
        assert rng.bit_generator.state == _rng(4).bit_generator.state
        assert np.array_equal(y, x1 + x2)

    def test_reads_b_raw_words_per_plane_word(self):
        n, lead = 70, (5,)  # W = 2
        x = np.ones((*lead, n), dtype=np.uint8)
        for kernel, b in ((xor_channel(0.11).kernel, 53), (self.KERNEL, 3)):
            got, want = _rng(3), _rng(3)
            sim_seam.received(kernel, x, x, got)
            want.bit_generator.random_raw(b * 2 * 5)
            assert got.bit_generator.state == want.bit_generator.state, b

    @pytest.mark.parametrize("kernel", ["xor0.11", "dirichlet2x2x3"])
    def test_cell_frequencies(self, kernel):
        if kernel == "xor0.11":
            kernel = xor_channel(0.11).kernel
        else:
            kernel = _rng(12).dirichlet(np.ones(3), size=(2, 2))
        n, lead = 130, (100,)
        x1, x2 = (sim_seam.iid_words((0.5, 0.5), n, _rng(seed), lead) for seed in (5, 6))
        y = sim_seam.received(kernel, x1, x2, _rng(10))
        for cell in np.ndindex(2, 2):
            received = y[(x1 == cell[0]) & (x2 == cell[1])]
            for symbol, q in enumerate(kernel[cell]):
                count, total = int((received == symbol).sum()), received.size
                assert abs(count - total * q) <= 4 * math.sqrt(total * q * (1 - q)), (cell, symbol)


def _rng(seed):
    return np.random.Generator(np.random.PCG64DXSM(seed))


class TestClopperPearson:
    @pytest.mark.parametrize("alpha", [0.05, 0.01], ids=["0.95", "0.99"])  # the confidences
    def test_equals_the_beta_quantiles(self, alpha):
        from scipy.stats import beta  # the reference; the package itself does not load it
        rng = np.random.default_rng(5)
        for total in (1, 2, 3, 10, 1000, 10**5, 10**7, 10**9):
            counts = {0, 1, total // 2, total - 1, total, *rng.integers(0, total + 1, 20).tolist()}
            for count in sorted(counts):
                low = 0.0 if count == 0 else float(beta.ppf(alpha / 2, count, total - count + 1))
                high = 1.0 if count == total else float(
                    beta.ppf(1 - alpha / 2, count + 1, total - count)
                )
                assert code_sim._clopper_pearson(count, total, alpha) == (low, high)

    def test_report_interval_is_the_95_percent_one(self):
        # the default confidence of the report's interval, at its own counts
        from scipy.stats import beta
        cfg = sim_config_from_dict({
            "channel": "adder2", "dist": {"p1": [0.5, 0.5], "p2": [0.5, 0.5]},
            "n": 20, "m1_count": 2, "m2_count": 2, "k": 2,
            "mode": "iid", "trials": 2000, "seed": 5,
            "thresholds": {"c12": 28.5, "c1": 11.0, "c2": 11.0},
        })
        rep = estimate_error(cfg)
        e, t = rep.errors, rep.trials
        assert 0 < e < t
        want = (float(beta.ppf(0.025, e, t - e + 1)), float(beta.ppf(0.975, e + 1, t - e)))
        assert rep.ci95 == want

    def test_import_loads_no_scipy_stats(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        code = "import sys, cfmac, cfmac.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestStreams:
    FAMILIES = (
        code_sim._ENSEMBLE, code_sim._BOUND, code_sim._CODEBOOK,
        code_sim._FACILITATOR, code_sim._FIXED_CODE,
    )

    def test_families_seeds_and_blocks_get_disjoint_keys(self):
        firsts = set()
        for seed in (0, 1, 2, 2**64 - 1):
            for family in self.FAMILIES:
                for block in range(4):
                    rng = code_sim._stream(seed, family, block)
                    firsts.add(tuple(rng.bit_generator.random_raw(2).tolist()))
        assert len(firsts) == 4 * len(self.FAMILIES) * 4

    def test_a_seed_of_two_words_does_not_alias_a_family_and_block(self):
        # seeded with SeedSequence([seed, family, block]), the one-word seed 7's
        # (ensemble, block 2) and the two-word seed 2**32 + 7's (bound, block 0)
        # would both hash the words [7, 1, 2, 0]
        a = code_sim._stream(7, code_sim._ENSEMBLE, 2).bit_generator.random_raw(2)
        b = code_sim._stream(2**32 + 7, code_sim._BOUND, 0).bit_generator.random_raw(2)
        assert not np.array_equal(a, b)

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

    def test_fractional_seeds_are_rejected(self):
        # a truncated seed would silently draw another seed's stream
        with pytest.raises(ValueError, match="expected an integer, got 1.5"):
            draw_codebooks(adder2(), UNIFORM, 4, 2, 2, 2, "iid", seed=1.5)
        cfg = SimConfig(mac=adder2(), dist=UNIFORM, n=4, m1_count=2, m2_count=2, k=2)
        with pytest.raises(ValueError, match="expected an integer, got 2.7"):
            fbl_bound(cfg, 1000, seed=2.7)
        with pytest.raises(ValueError, match="expected an integer, got True"):
            facilitate(draw_codebooks(adder2(), UNIFORM, 4, 2, 2, 2), adder2(), UNIFORM, seed=True)
        assert fbl_bound(cfg, 1000, seed=2.0) == fbl_bound(cfg, 1000, seed=2)
        assert type(draw_codebooks(adder2(), UNIFORM, 4, 2, 2, 2, seed=2.0).seed) is int

    def test_stream_version(self):
        assert code_sim.STREAM_VERSION == 9


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


def _summed_metrics(dec, z):
    """Weighted counts (..., columns) -> the (d12, d1, d2) sums (..., 3), infinite terms included."""
    metrics = z[..., :3].copy()
    with np.errstate(invalid="ignore"):  # -inf + inf = nan, as in a sum
        for col, (j, v) in enumerate(dec.infs, start=3):
            metrics[..., j] += np.where(z[..., col] > 0, v, 0.0)
    return metrics


# threshold values around the finite sums drawn below, so some sums meet them exactly
_LEVELS = [-np.inf, -1.0, 0.0, 0.5, np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.booleans(), min_size=6, max_size=6),
    st.lists(st.sampled_from(_LEVELS), min_size=3, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_passes_decides_as_the_summed_metrics(present, c, seed):
    # present[i]: an indicator column for (metric i % 3, -inf if i < 3 else +inf)
    infs = tuple((i % 3, -np.inf if i < 3 else np.inf) for i in range(6) if present[i])
    dec = code_sim._Decoder(np.empty((0, 3 + len(infs))), infs, np.array(c))
    rng = np.random.default_rng(seed)
    finite = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0], size=(40, 3))
    counts = rng.integers(0, 3, size=(40, len(infs))).astype(np.float64)
    z = np.concatenate([finite, counts], axis=1).reshape(8, 5, -1)
    with np.errstate(invalid="ignore"):  # nan thresholds
        want = (_summed_metrics(dec, z) >= dec.c).all(axis=-1)
    assert np.array_equal(dec.passes(z), want)


class TestCountKernel:
    """The joint-count kernel against the gather-based reference."""

    B, M1, M2, K = 6, 3, 2, 4

    def draw(self, mac, dist, n, mode, seed, shape=(M1, M2, K)):
        rng = np.random.default_rng(seed)
        m1, m2, k = shape
        if mode == "iid":
            f1 = rng.choice(mac.x1_size, size=(self.B, m1, k, n), p=dist.p1)
            f2 = rng.choice(mac.x2_size, size=(self.B, m2, k, n), p=dist.p2)
        else:
            counts = np.rint(dist.p12 * n).astype(int)
            base1 = np.repeat(np.arange(mac.x1_size), counts.sum(axis=1))
            base2 = np.repeat(np.arange(mac.x2_size), counts.sum(axis=0))
            f1 = rng.permuted(np.broadcast_to(base1, (self.B, m1, k, n)), axis=-1)
            f2 = rng.permuted(np.broadcast_to(base2, (self.B, m2, k, n)), axis=-1)
        y = rng.integers(0, mac.y_size, size=(self.B, n))
        return f1.astype(np.uint8), f2.astype(np.uint8), y.astype(np.uint8)

    def kernel_parts(self, mac, f1, f2, y, fac, rng=None):
        """The ensemble's e, unmatched and decode counts of y; its pair counts are the reference's."""
        sizes = mac.x1_size, mac.y_size, mac.x2_size
        counts, e, unmatched, z = sim_seam.ensemble_counts(f1, f2, y, *sizes, fac, rng)
        want = gather_reference.pair_counts(f1, f2, mac.x1_size, mac.x2_size)
        assert np.array_equal(np.moveaxis(counts, 0, -1), want)
        return e, unmatched, z

    def check_decode(self, mac, dist, n, mode, f1, f2, y, e, z):
        th = default_thresholds(mac, dist, n, self.M1, self.M2, self.K, mode)
        dec = code_sim._Decoder.build(mac, dist, th)
        got = _summed_metrics(dec, z @ dec.weights)
        x1, x2 = gather_reference.selected_words(f1, f2, e)
        tables = gather_reference.decode_tables(mac, dist, th.units)
        want = np.stack(gather_reference.decode_metrics(tables, x1, x2, y), axis=-1)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.allclose(got[finite], want[finite], rtol=0.0, atol=1e-9)
        # the same counts taken directly from the facilitated words
        direct = gather_reference.decode_counts(x1, x2, y, mac.x1_size, mac.y_size, mac.x2_size)
        assert np.array_equal(direct, z)
        return np.isneginf(want).any()

    @pytest.mark.parametrize("case", sorted(_IID_CASES))
    def test_iid_matches_gather_reference(self, case):
        mac, dist, n = _IID_CASES[case]
        fac = sim_seam.facilitator(mac, dist, n, "iid")
        i_bar = info_density_tables(mac, dist, units="nats").i_bar
        saw_neg_inf = False
        for seed in range(5):
            f1, f2, y = self.draw(mac, dist, n, "iid", seed)
            e, unmatched, z = self.kernel_parts(mac, f1, f2, y, fac)
            assert unmatched is None
            assert np.array_equal(e, gather_reference.score_argmax(i_bar, f1, f2))
            saw_neg_inf |= self.check_decode(mac, dist, n, "iid", f1, f2, y, e, z)
        assert saw_neg_inf == (case != "xor0.11")  # xor:0.11 has no kernel zeros

    @pytest.mark.parametrize("case", sorted(_TYPE_CASES))
    def test_type_mode_matches_gather_reference(self, case):
        mac, dist, n = _TYPE_CASES[case]
        fac = sim_seam.facilitator(mac, dist, n, "type")
        target = np.rint(dist.p12 * n).astype(int)
        for seed in range(5):
            f1, f2, y = self.draw(mac, dist, n, "type", seed)
            e, unmatched, z = self.kernel_parts(mac, f1, f2, y, fac, np.random.default_rng(seed))
            matched = gather_reference.matches_joint_type(f1, f2, target)
            assert np.array_equal(unmatched, ~matched.any(axis=-1))
            chosen = np.take_along_axis(matched, e[..., None], axis=-1)[..., 0]
            assert np.array_equal(chosen, ~unmatched)
            self.check_decode(mac, dist, n, "type", f1, f2, y, e, z)
            # a fixed code's type check: each trial's codebooks under its choice e
            th = default_thresholds(mac, dist, n, self.M1, self.M2, self.K, "type")
            for b in range(self.B):
                cb = code_sim.Codebooks(f1[b], f2[b], "type", seed)
                table = code_sim.FacilitatorTable(e[b], "type")
                code = code_sim._fixed_code(cb, table, mac, dist, th)
                assert np.array_equal(code.in_type, chosen[b])

    # (M1, M2, K) from one message pair and K = 1 up to M1 = M2 = 16
    @pytest.mark.parametrize(
        "shape", [(3, 2, 4), (5, 3, 2), (1, 1, 1), (4, 4, 1), (4, 4, 2), (16, 16, 4)],
        ids=lambda shape: "m{}-m{}-k{}".format(*shape),
    )
    @pytest.mark.parametrize("mode, case", [(m, c) for m in ("iid", "type") for c in sorted(_IID_CASES)])
    def test_direct_count_equals_decode_counts(self, mode, case, shape):
        mac, dist, n = (_IID_CASES if mode == "iid" else _TYPE_CASES)[case]
        m1, m2, _ = shape
        fac = sim_seam.facilitator(mac, dist, n, mode)
        sizes = (mac.x1_size, mac.y_size, mac.x2_size)
        for seed in range(3):
            f1, f2, y = self.draw(mac, dist, n, mode, seed, shape)
            e, _, got = self.kernel_parts(mac, f1, f2, y, fac, np.random.default_rng(seed))
            x1, x2 = gather_reference.selected_words(f1, f2, e)
            want = gather_reference.decode_counts(x1, x2, y, *sizes)
            assert got.shape == want.shape == (self.B, m1, m2, np.prod(sizes))
            assert np.array_equal(got, want)

    def test_xor_scores_all_tie_so_first_codeword_wins(self):
        # xor:0.11 under uniform inputs has four bitwise-equal i_bar entries
        mac, dist, n = _IID_CASES["xor0.11"]
        f1, f2, y = self.draw(mac, dist, n, "iid", 0)
        e, _, _ = self.kernel_parts(mac, f1, f2, y, sim_seam.facilitator(mac, dist, n, "iid"))
        assert np.all(e == 0)

    def test_pair_counts_reject_words_of_unequal_rank(self):
        # words (1, 4) against (2, 1, 4) would broadcast their lead shapes into the cells
        w1, w2 = np.zeros((1, 4), dtype=np.uint8), np.zeros((2, 1, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match=r"shapes \(1, 1\) and \(1, 2, 1\) differ in rank"):
            sim_seam.pair_counts(w1, w2, 2, 2)
        assert sim_seam.pair_counts(w1[None], w2, 2, 2).shape == (4, 2, 1)

    def test_triple_counts_reject_words_of_unequal_rank(self):
        w, y = np.zeros((2, 4), dtype=np.uint8), np.zeros(4, dtype=np.uint8)
        with pytest.raises(
            ValueError, match=r"shapes \(1, 1, 2\), \(1, 1, 2\) and \(1, 2\) differ in rank"
        ):
            sim_seam.triple_counts(w, w, y, 2, 3, 2)
        assert sim_seam.triple_counts(w, w, y[None], 2, 3, 2).shape == (12, 2)


def _words_lacking_symbols(rng, shape, size):
    """uint8 words (..., n) in [0, size), each over a run of ``width`` <= size
    consecutive symbols (mod size), so many words lack a symbol or are constant."""
    width = rng.integers(1, size + 1, size=shape[:-1] + (1,))
    shift = rng.integers(0, size, size=shape[:-1] + (1,))
    return ((rng.integers(0, 2**16, size=shape) % width + shift) % size).astype(np.uint8)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 4]), st.sampled_from([2, 3, 4]), st.integers(1, 5),
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.sampled_from([1, 63, 64, 65, 129]), st.integers(0, 2**32 - 1),
)
def test_plane_counts_equal_the_gather_reference(a1, a2, ny, m1, m2, k, n, seed):
    rng = np.random.default_rng(seed)
    b = 2
    f1 = _words_lacking_symbols(rng, (b, k, m1, n), a1)  # drawn (B, K, M, n)
    f2 = _words_lacking_symbols(rng, (b, k, m2, n), a2)
    y = _words_lacking_symbols(rng, (b, n), ny)
    g1, g2 = f1.transpose(0, 2, 1, 3), f2.transpose(0, 2, 1, 3)  # reference layout (B, M, K, n)
    want = gather_reference.pair_counts(g1, g2, a1, a2)
    # the codebooks' (M, K, n) layout, as ``facilitate`` passes it
    counts = sim_seam.pair_counts(g1[:, :, None], g2[:, None], a1, a2)
    assert np.array_equal(np.moveaxis(counts, 0, -1), want)
    # the ensemble's counts, and its decode counts at any choice of k, not only the facilitator's
    e = rng.integers(0, k, size=(b, m1, m2))
    counts, _, _, got = sim_seam.ensemble_counts(g1, g2, y, a1, ny, a2, e)
    assert np.array_equal(np.moveaxis(counts, 0, -1), want)
    x1, x2 = gather_reference.selected_words(g1, g2, e)
    assert np.array_equal(got, gather_reference.decode_counts(x1, x2, y, a1, ny, a2))
    # a fixed code's layout: every received word against all P = B*M1*M2 word pairs
    got = sim_seam.triple_counts(x1.reshape(1, -1, n), x2.reshape(1, -1, n), y[:, None], a1, ny, a2)
    w1, w2 = x1.reshape(1, 1, -1, n), x2.reshape(1, 1, -1, n)  # one (M1, M2) = (1, P) code
    want = gather_reference.decode_counts(w1, w2, y, a1, ny, a2)[:, 0]  # (B, P, A1*Y*A2)
    assert np.array_equal(np.moveaxis(got, 0, -1), want)


def _traced(call, *args, **kwargs):
    """call(*args, **kwargs) and tracemalloc's peak over it, in bytes."""
    tracemalloc.start()
    try:
        return call(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_bounded_at_m64_n1000():
    # The former (B, M1, M2, K, n) float64 score gather alone would take
    # 64 * 64 * 4 * 1000 * 8 B = 131 MB per trial.  The kernel keeps a block's
    # working set within the module's byte budget (64 MB) whatever
    # M1 * M2 * K * n is; this case peaks near 11 MB.
    bound_mb = code_sim._BLOCK_BYTES / 2**20
    cfg = SimConfig(
        mac=adder2(), dist=UNIFORM, n=1000, m1_count=64, m2_count=64, k=4,
        mode="iid", trials=6, seed=3,
    )
    rep, peak = _traced(estimate_error, cfg)
    assert rep.trials == 6 and sum(rep.decomposition.values()) == rep.errors
    assert peak / 2**20 < bound_mb, peak / 2**20


def test_memory_stays_bounded_where_facilitated_words_are_counted_directly():
    # M1 = M2 = 7, K = 4 at n = 1000: 40 trials fill one block and start a second
    bound_mb = code_sim._BLOCK_BYTES / 2**20
    cfg = SimConfig(
        mac=adder2(), dist=UNIFORM, n=1000, m1_count=7, m2_count=7, k=4,
        mode="iid", trials=40, seed=3,
    )
    assert code_sim._BLOCK_BYTES // code_sim._trial_bytes(cfg.mac, 1000, 7, 7, 4) < cfg.trials
    rep, peak = _traced(estimate_error, cfg)
    assert rep.trials == 40 and sum(rep.decomposition.values()) == rep.errors
    assert peak / 2**20 < bound_mb, peak / 2**20


def _fixed_code_peak_mb(m, trials):
    """tracemalloc's peak, in MB, of estimate_error_fixed_code on adder2 at n = 1000."""
    cfg = SimConfig(
        mac=adder2(), dist=UNIFORM, n=1000, m1_count=m, m2_count=m, k=4,
        mode="iid", trials=trials, seed=3,
    )
    cb = draw_codebooks(cfg.mac, cfg.dist, cfg.n, m, m, 4, "iid", seed=3)
    table = facilitate(cb, cfg.mac, cfg.dist, "iid")
    rep, peak = _traced(estimate_error_fixed_code, cb, table, cfg)
    assert rep.trials == trials and sum(rep.decomposition.values()) == rep.errors
    return peak / 2**20


def test_fixed_code_memory_stays_bounded_at_m64_n1000():
    peak_mb = _fixed_code_peak_mb(64, 64)
    assert peak_mb < code_sim._BLOCK_BYTES / 2**20, peak_mb


def test_fixed_code_memory_stays_bounded_over_a_full_block():
    # M1 = M2 = 20: 1133 trials fill one block; per-pair decode tables of all
    # 400 pairs would take 58 MB beside it
    peak_mb = _fixed_code_peak_mb(20, 1133)
    assert peak_mb < code_sim._BLOCK_BYTES / 2**20, peak_mb


@pytest.mark.parametrize("mode, dist", [("iid", UNIFORM), ("type", HALF_TYPE)])
def test_fixed_code_trials_in_one_trial_chunks_give_the_same_report(monkeypatch, mode, dist):
    # both error estimates, the ensemble's over more than one decode chunk
    mac = _noisy_adder()
    cfg = SimConfig(mac=mac, dist=dist, n=16, m1_count=4, m2_count=3, k=4, mode=mode,
                    thresholds=TestThresholdDecodeMemo.TH, trials=3000, seed=2)
    cb = draw_codebooks(mac, dist, 16, 4, 3, 4, mode, seed=2)
    table = facilitate(cb, mac, dist, mode, seed=2)
    estimates = [partial(estimate_error_fixed_code, cb, table), estimate_error]
    whole = [estimate(cfg) for estimate in estimates]
    assert all(0 < rep.errors < rep.trials for rep in whole)
    decide = code_sim._Decoder.decide
    calls = []

    def one_trial_slices(dec, d):
        trials = d.shape[3]  # (A1, Y, A2, trials, M1, M2)
        calls.append(trials)
        return np.concatenate([decide(dec, d[:, :, :, i:i + 1]) for i in range(trials)])

    monkeypatch.setattr(code_sim._Decoder, "decide", one_trial_slices)
    for estimate, want in zip(estimates, whole):
        calls.clear()
        assert estimate(cfg) == want
        assert len(calls) > 1 and sum(calls) == cfg.trials


def _noisy_adder():
    """y = x1 + x2 with probability 0.85, else x1 + x2 + 1 mod 3; zeros give -inf densities."""
    kernel = np.zeros((2, 2, 3))
    for a1 in range(2):
        for a2 in range(2):
            kernel[a1, a2, a1 + a2] = 0.85
            kernel[a1, a2, (a1 + a2 + 1) % 3] = 0.15
    return Mac(kernel)


def _bound_bytes(cfg):
    """The working set ``_bound_terms`` charges a bound sample of ``cfg``."""
    fac = sim_seam.facilitator(cfg.mac, cfg.dist, cfg.n, cfg.mode)
    return code_sim._bound_sample_bytes(cfg.mac, cfg.k, len(code_sim._score_groups(fac.i_bar)))


class TestStreamGolden:
    """Exact results of stream version 9 for fixed (config, seed).

    Anything that moves the random streams (the generator or its keys, draw
    order, the samplers, or the trials per block set by ``_trial_bytes`` and
    ``_BLOCK_BYTES``) changes these figures.  Such a change must bump
    ``STREAM_VERSION`` and record the new figures here under the new version;
    ``PYTHONPATH=src python tests/stream_golden.py`` prints them.
    """

    VERSION = 9
    # name: (config, trials per (ensemble, bound) block, errors,
    #        (threshold_miss, impostor_pass, ambiguity, type_miss),
    #        (bound samples, threshold fails))
    CASES = {
        "xor-iid-blocks": (
            dict(mac=xor_channel(0.11), dist=UNIFORM, n=60, m1_count=16, m2_count=16, k=4,
                 trials=600, seed=11),
            (197, 174762), 9, (8, 0, 1, 0), (200_000, 2472),
        ),
        "noisy-adder-iid": (
            dict(mac=_noisy_adder(), dist=ProductDist(np.array([0.6, 0.4]), UNIFORM.p2), n=16,
                 m1_count=3, m2_count=2, k=3, trials=3000, seed=5),
            (5801, 92182), 89, (70, 0, 19, 0), (200_000, 4390),
        ),
        # dyadic input laws of b = 2 and b = 3 bits: bit-sliced threshold compares
        "noisy-adder-iid-dyadic": (
            dict(mac=_noisy_adder(), dist=ProductDist(np.array([0.25, 0.75]),
                                                      np.array([0.625, 0.375])),
                 n=24, m1_count=3, m2_count=2, k=4, trials=2000, seed=7),
            (3221, 83886), 18, (16, 0, 2, 0), (200_000, 1496),
        ),
        "noisy-adder-type": (
            dict(mac=_noisy_adder(), dist=HALF_TYPE, n=40, m1_count=4, m2_count=4, k=16,
                 mode="type", trials=1000, seed=1),
            (330, 131072), 518, (513, 0, 0, 5), (200_000, 100093),
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
        per_item = (
            code_sim._trial_bytes(cfg.mac, cfg.n, cfg.m1_count, cfg.m2_count, cfg.k),
            _bound_bytes(cfg),
        )
        assert tuple(code_sim._BLOCK_BYTES // b for b in per_item) == blocks
        # each case runs over more than one block of bound samples
        assert self.CASES[case][4][0] > blocks[1]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_estimate_error(self, case):
        kw, _, errors, tally, _ = self.CASES[case]
        rep = estimate_error(SimConfig(**kw))
        assert rep.errors == errors
        keys = ("threshold_miss", "impostor_pass", "ambiguity", "type_miss")
        assert tuple(rep.decomposition[key] for key in keys) == tally

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bound_samples(self, case):
        kw, _, _, _, (samples, fails) = self.CASES[case]
        cfg = SimConfig(**kw)
        got, _ = code_sim._bound_terms(cfg, cfg.resolved_thresholds(), samples, seed=3)
        assert got == fails

    def test_codebooks_facilitator_and_fixed_code(self):
        kw = self.CASES["noisy-adder-iid"][0]
        cfg = SimConfig(**kw)
        cb = draw_codebooks(cfg.mac, cfg.dist, cfg.n, 3, 2, 3, "iid", seed=9)
        assert "".join(map(str, cb.f1[0, 0])) == "1010000010010001"
        assert "".join(map(str, cb.f2[1, 2])) == "1100010111000010"
        table = facilitate(cb, cfg.mac, cfg.dist, "iid")
        assert table.e.tolist() == [[1, 0], [1, 1], [0, 0]]
        rep = estimate_error_fixed_code(cb, table, replace(cfg, trials=2000))
        assert (rep.errors, rep.decomposition["threshold_miss"]) == (167, 57)
        kw = self.CASES["noisy-adder-type"][0]
        cb = draw_codebooks(kw["mac"], kw["dist"], kw["n"], 2, 2, 8, "type", seed=9)
        table = facilitate(cb, kw["mac"], kw["dist"], "type", seed=4)
        assert table.e.tolist() == [[2, 4], [0, 7]]
        assert table.unmatched.tolist() == [[False, False], [False, False]]


_TYPE_3X2 = JointDist(np.array([[0.2, 0.1], [0.2, 0.2], [0.1, 0.2]]))


def _two_sample_z(count_a, samples_a, count_b, samples_b):
    """z statistic of two binomial counts out of ``samples_a`` and ``samples_b``
    (0 when the pooled rate is 0 or 1)."""
    pooled = (count_a + count_b) / (samples_a + samples_b)
    se = math.sqrt(pooled * (1 - pooled) * (1 / samples_a + 1 / samples_b))
    return 0.0 if se == 0 else (count_a / samples_a - count_b / samples_b) / se


def _exact_bound_rates(cfg, th):
    """Exact (threshold fail, type-mode unmatched) probabilities of one bound
    sample, enumerating every codeword of every pair, each facilitator choice
    and every received word.  In type mode the fail probability is the one
    given that the pair has the target type t12, which every such pair shares."""
    mac, n, k = cfg.mac, cfg.n, cfg.k
    a1, a2, ny = mac.x1_size, mac.x2_size, mac.y_size
    fac = sim_seam.facilitator(mac, cfg.dist, n, cfg.mode)
    dec = code_sim._Decoder.build(mac, cfg.dist, th)

    def words(size, p, margin):
        """Every codeword of one user and its probability."""
        if margin is None:
            w = np.array(list(itertools.product(range(size), repeat=n)))
            return w, np.prod(p[w], axis=-1)
        w = np.array(sorted(set(itertools.permutations(np.repeat(np.arange(size), margin)))))
        return w, np.full(len(w), 1 / len(w))

    margins = (None, None)
    if cfg.mode == "type":
        target = code_sim._type_counts(cfg.dist, n)
        margins = (target.sum(axis=1), target.sum(axis=0))
    w1, pw1 = words(a1, cfg.dist.p1, margins[0])
    w2, pw2 = words(a2, cfg.dist.p2, margins[1])
    x1 = np.repeat(w1, len(w2), axis=0)  # every codeword pair (P, n)
    x2 = np.tile(w2, (len(w1), 1))
    p_pair = np.outer(pw1, pw2).ravel()

    ys = np.array(list(itertools.product(range(ny), repeat=n)))  # (Y^n, n)
    p_y = np.prod(mac.kernel[x1[:, None], x2[:, None], ys[None]], axis=-1)  # (P, Y^n)
    # every received word is a trial b, every codeword pair an m1
    z = gather_reference.decode_counts(x1[None, :, None], x2[None, :, None], ys, a1, ny, a2)
    z = z[:, :, 0].transpose(1, 0, 2)  # (P, Y^n, A1*Y*A2)
    fail = (p_y * ~dec.passes(z.astype(np.float64) @ dec.weights)).sum(axis=1)  # (P,)

    combos = np.array(list(itertools.product(range(len(p_pair)), repeat=k)))  # (C, K)
    p_combo = np.prod(p_pair[combos], axis=1)
    # each combo's K pairs as one codebook of M1 = M2 = 1
    counts = gather_reference.pair_counts(x1[combos][:, None], x2[combos][:, None], a1, a2)
    counts = counts[:, 0, 0]  # (C, K, A1*A2)
    if cfg.mode == "iid":
        e, _ = sim_seam.choose(fac, np.moveaxis(counts, -1, 0)[:, :, None, None])  # cells first
        p_e = np.eye(k)[e[:, 0, 0]]
        return float(p_combo @ (p_e * fail[combos]).sum(axis=1)), 0.0
    # each pair as a trial of its own
    pairs = gather_reference.pair_counts(x1[:, None, None], x2[:, None, None], a1, a2)
    in_type = (pairs == fac.target).all(axis=-1).ravel()  # (P,)
    assert fail[in_type] == pytest.approx(np.full(in_type.sum(), fail[in_type][0]), rel=1e-12)
    none = ~(counts == fac.target).all(axis=-1).any(axis=1)
    return float(fail[in_type][0]), float(p_combo @ none)


class TestBoundSampler:
    """The count-law sampler of the bound's Monte Carlo term against the construction's law."""

    # name: (config, thresholds or None for the defaults); fail and miss rates in [1e-3, 0.5]
    CASES = {
        "xor-iid": (
            dict(mac=xor_channel(0.11), dist=UNIFORM, n=50, m1_count=4, m2_count=4, k=4),
            None,
        ),
        "3x2x4-iid": (
            dict(mac=_kernel_3x2x4(), dist=ProductDist(np.array([0.5, 0.3, 0.2]),
                 np.array([0.6, 0.4])), n=30, m1_count=1, m2_count=1, k=8),
            None,
        ),
        "noisy-adder-type": (
            dict(mac=_noisy_adder(), dist=HALF_TYPE, n=40, m1_count=1, m2_count=1, k=4,
                 mode="type"),
            None,
        ),
        "3x2x4-type": (
            dict(mac=_kernel_3x2x4(), dist=_TYPE_3X2, n=20, m1_count=1, m2_count=1, k=16,
                 mode="type"),
            default_thresholds(_kernel_3x2x4(), _TYPE_3X2, 20, 1, 1, 16, "iid"),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_symbol_sampler(self, case):
        kw, th = self.CASES[case]
        cfg = SimConfig(**kw, thresholds=th)
        th = cfg.resolved_thresholds()
        samples = 60_000
        fails, p_unmatched = code_sim._bound_terms(cfg, th, samples, seed=1)
        want, matched = bound_reference.reference_bound_samples(cfg, th, samples, seed=2)
        assert abs(_two_sample_z(fails, samples, want, matched)) < 4.0, (fails, want, matched)
        # the symbol sampler's misses against the closed form (1 - q)^K
        misses = samples - matched
        se = math.sqrt(p_unmatched * (1 - p_unmatched) / samples)
        assert abs(misses / samples - p_unmatched) <= 4.0 * se, (misses, p_unmatched)
        rates = np.array([fails / samples, want / matched, p_unmatched])
        checked = rates if cfg.mode == "type" else rates[:2]  # iid has no type misses
        assert np.all((checked >= 1e-3) & (checked <= 0.5)), rates

    @pytest.mark.parametrize("case", [
        ("iid", _noisy_adder(), UNIFORM, 3, 2),
        ("iid", _kernel_3x2x4(), ProductDist(np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4])), 3, 2),
        ("type", _noisy_adder(), HALF_TYPE, 4, 2),
        ("type", xor_channel(0.11), HALF_TYPE, 4, 3),
        ("iid", xor_channel(0.11), UNIFORM, 3, 2),
    ], ids=["noisy-adder-iid-n3-k2", "3x2x4-iid-n3-k2", "noisy-adder-type-n4-k2", "xor-type-n4-k3",
            "xor-iid-n3-k2"])
    def test_exact_law_at_tiny_n(self, case):
        mode, mac, dist, n, k = case
        cfg = SimConfig(mac=mac, dist=dist, n=n, m1_count=1, m2_count=1, k=k, mode=mode)
        th = replace(cfg.resolved_thresholds(), c12=0.5 * n, c1=0.25 * n, c2=0.25 * n)
        fail, unmatched = _exact_bound_rates(cfg, th)
        samples = 200_000
        fails, p_unmatched = code_sim._bound_terms(cfg, th, samples, seed=4)
        se = math.sqrt(fail * (1 - fail) / samples)
        assert abs(fails / samples - fail) <= 4.0 * se, (fails, fail)
        assert p_unmatched == pytest.approx(unmatched, rel=1e-12, abs=0.0)
        assert 0.01 < fail < 0.99

    def test_memory_stays_bounded_at_large_n_and_k(self):
        cfg = SimConfig(
            mac=xor_channel(0.11), dist=UNIFORM, n=10**5, m1_count=1, m2_count=1, k=2**10,
        )
        block = code_sim._BLOCK_BYTES // _bound_bytes(cfg)
        _, peak = _traced(fbl_bound, cfg, mc_samples=block + 1)
        assert peak < code_sim._BLOCK_BYTES


def _enumerated_match_law(t1, t2):
    """Joint type (as a tuple of A1*A2 counts) -> its probability for two
    independent uniform words of symbol counts t1 and t2, by enumerating every
    arrangement of the second word against one fixed first word."""
    x1 = np.repeat(np.arange(len(t1)), t1)
    base2 = np.repeat(np.arange(len(t2)), t2)
    words = sorted(set(itertools.permutations(base2)))
    law = {}
    for x2 in words:
        table = tuple(np.bincount(x1 * len(t2) + np.array(x2), minlength=len(t1) * len(t2)))
        law[table] = law.get(table, 0) + 1 / len(words)
    return law


class TestTypeMatchLaw:
    """The closed-form match probability q of type mode and the bound's (1 - q)^K."""

    @pytest.mark.parametrize("t1, t2", [
        ((4, 4), (4, 4)), ((5, 3), (2, 6)), ((3, 3, 2), (4, 4)), ((2, 3, 3), (1, 3, 4)),
        ((1, 2), (2, 1)), ((2, 2, 2), (3, 3)), ((6, 0, 2), (3, 5)), ((8,), (5, 3)),
    ], ids=str)
    def test_q_equals_exhaustive_enumeration(self, t1, t2):
        law = _enumerated_match_law(t1, t2)
        assert sum(law.values()) == pytest.approx(1.0)
        for table, q in law.items():
            t12 = np.array(table).reshape(len(t1), len(t2))
            assert 1.0 - code_sim._unmatched_probability(t12, 1) == pytest.approx(q, rel=1e-12)
            for k in (2, 7, 2**20):
                assert code_sim._unmatched_probability(t12, k) == pytest.approx(
                    (1.0 - q) ** k, rel=1e-9, abs=1e-12
                )

    def test_q_at_n12(self):
        # q of t12 = [[4, 2], [2, 4]] at n = 12, which 400k contingency draws put at 0.24331 (SE 0.00068)
        q = 1.0 - code_sim._unmatched_probability(np.array([[4, 2], [2, 4]]), 1)
        assert round(q, 5) == 0.24351

    def test_k_may_be_any_python_int(self):
        # q = 1 / C(20000, 10000) underflows a float; K = 2^20000 pairs nearly cover the type
        t12 = np.array([[10**4, 0], [0, 10**4]])
        log_q = 2 * math.lgamma(10**4 + 1) - math.lgamma(2 * 10**4 + 1)
        assert code_sim._log_miss_rate(t12) == pytest.approx(log_q, rel=1e-12)
        for k in (2**1100, 2**20_000):
            want = math.exp(-math.exp(math.log(k) + log_q))
            assert code_sim._unmatched_probability(t12, k) == pytest.approx(want, rel=1e-4)
        assert 0.0 < code_sim._unmatched_probability(t12, 2**20_000) < 1e-70
        assert code_sim._unmatched_probability(t12, 2**30_000) == 0.0

    @pytest.mark.parametrize("t12, k", [([[4, 2], [2, 4]], 4), ([[3, 1, 0], [1, 2, 3]], 3)])
    def test_unmatched_probability_equals_counted_misses(self, t12, k):
        # K type-class word pairs per sample, drawn as the construction draws them
        t12 = np.array(t12)
        (a1, a2), n = t12.shape, int(t12.sum())
        dist = JointDist(t12 / n)
        samples = 100_000
        rng = np.random.default_rng(5)
        w1, w2 = (sim_seam.sampled_words(dist, n, "type", rng, (samples, k), user) for user in (1, 2))
        counts = sim_seam.pair_counts(w1, w2, a1, a2)  # (A1*A2, samples, K)
        matched = (counts == t12.reshape(-1, 1, 1)).all(axis=0)
        misses = int((~matched.any(axis=-1)).sum())
        p = code_sim._unmatched_probability(t12, k)
        assert abs(misses / samples - p) <= 4.0 * math.sqrt(p * (1 - p) / samples), (misses, p)

    def test_type_miss_term_is_exact(self):
        cfg = SimConfig(
            mac=_noisy_adder(), dist=HALF_TYPE, n=40, m1_count=2, m2_count=2, k=16, mode="type",
        )
        th = cfg.resolved_thresholds()
        fails, p = code_sim._bound_terms(cfg, th, 1000, seed=cfg.seed)
        assert p == code_sim._unmatched_probability(code_sim._type_counts(HALF_TYPE, 40), 16)
        fail_rate = code_sim._clopper_pearson(fails, 1000, 0.01)[1]
        want = (1.0 - p) * fail_rate + code_sim._union(cfg, th) + p
        assert fbl_bound(cfg, mc_samples=1000) == want

    def test_one_message_pair_bound_is_exact(self):
        # at M1 = M2 = 1 no impostor exists, and the ensemble error is exactly
        # p_u + (1 - p_u) * P(fail | t12): the bound past its union terms is
        # that, plus its Clopper-Pearson slack
        cfg = SimConfig(
            mac=_noisy_adder(), dist=HALF_TYPE, n=40, m1_count=1, m2_count=1, k=4, mode="type",
            trials=100_000, seed=1,
        )
        th = cfg.resolved_thresholds()
        samples = 100_000
        p_hat = estimate_error(cfg).p_hat
        fails = code_sim._bound_terms(cfg, th, samples, seed=cfg.seed)[0]
        p_u = code_sim._unmatched_probability(code_sim._type_counts(HALF_TYPE, 40), 4)
        f = fails / samples
        slack = code_sim._clopper_pearson(fails, samples, 0.01)[1] - f
        sigma = math.sqrt(
            p_hat * (1 - p_hat) / cfg.trials + (1 - p_u) ** 2 * f * (1 - f) / samples
        )
        gap = fbl_bound(cfg, mc_samples=samples) - code_sim._union(cfg, th) - p_hat
        assert 0.1 < p_u < 0.5 and 0.1 < f < 0.9
        assert -4.0 * sigma <= gap <= slack + 4.0 * sigma, (gap, slack, sigma)


class TestPooledScores:
    """iid bound samples draw the facilitator's score-group totals, not K full tables."""

    def test_groups_pool_exactly_equal_values_in_first_cell_order(self):
        groups = code_sim._score_groups(np.array([0.5, 0.2, 0.5, 0.1, 0.2, -0.0, 0.0]))
        assert [g.tolist() for g in groups] == [[0, 2], [1, 4], [3], [5, 6]]
        assert code_sim._score_groups(None) == []

    # version-5 figures (fails, p_unmatched) of _bound_terms(cfg, th, 100_000, seed=3)
    @pytest.mark.parametrize("n, k, figures", [(30, 8, (4947, 0.0)), (50, 2, (784, 0.0))])
    def test_distinct_scores_draw_the_version_5_stream(self, n, k, figures):
        mac, dist, _ = _IID_CASES["3x2x4"]
        cfg = SimConfig(mac=mac, dist=dist, n=n, m1_count=1, m2_count=1, k=k)
        fac = sim_seam.facilitator(cfg.mac, cfg.dist, n, "iid")
        assert len(code_sim._score_groups(fac.i_bar)) == 6  # every cell its own group
        # one group per cell, as in version 5
        assert _bound_bytes(cfg) == code_sim._bound_sample_bytes(cfg.mac, k, 6)
        fails, p_unmatched = code_sim._bound_terms(cfg, cfg.resolved_thresholds(), 100_000, seed=3)
        assert fails == figures[0]
        assert p_unmatched == figures[1] and type(p_unmatched) is float

    def test_one_pair_sends_a_multinomial_table(self):
        # K = 1: the pooled totals, split within the groups, are multinomial(n, p1 x p2);
        # the noisy adder's cells (0, 1) and (1, 0) share an i_bar value but not a probability
        p1, p2, n = np.array([0.6, 0.4]), np.array([0.5, 0.5]), 3
        mac, dist = _noisy_adder(), ProductDist(p1, p2)
        fac = sim_seam.facilitator(mac, dist, n, "iid")
        groups = code_sim._score_groups(fac.i_bar)
        assert [g.tolist() for g in groups] == [[0], [1, 2], [3]]
        samples = 100_000
        sampler = code_sim._pooled_scores(dist, fac, groups, n, 1)
        sent = sampler(np.random.default_rng(9), samples)
        p12 = np.outer(p1, p2).ravel()
        for table in itertools.product(range(n + 1), repeat=4):
            if sum(table) != n:
                continue
            p = math.factorial(n) * math.prod(q**c / math.factorial(c) for q, c in zip(p12, table))
            got = (sent == table).all(axis=-1).mean()
            assert abs(got - p) <= 4.0 * math.sqrt(p * (1 - p) / samples), (table, got, p)

    def test_groups_of_probability_zero_send_zeros(self):
        # inputs that never use symbol 2: the cells (1, 2), (2, 1) and (2, 2) form a
        # score group of probability 0, and (0, 2), (1, 1), (2, 0) one with two zero cells
        kernel = np.full((3, 3, 5), 0.05)
        for a1, a2 in itertools.product(range(3), repeat=2):
            kernel[a1, a2, a1 + a2] = 0.8
        p = np.array([0.5, 0.5, 0.0])
        cfg = SimConfig(mac=Mac(kernel), dist=ProductDist(p, p), n=3, m1_count=1, m2_count=1, k=2)
        fac = sim_seam.facilitator(cfg.mac, cfg.dist, cfg.n, "iid")
        groups = [g.tolist() for g in code_sim._score_groups(fac.i_bar)]
        assert [5, 7, 8] in groups and [2, 4, 6] in groups
        th = replace(cfg.resolved_thresholds(), c12=1.5, c1=0.75, c2=0.75)
        fail, _ = _exact_bound_rates(cfg, th)
        samples = 200_000
        fails, _ = code_sim._bound_terms(cfg, th, samples, seed=4)
        assert abs(fails / samples - fail) <= 4.0 * math.sqrt(fail * (1 - fail) / samples)
        assert 0.01 < fail < 0.99

    def test_group_totals_fill_their_block_budget(self):
        # adder2 under uniform inputs has two score groups, so a sample holds K totals;
        # block + 1 samples run over two blocks, whose peak the per-k charge bounds
        cfg = SimConfig(mac=adder2(), dist=UNIFORM, n=10**5, m1_count=1, m2_count=1, k=2**14)
        block = code_sim._BLOCK_BYTES // _bound_bytes(cfg)
        assert block < 100
        _, peak = _traced(fbl_bound, cfg, mc_samples=block + 1)
        assert code_sim._BLOCK_BYTES / 2 < peak < code_sim._BLOCK_BYTES

    def test_group_totals_past_the_block_budget_are_named(self):
        cfg = SimConfig(mac=adder2(), dist=UNIFORM, n=100, m1_count=1, m2_count=1, k=2**40)
        with pytest.raises(ValueError, match="score groups take .* over the .*block budget"):
            fbl_bound(cfg, mc_samples=10)


@pytest.mark.parametrize("mode, k", [("type", 2**40), ("type", 2**1100), ("iid", 2**40)])
def test_bound_memory_stays_bounded_at_the_papers_k(mode, k):
    # type mode holds nothing per k, nor does iid mode with one score group (xor:0.11)
    kernel = np.random.default_rng(3).dirichlet(np.ones(5), size=(4, 4))
    mac, dist = Mac(kernel), JointDist(np.full((4, 4), 1 / 16))
    if mode == "iid":
        mac, dist = xor_channel(0.11), UNIFORM
    cfg = SimConfig(mac=mac, dist=dist, n=160, m1_count=4, m2_count=4, k=k, mode=mode)
    block = code_sim._BLOCK_BYTES // _bound_bytes(cfg)
    bound, peak = _traced(fbl_bound, cfg, mc_samples=block + 1)
    assert math.isfinite(bound)
    assert peak < code_sim._BLOCK_BYTES
