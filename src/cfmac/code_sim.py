"""Monte Carlo simulation of the facilitated random-coding constructions.

Two constructions are supported: i.i.d. codebooks with a score-argmax
facilitator and threshold decoder, and constant-composition (type-class)
codebooks with a type-matching facilitator and a type-constrained decoder.
``estimate_error`` estimates the ensemble-average error probability (fresh
codebooks every trial); ``fbl_bound`` evaluates the constant-free
finite-blocklength upper bound the constructions are validated against.

Joint-count kernel.  Every per-trial statistic is a linear function of
joint-symbol counts: the facilitator score sum_i i_bar[x1_i, x2_i], the type
match and the type check compare or contract the counts N[a1, a2] of a
codeword pair, and the three decoding metrics contract the counts
D[a1, y, a2] of (codeword pair, received word).  The counts of every
(m1, m2, k) at once come exactly from one batched float32 matmul of one-hot
codewords, (K, M1*A1, n) @ (K, n, M2*A2); the decode counts put the (x1, y)
one-hot on the left.  Table entries that are not finite (-inf at kernel
zeros) are counted by separate indicator columns, so 0 * inf never arises.
With a fixed code the per-pair tables are built once and the metrics of a
batch of received words are one GEMM of their one-hot form (the tables hold
Y * n * M1 * M2 * columns float64 entries and are outside the block budget).
A single received word's (x1, y, x2) symbols are counted directly.

Ties.  The score facilitator picks the smallest k whose score lies within
``_TIE_ULPS_PER_CELL`` * A1 * A2 ulps of n * max|i_bar| of the best score,
more than the rounding error of a score's sum over the A1 * A2 joint cells,
so exactly tied scores give the smallest k whatever the summation order or
the BLAS build.

Randomness.  Trials are processed in blocks, each drawing from its own
counter-keyed Philox stream keyed by (seed, stream family, block index);
the families (ensemble trials, bound samples, codebook draws, facilitator
picks, fixed-code trials) never share a key.  The block size is a pure
function of the configuration's per-trial footprint and the byte budget
``_BLOCK_BYTES``, so results are bit-for-bit reproducible for a given
(config, seed), independent of scheduling, and memory stays bounded.
``STREAM_VERSION`` names the stream layout; it changes whenever a fixed
(config, seed) deliberately yields a different report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.stats import beta as _beta

from .channel import (
    InputDist,
    JointDist,
    Mac,
    ProductDist,
    info_density_tables,
    named_channel,
)
from .errors import DegenerateThresholds, ModeMismatch, NotAnNType, SizeMismatch

STREAM_VERSION = 2

_BLOCK_BYTES = 64 * 2**20  # per-block working-set budget; sets the trials per block
# Facilitator scores within this many ulps of n * max|i_bar|, per joint cell
# (A1 * A2), of the best count as tied.  A score sums one term per cell, so its
# rounding error stays under one such ulp per cell, and a difference of two
# scores under two, whatever the summation order: the factor 16 leaves margin.
_TIE_ULPS_PER_CELL = 16

# Philox key domains, one per stream family: key = seed * 2^64 + domain * 2^56 + block
_ENSEMBLE, _BOUND, _CODEBOOK, _FACILITATOR, _FIXED_CODE = range(1, 6)

IID = "iid"
TYPE = "type"


@dataclass(frozen=True)
class DecoderThresholds:
    c12: float
    c1: float
    c2: float
    type_constraint: np.ndarray | None = None
    units: str = "bits"

    def require_finite(self):
        if not all(map(math.isfinite, (self.c12, self.c1, self.c2))):
            raise DegenerateThresholds(
                f"thresholds must be finite, got ({self.c12}, {self.c1}, {self.c2})"
            )


@dataclass(frozen=True)
class Codebooks:
    f1: np.ndarray  # [m1][k][i] uint8 symbol indices
    f2: np.ndarray  # [m2][k][i] uint8 symbol indices
    mode: str
    seed: int

    @property
    def n(self) -> int:
        return self.f1.shape[2]


@dataclass(frozen=True)
class FacilitatorTable:
    e: np.ndarray  # [m1][m2] zero-based index into [K]
    mode: str
    unmatched: np.ndarray | None = None  # type mode: no k matched the target


@dataclass(frozen=True)
class SimConfig:
    mac: Mac
    dist: InputDist
    n: int
    m1_count: int
    m2_count: int
    k: int
    mode: str = IID
    thresholds: DecoderThresholds | None = None
    trials: int = 10_000
    seed: int = 0
    units: str = "bits"

    def resolved_thresholds(self) -> DecoderThresholds:
        if self.thresholds is not None:
            return self.thresholds
        return default_thresholds(
            self.mac, self.dist, self.n, self.m1_count, self.m2_count, self.k,
            self.mode, self.units,
        )


@dataclass(frozen=True)
class SimReport:
    trials: int
    errors: int
    p_hat: float
    ci95: tuple[float, float]
    decomposition: dict
    seed: int
    fbl_bound: float | None = None

    def to_dict(self) -> dict:
        out = {
            "trials": self.trials,
            "errors": self.errors,
            "p_hat": self.p_hat,
            "ci95": list(self.ci95),
            "decomposition": dict(self.decomposition),
            "seed": self.seed,
        }
        if self.fbl_bound is not None:
            out["fbl_bound"] = self.fbl_bound
        return out


# ---------------------------------------------------------------------------
# defaults and small helpers


def _logb(x: float, units: str) -> float:
    return math.log2(x) if units == "bits" else math.log(x)


def default_thresholds(
    mac: Mac,
    dist: InputDist,
    n: int,
    m1_count: int,
    m2_count: int,
    k: int,
    mode: str = IID,
    units: str = "bits",
) -> DecoderThresholds:
    """Threshold choices from the two constructions' explicit settings."""
    half_log_n = 0.5 * _logb(n, units)
    if mode == IID:
        return DecoderThresholds(
            c12=_logb(m1_count * m2_count * k, units) + half_log_n,
            c1=_logb(m1_count, units) + half_log_n,
            c2=_logb(m2_count, units) + half_log_n,
            units=units,
        )
    if mode == TYPE:
        counting = mac.x1_size * mac.x2_size * _logb(n + 1, units)
        return DecoderThresholds(
            c12=_logb(m1_count * m2_count, units) + half_log_n + counting,
            c1=_logb(m1_count, units) + half_log_n + counting,
            c2=_logb(m2_count, units) + half_log_n + counting,
            type_constraint=np.asarray(dist.joint()),
            units=units,
        )
    raise ModeMismatch(f"unknown mode {mode!r}")


def _type_counts(dist: JointDist, n: int) -> np.ndarray:
    counts = np.asarray(dist.p12) * n
    rounded = np.rint(counts)
    if np.max(np.abs(counts - rounded)) > 1e-9:
        raise NotAnNType(f"joint distribution is not an n-type for n={n}")
    return rounded.astype(np.int64)


def _stream(seed: int, domain: int, block: int) -> np.random.Generator:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return np.random.Generator(
        np.random.Philox(key=(int(seed) << 64) + (domain << 56) + block)
    )


def _blocks(seed: int, domain: int, total: int, trial_bytes: int):
    """(stream, size) per block; blocks hold as many trials as the budget allows."""
    size = max(1, _BLOCK_BYTES // trial_bytes)
    for block, start in enumerate(range(0, total, size)):
        yield _stream(seed, domain, block), min(size, total - start)


def _clopper_pearson(errors: int, trials: int, conf: float = 0.95) -> tuple[float, float]:
    alpha = 1.0 - conf
    low = 0.0 if errors == 0 else float(_beta.ppf(alpha / 2, errors, trials - errors + 1))
    high = 1.0 if errors == trials else float(_beta.ppf(1 - alpha / 2, errors + 1, trials - errors))
    return low, high


# ---------------------------------------------------------------------------
# sampling: symbols are counted against cdf[:-1], so a uniform that rounds
# past the last cumulative sum still yields the last symbol


def _draw_iid(rng, shape, cdf):
    u = rng.random(shape)
    words = np.zeros(shape, dtype=np.uint8)
    for t in cdf[:-1]:
        words += u >= t
    return words


def _draw_type(rng, shape, base):
    # a uniform arrangement of the type's base word: ranks of uniform keys
    # (distinct keys have one sorted order, so the sort algorithm is free)
    return base[np.argsort(rng.random(shape), axis=-1)]


def _require_uint8(mac: Mac) -> None:
    if max(mac.x1_size, mac.x2_size, mac.y_size) > 256:
        raise SizeMismatch("the simulator stores symbols as uint8: alphabets are limited to 256")


def _word_samplers(dist: InputDist, n: int, mode: str):
    """Per user, a sampler (rng, shape) -> uint8 codeword symbols."""
    if mode == IID:
        return [partial(_draw_iid, cdf=np.cumsum(np.asarray(p))) for p in (dist.p1, dist.p2)]
    if mode == TYPE:
        if not isinstance(dist, JointDist):
            raise ModeMismatch("type mode requires a JointDist n-type")
        counts = _type_counts(dist, n)
        return [
            partial(_draw_type, base=np.repeat(np.arange(len(c), dtype=np.uint8), c))
            for c in (counts.sum(axis=1), counts.sum(axis=0))
        ]
    raise ModeMismatch(f"unknown mode {mode!r}")


def _channel(rng, output_cdf, x1, x2):
    """Received words for input words x1, x2 (B, n); output_cdf is cdf[..., :-1]."""
    u = rng.random(x1.shape)
    return (u[..., None] >= output_cdf[x1, x2]).sum(axis=-1, dtype=np.uint8)


# ---------------------------------------------------------------------------
# joint-count kernel; codewords are laid out (B, K, M, n)


def _onehot(symbols, size, dtype=np.float32):
    """(..., n) symbols -> (..., size, n) indicators."""
    return (symbols[..., None, :] == np.arange(size, dtype=np.uint8)[:, None]).astype(dtype)


def _pair_counts(l1, r2):
    """One-hot words (B, K, M1, A1, n) and (B, K, M2, A2, n) -> N (B, M1, M2, K, A1*A2)."""
    b, k, m1, a1, n = l1.shape
    m2, a2 = r2.shape[2:4]
    prod = l1.reshape(b, k, m1 * a1, n) @ r2.reshape(b, k, m2 * a2, n).swapaxes(-1, -2)
    prod = prod.reshape(b, k, m1, a1, m2, a2).transpose(0, 2, 4, 1, 3, 5)
    return prod.reshape(b, m1, m2, k, a1 * a2)


def _decode_counts(l1, r2, y1h, e):
    """Counts D (B, M1, M2, A1*Y*A2) of (x1, y, x2) for codeword k = e[b, m1, m2]."""
    b, k, m1, a1, n = l1.shape
    m2, a2 = r2.shape[2:4]
    ny = y1h.shape[1]
    left = (l1[:, :, :, :, None, :] * y1h[:, None, None, None]).reshape(b, k, m1, a1 * ny, n)
    # one GEMM per (trial, k, m1) keeps each product small enough for BLAS to
    # run it on one thread: threaded small GEMMs stall when a core is busy
    prod = (left @ r2.reshape(b, k, 1, m2 * a2, n).swapaxes(-1, -2)).reshape(
        b, k, m1, a1 * ny, m2, a2
    )
    sel = prod[
        np.arange(b)[:, None, None], e, np.arange(m1)[None, :, None], :,
        np.arange(m2)[None, None, :], :,
    ]  # advanced indices first: (B, M1, M2, A1*Y, A2)
    return sel.reshape(b, m1, m2, a1 * ny * a2)


def _word_counts(x1, x2, y, a1, a2, ny):
    """Counts (..., A1*Y*A2) of (x1, y, x2) in given words x1, x2, y (..., n)."""
    cells = a1 * ny * a2
    code = (x1.astype(np.intp) * ny + y) * a2 + x2
    rows = code.size // code.shape[-1]
    flat = code.reshape(rows, -1) + cells * np.arange(rows)[:, None]
    return np.bincount(flat.ravel(), minlength=rows * cells).reshape(code.shape[:-1] + (cells,))


@dataclass(frozen=True)
class _Facilitator:
    """Score argmax (iid) or type match (type) on pair counts."""

    i_bar: np.ndarray | None  # (A1*A2,) expected density in nats, iid mode
    tol: float
    target: np.ndarray | None  # (A1*A2,) target joint-type counts, type mode

    @classmethod
    def build(cls, mac: Mac, dist: InputDist, n: int, mode: str) -> "_Facilitator":
        if mode == TYPE:
            if not isinstance(dist, JointDist):
                raise ModeMismatch("type mode requires a JointDist n-type")
            return cls(None, 0.0, _type_counts(dist, n).ravel())
        if mode != IID:
            raise ModeMismatch(f"unknown mode {mode!r}")
        i_bar = info_density_tables(mac, dist, units="nats").i_bar
        tol = _TIE_ULPS_PER_CELL * i_bar.size * float(np.spacing(n * np.abs(i_bar).max()))
        return cls(i_bar.ravel(), tol, None)

    def choose(self, counts, u_choice=None):
        """e (B, M1, M2) and, in type mode, where no k matched the target."""
        if self.target is None:
            scores = counts.astype(np.float64) @ self.i_bar
            best = scores.max(axis=-1, keepdims=True)
            return (scores >= best - self.tol).argmax(axis=-1), None
        matched = (counts == self.target).all(axis=-1)
        # uniform pick among matched k; uniform over [K] when none matched
        n_match = matched.sum(axis=-1)
        pool = np.where(n_match > 0, n_match, matched.shape[-1])
        pick = np.minimum(np.floor(u_choice * pool).astype(np.int64), pool - 1)
        order = np.argsort(~matched, axis=-1, kind="stable")  # matched ks first
        return np.take_along_axis(order, pick[..., None], axis=-1)[..., 0], n_match == 0


@dataclass(frozen=True)
class _Decoder:
    """Threshold tests of the three metrics, from weighted joint counts.

    ``weights`` has a row per (a1, y, a2) cell: the finite parts of d12, d1
    and d2, then one indicator column per (metric, infinity) that occurs in
    the tables, listed in ``infs``.
    """

    weights: np.ndarray
    infs: tuple
    c: np.ndarray  # (c12, c1, c2)
    check: np.ndarray | None  # (A1*A2,) joint-type counts the decoder requires
    output_cdf: np.ndarray  # kernel cdf without its last column, for the channel

    @classmethod
    def build(cls, mac: Mac, dist: InputDist, n: int, th: DecoderThresholds) -> "_Decoder":
        _require_uint8(mac)
        t = info_density_tables(mac, dist, units=th.units)
        neg = np.where(mac.kernel > 0, 0.0, -np.inf)  # zero likelihood
        d = np.stack([t.i_joint + neg, t.i_1 + neg, t.i_2 + neg], axis=-1)
        d = d.transpose(0, 2, 1, 3).reshape(-1, 3)  # rows (a1, y, a2)
        indicators = np.concatenate([d == -np.inf, d == np.inf], axis=1)
        present = np.flatnonzero(indicators.any(axis=0))
        check = None
        if th.type_constraint is not None:
            check = _type_counts(JointDist(th.type_constraint), n).ravel()
        return cls(
            np.concatenate([np.where(np.isfinite(d), d, 0.0), indicators[:, present]], axis=1),
            tuple((int(c) % 3, -np.inf if c < 3 else np.inf) for c in present),
            np.array([th.c12, th.c1, th.c2]), check,
            np.cumsum(mac.kernel, axis=-1)[..., :-1],
        )

    def metrics(self, z):
        """Weighted counts (..., columns) -> (d12, d1, d2) sums (..., 3)."""
        metrics = z[..., :3].copy()
        with np.errstate(invalid="ignore"):  # -inf + inf = nan, as in a sum
            for col, (j, v) in enumerate(self.infs, start=3):
                metrics[..., j] += np.where(z[..., col] > 0, v, 0.0)
        return metrics

    def passes(self, z):
        """Weighted counts (..., columns) -> all three metrics pass (...)."""
        return (self.metrics(z) >= self.c).all(axis=-1)

    def in_type(self, counts_at_e):
        """Joint type of the facilitated pair equals the required one (or no check)."""
        if self.check is None:
            return None
        return (counts_at_e == self.check).all(axis=-1)

    def fixed_tables(self, x1, x2):
        """Per-pair tables (Y*n, M1*M2*columns) of fixed words x1, x2 (M1, M2, n)."""
        a1, a2 = self.output_cdf.shape[:2]
        ny = self.weights.shape[0] // (a1 * a2)
        w = self.weights.reshape(a1, ny, a2, -1)
        t = w[x1, :, x2, :]  # (M1, M2, n, Y, columns)
        return np.ascontiguousarray(t.transpose(3, 2, 0, 1, 4)).reshape(ny * x1.shape[2], -1)


def _trial_bytes(mac: Mac, n: int, m1: int, m2: int, k: int) -> int:
    """Working set of one ensemble trial: draw, one-hot words, counts."""
    a1, a2, ny = mac.x1_size, mac.x2_size, mac.y_size
    draw = k * n * (8 * max(m1, m2) + m1 + m2)
    onehot = 5 * k * n * (m1 * a1 * (1 + ny) + m2 * a2)
    counts = 12 * k * m1 * m2 * a1 * a2 * (1 + ny)
    return draw + onehot + counts


def _ensemble_block(rng, b, m1c, m2c, k, n, mac, samplers, fac, dec):
    """One block of fresh-codebook trials.

    Returns the decoder passes (B, M1, M2), the type check at the facilitated
    words (or None), the sent messages and where no k matched the type target.
    """
    f1 = samplers[0](rng, (b, k, m1c, n))
    f2 = samplers[1](rng, (b, k, m2c, n))
    l1 = _onehot(f1, mac.x1_size)
    r2 = _onehot(f2, mac.x2_size)
    counts = _pair_counts(l1, r2)
    u_choice = rng.random((b, m1c, m2c)) if fac.target is not None else None
    e, unmatched = fac.choose(counts, u_choice)

    msg1 = rng.integers(0, m1c, size=b)
    msg2 = rng.integers(0, m2c, size=b)
    bb = np.arange(b)
    k_sent = e[bb, msg1, msg2]
    y = _channel(rng, dec.output_cdf, f1[bb, k_sent, msg1], f2[bb, k_sent, msg2])

    in_type = dec.in_type(np.take_along_axis(counts, e[..., None, None], axis=3)[:, :, :, 0])
    z = _decode_counts(l1, r2, _onehot(y, mac.y_size), e)
    return dec.passes(z.astype(np.float64) @ dec.weights), in_type, msg1, msg2, unmatched


def _tally_block(tally, passes, in_type, msg1, msg2) -> int:
    """Classify the block's trials into the tally; returns its error count."""
    bb = np.arange(len(msg1))
    if in_type is not None:
        in_type = np.broadcast_to(in_type, passes.shape)
        passes = passes & in_type
    npass = passes.sum(axis=(1, 2))
    err = ~((npass == 1) & passes[bb, msg1, msg2])
    none_pass = err & (npass == 0)
    if in_type is not None:
        true_in_type = in_type[bb, msg1, msg2]
        tally["type_miss"] += int((none_pass & ~true_in_type).sum())
        none_pass &= true_in_type
    tally["threshold_miss"] += int(none_pass.sum())
    tally["ambiguity"] += int((err & (npass >= 2)).sum())
    tally["impostor_pass"] += int((err & (npass == 1)).sum())
    return int(err.sum())


def _report(trials: int, errors: int, tally: dict, seed: int) -> SimReport:
    return SimReport(
        trials=trials,
        errors=errors,
        p_hat=errors / trials,
        ci95=_clopper_pearson(errors, trials),
        decomposition=tally,
        seed=seed,
    )


def _empty_tally() -> dict:
    return {"threshold_miss": 0, "impostor_pass": 0, "ambiguity": 0, "type_miss": 0}


def _facilitated_words(codebooks: Codebooks, e: np.ndarray):
    """The words x1, x2 (M1, M2, n) sent for each message pair under e (M1, M2)."""
    m1, m2 = e.shape
    return codebooks.f1[np.arange(m1)[:, None], e], codebooks.f2[np.arange(m2)[None, :], e]


# ---------------------------------------------------------------------------
# public single-shot operations


def draw_codebooks(
    mac: Mac,
    dist: InputDist,
    n: int,
    m1_count: int,
    m2_count: int,
    k: int,
    mode: str = IID,
    seed: int = 0,
) -> Codebooks:
    """One reproducible codebook draw (i.i.d. symbols or type-class words)."""
    _require_uint8(mac)
    samplers = _word_samplers(dist, n, mode)
    rng = _stream(seed, _CODEBOOK, 0)
    f1 = samplers[0](rng, (m1_count, k, n))
    f2 = samplers[1](rng, (m2_count, k, n))
    return Codebooks(f1=f1, f2=f2, mode=mode, seed=seed)


def facilitate(
    codebooks: Codebooks,
    mac: Mac,
    dist: InputDist,
    mode: str = IID,
    seed: int = 0,
) -> FacilitatorTable:
    """Choose e(m1, m2) in [K] for every message pair."""
    if mode != codebooks.mode:
        raise ModeMismatch(
            f"facilitator mode {mode!r} does not match codebook mode {codebooks.mode!r}"
        )
    fac = _Facilitator.build(mac, dist, codebooks.n, mode)
    f1 = codebooks.f1.transpose(1, 0, 2)[None]  # kernel layout (1, K, M, n)
    f2 = codebooks.f2.transpose(1, 0, 2)[None]
    counts = _pair_counts(_onehot(f1, mac.x1_size), _onehot(f2, mac.x2_size))
    u_choice = None
    if mode == TYPE:
        u_choice = _stream(seed, _FACILITATOR, 0).random(counts.shape[:3])
    e, unmatched = fac.choose(counts, u_choice)
    return FacilitatorTable(
        e=e[0], mode=mode, unmatched=None if unmatched is None else unmatched[0]
    )


def threshold_decode(
    y_word: np.ndarray,
    codebooks: Codebooks,
    e_table: FacilitatorTable,
    thresholds: DecoderThresholds,
    mac: Mac,
    dist: InputDist,
):
    """Decode one received word; returns ((m1, m2), 'decoded') or (None, reason)."""
    dec = _Decoder.build(mac, dist, codebooks.n, thresholds)
    y = np.asarray(y_word, dtype=np.int64)
    if y.shape != (codebooks.n,) or y.min() < 0 or y.max() >= mac.y_size:
        raise SizeMismatch(f"received word must hold {codebooks.n} symbols in [0, {mac.y_size})")
    x1, x2 = _facilitated_words(codebooks, e_table.e)
    counts = _word_counts(x1, x2, y, mac.x1_size, mac.x2_size, mac.y_size)
    passes = dec.passes(counts.astype(np.float64) @ dec.weights)
    if dec.check is not None:
        passes &= dec.in_type(_word_counts(x1, x2, 0, mac.x1_size, mac.x2_size, 1))
    hits = np.argwhere(passes)
    if len(hits) == 1:
        return (int(hits[0][0]), int(hits[0][1])), "decoded"
    return None, ("none-pass" if len(hits) == 0 else "multiple-pass")


# ---------------------------------------------------------------------------
# ensemble simulation


def estimate_error(config: SimConfig) -> SimReport:
    """Ensemble-average error probability with fresh codebooks every trial."""
    if config.trials < 1:
        raise ValueError("trials must be at least 1")
    mac, dist = config.mac, config.dist
    n, m1c, m2c, k = config.n, config.m1_count, config.m2_count, config.k
    samplers = _word_samplers(dist, n, config.mode)
    fac = _Facilitator.build(mac, dist, n, config.mode)
    dec = _Decoder.build(mac, dist, n, config.resolved_thresholds())

    errors = 0
    tally = _empty_tally()
    for rng, b in _blocks(
        config.seed, _ENSEMBLE, config.trials, _trial_bytes(mac, n, m1c, m2c, k)
    ):
        passes, in_type, msg1, msg2, _ = _ensemble_block(
            rng, b, m1c, m2c, k, n, mac, samplers, fac, dec
        )
        errors += _tally_block(tally, passes, in_type, msg1, msg2)
    return _report(config.trials, errors, tally, config.seed)


# ---------------------------------------------------------------------------
# finite-blocklength bound


def _bound_samples(config: SimConfig, th: DecoderThresholds, mc_samples: int, seed: int):
    """Monte Carlo term of the bound: (threshold fails, type-mode unmatched) counts."""
    mac, dist, n, k = config.mac, config.dist, config.n, config.k
    samplers = _word_samplers(dist, n, config.mode)
    fac = _Facilitator.build(mac, dist, n, config.mode)
    # the Monte Carlo term tests the thresholds only, not the type constraint
    dec = _Decoder.build(mac, dist, n, replace(th, type_constraint=None))
    fails = 0
    type_misses = 0
    for rng, b in _blocks(seed, _BOUND, mc_samples, _trial_bytes(mac, n, 1, 1, k)):
        passes, _, _, _, unmatched = _ensemble_block(rng, b, 1, 1, k, n, mac, samplers, fac, dec)
        fails += int((~passes).sum())
        if unmatched is not None:
            type_misses += int(unmatched.sum())
    return fails, type_misses


def fbl_bound(
    config: SimConfig,
    thresholds: DecoderThresholds | None = None,
    mc_samples: int = 100_000,
    seed: int | None = None,
) -> float:
    """Upper bound on the ensemble-average error probability.

    The probability that the facilitated pair's density vector misses the
    thresholds is estimated by Monte Carlo (upper endpoint of its 99%
    confidence interval, keeping the bound valid with high confidence); the
    impostor union terms are exact closed forms.
    """
    mac = config.mac
    th = thresholds if thresholds is not None else config.resolved_thresholds()
    th.require_finite()
    n, m1c, m2c, k = config.n, config.m1_count, config.m2_count, config.k
    base = 2.0 if th.units == "bits" else math.e
    if seed is None:
        seed = config.seed

    fails, type_misses = _bound_samples(config, th, mc_samples, seed)
    fail_upper = float(_beta.ppf(0.995, fails + 1, mc_samples - fails)) if fails < mc_samples else 1.0
    if config.mode == TYPE:
        counting = float((n + 1) ** (mac.x1_size * mac.x2_size))
        union = counting * (
            m1c * m2c * base ** (-th.c12)
            + m1c * base ** (-th.c1)
            + m2c * base ** (-th.c2)
        )
        miss_upper = (
            float(_beta.ppf(0.995, type_misses + 1, mc_samples - type_misses))
            if type_misses < mc_samples
            else 1.0
        )
        return miss_upper + fail_upper + union
    union = (
        m1c * m2c * k * base ** (-th.c12)
        + m1c * base ** (-th.c1)
        + m2c * base ** (-th.c2)
    )
    return fail_upper + union


def estimate_error_fixed_code(
    codebooks: Codebooks,
    e_table: FacilitatorTable,
    config: SimConfig,
) -> SimReport:
    """Error rate of one fixed codebook draw over random messages and noise.

    Exploration aid only: the finite-blocklength bound applies to the
    codebook ensemble average, not to an individual draw, so this report is
    excluded from bound validation.
    """
    if config.trials < 1:
        raise ValueError("trials must be at least 1")
    mac = config.mac
    n, m1c, m2c = config.n, config.m1_count, config.m2_count
    dec = _Decoder.build(mac, config.dist, n, config.resolved_thresholds())
    x1, x2 = _facilitated_words(codebooks, e_table.e)
    tables = dec.fixed_tables(x1, x2)
    in_type = None
    if dec.check is not None:
        in_type = dec.in_type(_word_counts(x1, x2, 0, mac.x1_size, mac.x2_size, 1))

    errors = 0
    tally = _empty_tally()
    trial_bytes = 8 * (mac.y_size * n + tables.shape[1]) + 16 * n
    for rng, b in _blocks(config.seed, _FIXED_CODE, config.trials, trial_bytes):
        msg1 = rng.integers(0, m1c, size=b)
        msg2 = rng.integers(0, m2c, size=b)
        y = _channel(rng, dec.output_cdf, x1[msg1, msg2], x2[msg1, msg2])
        z = _onehot(y, mac.y_size, np.float64).reshape(b, -1) @ tables
        passes = dec.passes(z.reshape(b, m1c, m2c, -1))
        errors += _tally_block(tally, passes, in_type, msg1, msg2)
    return _report(config.trials, errors, tally, config.seed)


def simulate_with_bound(config: SimConfig, mc_samples: int = 100_000) -> SimReport:
    """estimate_error plus the finite-blocklength bound in one report."""
    report = estimate_error(config)
    bound = fbl_bound(config, mc_samples=mc_samples)
    return replace(report, fbl_bound=bound)


# ---------------------------------------------------------------------------
# JSON-document form of a simulation config


def sim_config_to_dict(config: SimConfig) -> dict:
    out = {
        "channel": {
            "x1_size": config.mac.x1_size,
            "x2_size": config.mac.x2_size,
            "y_size": config.mac.y_size,
            "kernel": config.mac.kernel.tolist(),
        },
        "n": config.n,
        "m1_count": config.m1_count,
        "m2_count": config.m2_count,
        "k": config.k,
        "mode": config.mode,
        "trials": config.trials,
        "seed": config.seed,
        "units": config.units,
    }
    if isinstance(config.dist, JointDist):
        out["dist"] = {"p12": np.asarray(config.dist.p12).tolist()}
    else:
        out["dist"] = {
            "p1": np.asarray(config.dist.p1).tolist(),
            "p2": np.asarray(config.dist.p2).tolist(),
        }
    if config.thresholds is not None:
        th = config.thresholds
        out["thresholds"] = {"c12": th.c12, "c1": th.c1, "c2": th.c2}
        if th.type_constraint is not None:
            out["thresholds"]["type_constraint"] = np.asarray(th.type_constraint).tolist()
    return out


def sim_config_from_dict(doc: dict) -> SimConfig:
    from .channel import load_channel

    chan = doc["channel"]
    mac = named_channel(chan) if isinstance(chan, str) else load_channel(chan)
    dd = doc["dist"]
    if "p12" in dd:
        dist: InputDist = JointDist(np.asarray(dd["p12"], dtype=float))
    else:
        dist = ProductDist(np.asarray(dd["p1"], dtype=float), np.asarray(dd["p2"], dtype=float))
    units = doc.get("units", "bits")
    thresholds = None
    if "thresholds" in doc:
        td = doc["thresholds"]
        tc = td.get("type_constraint")
        thresholds = DecoderThresholds(
            c12=float(td["c12"]),
            c1=float(td["c1"]),
            c2=float(td["c2"]),
            type_constraint=None if tc is None else np.asarray(tc, dtype=float),
            units=units,
        )
    return SimConfig(
        mac=mac,
        dist=dist,
        n=int(doc["n"]),
        m1_count=int(doc["m1_count"]),
        m2_count=int(doc["m2_count"]),
        k=int(doc["k"]),
        mode=doc.get("mode", IID),
        thresholds=thresholds,
        trials=int(doc.get("trials", 10_000)),
        seed=int(doc.get("seed", 0)),
        units=units,
    )
