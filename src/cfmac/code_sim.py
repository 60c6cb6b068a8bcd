"""Monte Carlo simulation of the facilitated random-coding constructions.

Two constructions are supported, and ``mode`` alone picks one: i.i.d.
codebooks with a score-argmax facilitator and threshold decoder (``"iid"``),
and constant-composition (type-class) codebooks with a type-matching
facilitator and a type-constrained decoder (``"type"``).  The decoder's
joint-type check follows the mode: in type mode a message pair passes only
if its facilitated codeword pair has the joint n-type of the input law, the
target the facilitator matches, so in the ensemble the check holds exactly
where the facilitator found a match.  The thresholds hold only the three
levels c12, c1 and c2.  ``estimate_error`` estimates the ensemble-average
error probability (fresh codebooks every trial); ``fbl_bound`` evaluates the
constant-free finite-blocklength upper bound the constructions are validated
against.

Joint-count kernel.  Every per-trial statistic is a linear function of
joint-symbol counts: the facilitator score sum_i i_bar[x1_i, x2_i], the type
match and the type check compare or contract the counts N[a1, a2] of a
codeword pair, and the three decoding metrics contract the counts
D[a1, y, a2] of (codeword pair, received word).  Every count is a popcount of
ANDed bit planes, one bit per position and symbol, packed into W = ceil(n/64)
uint64 words.  Every word, codeword or received word, has the planes of its
symbols 1..A-1 (a binary word is its own plane); it reads 0 where none is
set.  The ensemble's codewords are drawn straight into planes
(``_construction`` picks the sampler): an i.i.d. word is a bit-sliced compare
of raw generator words with integer thresholds, a type-class word a
sequential draw without replacement.  The channel (``_channel``) maps the
sent words' planes to the received word's planes by the same compare, so a
trial never holds a symbol.  Every count comes from one kernel,
``_pair_counts``: the popcounts of two words' ANDed planes, over shapes that
broadcast, give N[a1, a2] for a1, a2 >= 1, and the cells with a1 = 0 or
a2 = 0 follow by difference from the positions counted.  The facilitator's
counts of every (m1, m2, k) and a fixed code's type check of every pair are
pair counts, compared with the type target by ``_in_type``.  The triple
counts are pair counts too (``_triple_counts``): D[:, y, :] for y >= 1 is
the pair count of the two words masked by the received word's plane y, and
D[:, 0, :] what is left of the words' pair counts N, which a code or a block
computes once for all its trials.  The decoder takes the counts cells first
and contracts them with its weights in one place, ``_Decoder.decide``.  The
counts are exact integers in the smallest unsigned type that holds n, so no
layout changes a report.  Table entries that are not finite (-inf at kernel
zeros) are counted by separate indicator columns, so 0 * inf never arises.
The bound (M1 = M2 = 1) draws no symbols at all: it samples only what the
facilitator and decoder read, from exact laws.  In iid mode that is the K
pairs' totals over the cells of equal i_bar, which fix the scores, and the
chosen pair's cells; in type mode nothing, since a matched pair has the
target table t12 and an unmatched one errs, which the closed form p_u =
(1 - q)^K pays for.  Then come the chosen pair's (x1, y, x2) counts.  One
formula serves both modes, (1 - p_u) * (fail rate) + union + p_u, with p_u
exactly 0.0 in iid mode.  The cost grows with neither n nor, in type mode or
when i_bar takes one value, K.

Fixed codes.  Both error estimates run one trial loop, ``_run_trials``, and
differ only in where the facilitated words of every message pair and their
pair counts come from: fresh codebooks per block (``_ensemble_words``), or a
code that ``_fixed_code`` prepares once: its decoder, the bit planes of the
facilitated words of every message pair, their pair counts and, in type
mode, their type check.  A block's received words are decoded in chunks of
trials whose counts and metrics take 1/16 of the block budget, so they stay
in cache.  ``threshold_decode`` packs its one word into planes, decodes it
as a trial does and keeps the last prepared code in a one-slot memo.
The memo's key holds the values the code is built from: the bytes, shape and
dtype of the codebooks, the facilitator table and the kernel, the codebooks'
and the table's modes, the thresholds and the input law.  So an array
changed in place misses, where its ``id`` would not, and a table of another
mode than the codebooks' reaches the mode check.  The slot keeps its code after the
call, outside the block budget: about 1 MB of planes and 0.03 MB of pair
counts at M1 = M2 = 64, n = 1000.  Codebooks are checked where they enter
(``_check_codebooks``): f1 (M1, K, n) and f2 (M2, K, n) agree on K and n and
read symbols of the MAC's input alphabets.

Ties.  The score facilitator picks the smallest k whose score lies within
``_TIE_ULPS_PER_CELL`` * A1 * A2 ulps of n * max|i_bar| of the best score,
more than the rounding error of a score's sum over the A1 * A2 joint cells,
so exactly tied scores give the smallest k whatever the summation order or
the BLAS build.

Randomness.  Trials are processed in blocks, each drawing from its own
PCG64DXSM stream, seeded by ``SeedSequence(seed, spawn_key=(family, block))``
for the seed, the stream family and the block index.  The seed's 32-bit
words are zero-padded to four before the spawn key is appended, so distinct
(seed, family, block) never give the same entropy, and the families
(ensemble trials, bound samples, codebook draws, facilitator picks,
fixed-code trials) never share a stream.  Every codeword symbol and every
channel output counts the integer thresholds that a uniform b-bit U reaches
(``_thresholds``): b is the fewest bits <= 53 in which the law's compared
cumulative sums are exact, else 53, where the compare is the law of a 53-bit
float uniform.  U is read bit-sliced, b raw 64-bit words per plane word, so
a kernel of 0/1 rows draws nothing.  The block size is a pure function of
the configuration's per-trial footprint (for the bound, the per-sample count
footprint ``_bound_sample_bytes``) and the byte budget ``_BLOCK_BYTES``, so
results are bit-for-bit reproducible for a given (config, seed), independent
of scheduling, and memory stays bounded.  ``STREAM_VERSION`` names the
stream layout; it changes whenever a fixed (config, seed) deliberately
yields a different report, and README's "Stream version" notes give each
version's layout.  The facilitator draws type mode's pick itself: one
uniform per message pair, right after the pair counts, from the stream it is
given (the block's, or in ``facilitate`` the facilitator family's, which iid
mode builds too, so the seed is checked there as well).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np
from scipy.special import betaincinv, gammaln

from .channel import (
    InputDist,
    JointDist,
    Mac,
    _field,
    _integer,
    _log_units,
    _nats_per_unit,
    _parsing,
    dump_dist,
    info_density_tables,
    load_channel,
    load_dist,
    named_channel,
)
from .errors import DegenerateThresholds, ModeMismatch, NotAnNType, SizeMismatch

STREAM_VERSION = 9

_BLOCK_BYTES = 64 * 2**20  # per-block working-set budget; sets the trials per block
# Facilitator scores within this many ulps of n * max|i_bar|, per joint cell
# (A1 * A2), of the best count as tied.  A score sums one term per cell, so its
# rounding error stays under one such ulp per cell, and a difference of two
# scores under two, whatever the summation order: the factor 16 leaves margin.
_TIE_ULPS_PER_CELL = 16

# stream families, the first entry of each block stream's spawn key
_ENSEMBLE, _BOUND, _CODEBOOK, _FACILITATOR, _FIXED_CODE = range(1, 6)

IID = "iid"
TYPE = "type"


@dataclass(frozen=True)
class DecoderThresholds:
    c12: float
    c1: float
    c2: float
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

    def __post_init__(self):
        for name in ("n", "m1_count", "m2_count", "k"):
            object.__setattr__(self, name, _size(name, getattr(self, name)))
        for name in ("trials", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
        if self.thresholds is not None and self.thresholds.units != self.units:
            raise ValueError(
                f"thresholds are in {self.thresholds.units!r}, the config in {self.units!r}"
            )

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
        out = asdict(self)
        out["ci95"] = list(self.ci95)
        if self.fbl_bound is None:
            del out["fbl_bound"]
        return out


# ---------------------------------------------------------------------------
# defaults and small helpers


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
    half_log_n = 0.5 * _log_units(n, units)
    pairs, classes = _counting(mac, m1_count, m2_count, k, mode)
    counting = classes * _log_units(n + 1, units)  # iid: exactly 0.0, and adding it is exact
    return DecoderThresholds(
        c12=_log_units(pairs, units) + half_log_n + counting,
        c1=_log_units(m1_count, units) + half_log_n + counting,
        c2=_log_units(m2_count, units) + half_log_n + counting,
        units=units,
    )


def _size(name: str, value) -> int:
    """A size (n, M1, M2 or K) read through ``_integer``: at least 1."""
    value = _integer(value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def _counting(mac: Mac, m1_count: int, m2_count: int, k: int, mode: str) -> tuple[int, int]:
    """Impostor-pair count and type-class exponent: (M1*M2*K, 0) iid, (M1*M2, A1*A2) type."""
    if mode == IID:
        return m1_count * m2_count * k, 0
    if mode == TYPE:
        return m1_count * m2_count, mac.x1_size * mac.x2_size
    raise ModeMismatch(f"unknown mode {mode!r}")


def _type_counts(dist: JointDist, n: int) -> np.ndarray:
    counts = np.asarray(dist.p12) * n
    rounded = np.rint(counts)
    if np.max(np.abs(counts - rounded)) > 1e-9:
        raise NotAnNType(f"joint distribution is not an n-type for n={n}")
    return rounded.astype(np.int64)


def _stream(seed: int, family: int, block: int) -> np.random.Generator:
    seed = _integer(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    # SeedSequence([seed, family, block]) would not do: a seed below 2**32 is
    # one word and its entropy is zero-padded, so (s, f, b) and
    # (f * 2**32 + s, b, 0) would share a stream
    entropy = np.random.SeedSequence(seed, spawn_key=(family, block))
    return np.random.Generator(np.random.PCG64DXSM(entropy))


def _blocks(seed: int, family: int, total: int, trial_bytes: int):
    """(stream, size) per block; blocks hold as many trials as the budget allows."""
    size = max(1, _BLOCK_BYTES // trial_bytes)
    for block, start in enumerate(range(0, total, size)):
        yield _stream(seed, family, block), min(size, total - start)


def _clopper_pearson(count: int, total: int, alpha: float = 0.05) -> tuple[float, float]:
    """Both endpoints of the 1 - ``alpha`` Clopper-Pearson interval of count / total."""
    low = 0.0 if count == 0 else float(betaincinv(count, total - count + 1, alpha / 2))
    high = 1.0 if count == total else float(betaincinv(count + 1, total - count, 1 - alpha / 2))
    return low, high


# ---------------------------------------------------------------------------
# sampling


def _thresholds(cdf):
    """(b, t): the compared sums c = cdf[..., :-1] of a law (A,) or a table (..., A)
    as integers t = ceil(2^b * c), where b is the fewest bits <= 53 in which
    every c is exact, else 53.

    A uniform b-bit integer U reaches t with probability 1 - t/2^b, which is
    1 - c where c is exact in b bits.  At b = 53, U >= t is U * 2^-53 >= c, the
    law of a 53-bit float uniform (``Generator.random`` is the raw word >> 11
    times 2^-53).  A sum c >= 1 gives t >= 2^b, which U never reaches.
    """
    c = cdf[..., :-1]
    b = next((b for b in range(53) if np.all(c * 2.0**b % 1 == 0)), 53)
    return b, np.ceil(c * 2.0**b).astype(np.int64)


def _at_least(u, t: int):
    """Bit-sliced U >= t: ``u`` holds the b planes of U, bit j of U in u[j], and
    0 <= t <= 2^b.  From U's lowest bit up, U >= t on bits 0..j holds where
    u[j] is set and the lower bits are >= (t's bit j is 1), or where either is
    (t's bit j is 0); below t's lowest set bit it holds everywhere."""
    if t == 0:
        return np.full(u.shape[1:], ~np.uint64(0), dtype="<u8")
    if t >= 2 ** len(u):
        return np.zeros(u.shape[1:], dtype="<u8")
    low = (t & -t).bit_length() - 1
    ge = u[low].copy()
    for j in range(low + 1, len(u)):
        if t >> j & 1:
            ge &= u[j]
        else:
            ge |= u[j]
    return ge


def _one_hot(ge, n):
    """Nested planes ge (W, A-1, ...) of "symbol >= a", a = 1..A-1, -> the planes
    of "symbol == a", in place, with the bits past n cleared."""
    ge[:, :-1] &= ~ge[:, 1:]
    if n % 64:
        ge[-1] &= np.uint64(2 ** (n % 64) - 1)
    return ge


def _raw_planes(rng, b, w, lead):
    """b planes (b, W, *lead) of a uniform b-bit integer U per position, bit j in
    plane j: b * W * prod(lead) raw 64-bit generator outputs, read as ``<u8``."""
    raw = rng.bit_generator.random_raw(b * w * math.prod(lead)).astype("<u8", copy=False)
    return raw.reshape(b, w, *lead)


def _channel(kernel, n):
    """The channel (rng, x1, x2) -> planes (W, Y-1, *S) of symbols 1..Y-1 of the
    received words of the sent words' planes x1 (W, A1-1, *S) and x2 (W, A2-1, *S).

    Every position draws one U of the kernel's b bits (``_thresholds`` over all
    rows), so a kernel of 0/1 rows (adder2) draws nothing.  A cell (a1, a2)
    holds at the AND of its input planes, and there the output counts the
    thresholds of the cell's row that U reaches.  Each distinct threshold is
    compared once.
    """
    b, t = _thresholds(np.cumsum(kernel, axis=-1))
    values, index = np.unique(t, return_inverse=True)
    index = index.reshape(t.shape)  # (A1, A2, Y-1)

    def every_symbol(planes):  # symbol 0 where no plane is set; past n too
        return np.concatenate([~np.bitwise_or.reduce(planes, axis=1)[:, None], planes], axis=1)

    def channel(rng, x1, x2):
        w, _, *lead = x1.shape
        u = _raw_planes(rng, b, w, lead)
        reached = [_at_least(u, int(v)) for v in values]
        c1, c2 = every_symbol(x1), every_symbol(x2)
        ge = np.zeros((w, index.shape[-1], *lead), dtype="<u8")
        for a1, a2 in np.ndindex(index.shape[:2]):
            cell = c1[:, a1] & c2[:, a2]
            for y, i in enumerate(index[a1, a2]):
                ge[:, y] |= cell & reached[i]
        return _one_hot(ge, n)

    return channel


def _draw_type(rng, lead, counts, n):
    """Planes (W, A-1, *lead) of uniform arrangements of a word with symbol counts
    ``counts`` (A,), which sum to n.

    An exact sequential draw without replacement: at position i every word
    takes one uniform integer r in [0, n - i) from ``rng.integers`` and reads a
    symbol >= a where r is below its count left of the symbols >= a.  So it
    reads a with probability (a's count left) / (n - i).
    """
    words = math.prod(lead)
    dtype = np.uint16 if n <= 2**16 else np.uint32
    at_least = np.cumsum(counts[::-1])[::-1][1:]  # symbols >= a, a = 1..A-1
    left = np.repeat(at_least.astype(dtype)[:, None], words, axis=1)  # (A-1, words)
    ge = np.zeros((-(-n // 64), len(left), words), dtype="<u8")
    at = np.empty(left.shape, dtype=bool)
    for i in range(n):
        r = rng.integers(0, n - i, size=words, dtype=dtype)
        np.less(r, left, out=at)
        left -= at
        ge[i // 64] |= np.left_shift(at, i % 64, dtype=np.uint64)
    return _one_hot(ge, n).reshape(ge.shape[:2] + tuple(lead))


def _require_uint8(mac: Mac) -> None:
    if max(mac.x1_size, mac.x2_size, mac.y_size) > 256:
        raise SizeMismatch("the simulator stores symbols as uint8: alphabets are limited to 256")


def _check_codebooks(codebooks: Codebooks, mac: Mac) -> None:
    """Codebooks f1 (M1, K, n) and f2 (M2, K, n) that agree on K and n and read
    symbols of the MAC's input alphabets; else ``SizeMismatch``."""
    f1, f2 = codebooks.f1, codebooks.f2
    if f1.ndim != 3 or f2.ndim != 3 or f1.shape[1:] != f2.shape[1:] or 0 in f1.shape + f2.shape:
        raise SizeMismatch(
            f"codebooks of shapes {f1.shape} and {f2.shape} are not (M1, K, n) and (M2, K, n)"
        )
    for user, f, size in ((1, f1, mac.x1_size), (2, f2, mac.x2_size)):
        if f.min() < 0 or f.max() >= size:
            raise SizeMismatch(
                f"codebook {user} holds symbols in [{f.min()}, {f.max()}], outside [0, {size})"
            )


def _iid_sampler(p, n):
    """The sampler (rng, lead) -> planes (W, A-1, *lead) of i.i.d. words of law
    ``p``: a symbol counts the thresholds (``_thresholds``) its U reaches, so a
    uniform binary law (b = 1) is the raw word."""
    b, t = _thresholds(np.cumsum(p))

    def draw(rng, lead):
        u = _raw_planes(rng, b, -(-n // 64), lead)
        ge = np.empty((u.shape[1], len(t), *lead), dtype="<u8")
        for a, v in enumerate(t):
            ge[:, a] = _at_least(u, int(v))
        return _one_hot(ge, n)

    return draw


def _construction(dist: InputDist, n: int, mode: str):
    """The one mode dispatch: per user, a sampler (rng, lead) -> bit planes (W, A-1,
    *lead) of codewords of length n (see ``_planes``), and the joint n-type counts
    (A1*A2,) that type mode matches (None in iid mode)."""
    if mode == IID:
        return [_iid_sampler(p, n) for p in (dist.p1, dist.p2)], None
    if mode != TYPE:
        raise ModeMismatch(f"unknown mode {mode!r}")
    if not isinstance(dist, JointDist):
        raise ModeMismatch("type mode requires a JointDist n-type")
    counts = _type_counts(dist, n)
    samplers = [
        partial(_draw_type, counts=c, n=n)
        for c in (counts.sum(axis=1), counts.sum(axis=0))
    ]
    return samplers, counts.ravel()


# ---------------------------------------------------------------------------
# joint-count kernel; codewords are laid out (B, K, M, n)


def _planes(words, size):
    """(..., n) uint8 words -> (W, size-1, ...) uint64 bit planes of symbols 1..size-1.

    Bit i of a word's plane for symbol a is set where the word reads a; the bits
    past n are zero.  The W = ceil(n/64) plane words lead, then the symbols, so
    a cell's counts are one long array.  The indicators are padded to whole
    plane words first, so that one flat ``packbits`` packs them all.
    """
    *lead, n = words.shape
    w = -(-n // 64)
    symbols = np.arange(1, size, dtype=np.uint8)[:, None]
    bits = np.zeros((*lead, len(symbols), 64 * w), dtype=bool)
    np.equal(words[..., None, :], symbols, out=bits[..., :n])
    packed = np.packbits(bits.reshape(-1), bitorder="little").view("<u8")
    planes = packed.reshape(*lead, len(symbols), w)
    return np.ascontiguousarray(np.moveaxis(planes, (-1, -2), (0, 1)))


def _symbols(planes, n):
    """Planes (W, A-1, *lead) of symbols 1..A-1 -> (*lead, n) uint8 words; inverts ``_planes``."""
    rows = np.ascontiguousarray(np.moveaxis(planes, (0, 1), (-1, -2)), dtype="<u8")
    # (*lead, A-1, n), at most one bit set per position
    bits = np.unpackbits(rows.view(np.uint8), axis=-1, count=n, bitorder="little")
    symbols = np.arange(1, bits.shape[-2] + 1, dtype=np.uint8)[:, None]
    return (bits * symbols).sum(axis=-2, dtype=np.uint8)


def _pair_counts(x1, x2, total):
    """Planes x1 (W, A1-1, *S), x2 (W, A2-1, *S) -> pair counts N (A1, A2, *S),
    cells first; the shapes S, of as many axes (else ``ValueError``), broadcast.

    The popcounts of ANDed planes give N[a1, a2] for a1, a2 >= 1, the words'
    own counts the cells with a1 = 0 or a2 = 0 by difference, and ``total``
    (n, or a mask's popcounts (*S)) the cell with both.  x1 and x2 are read one
    plane word at a time, so they may be any iterables of their W plane words.
    The bits past n must be zero.  The counts are exact in the smallest
    unsigned type that holds ``total``, as are their differences.
    """
    dt = np.min_scalar_type(total)  # an array's own type
    n11 = c1 = c2 = np.zeros((), dtype=dt)  # to (A1-1, A2-1, *S), (A1-1, *S), (A2-1, *S)
    for u, v in zip(x1, x2):
        if u.ndim != v.ndim:
            raise ValueError(f"plane words of shapes {u.shape} and {v.shape} differ in rank")
        n11 = n11 + np.bitwise_count(u[:, None] & v)
        c1 = c1 + np.bitwise_count(u)
        c2 = c2 + np.bitwise_count(v)
    s1, s2, *shape = n11.shape
    counts = np.empty((s1 + 1, s2 + 1, *shape), dtype=dt)
    counts[1:, 1:] = n11
    counts[1:, 0] = c1 - n11.sum(axis=1, dtype=dt)
    counts[0, 1:] = c2 - n11.sum(axis=0, dtype=dt)
    counts[0, 0] = total - c1.sum(axis=0, dtype=dt) - counts[0, 1:].sum(axis=0, dtype=dt)
    return counts


def _triple_counts(x1, x2, y, pairs):
    """Planes x1 (W, A1-1, *S), x2 (W, A2-1, *S) of two words, their pair counts
    ``pairs`` (A1, A2, *S) and the planes y (W, Y-1, *S) of symbols 1..Y-1 of a
    received word -> counts D (A1, Y, A2, *S) of (x1, y, x2), cells first; the
    shapes S, of as many axes (else ``ValueError``), broadcast.

    D[:, y] for y >= 1 is the pair count of the two words masked by y's plane,
    ANDed one plane word at a time; D[:, 0] is what is left of the pair counts.
    """
    if not x1.ndim == x2.ndim == y.ndim:
        raise ValueError(f"planes of shapes {x1.shape}, {x2.shape} and {y.shape} differ in rank")
    received = np.bitwise_count(y).sum(axis=0, dtype=pairs.dtype)  # (Y-1, *S)
    masked = _pair_counts(
        (u[:, None] & v for u, v in zip(x1, y)), (u[:, None] & v for u, v in zip(x2, y)), received
    )  # (A1, A2, Y-1, *S)
    s1, s2, ny, *shape = masked.shape
    d = np.empty((s1, ny + 1, s2, *shape), dtype=masked.dtype)
    d[:, 1:] = np.moveaxis(masked, 2, 1)
    d[:, 0] = pairs - masked.sum(axis=2, dtype=masked.dtype)
    return d


def _in_type(counts, target):
    """Pair counts N (A1*A2, *S) -> whether they are the joint type ``target`` (A1*A2,) (*S)."""
    target = target.astype(counts.dtype)  # counts <= n: the type holds them
    return (counts == target.reshape(-1, *[1] * (counts.ndim - 1))).all(axis=0)


@dataclass(frozen=True)
class _Facilitator:
    """Score argmax (iid) or type match (type) on pair counts."""

    i_bar: np.ndarray | None  # (A1*A2,) expected density in nats, iid mode
    tol: float
    target: np.ndarray | None  # (A1*A2,) target joint-type counts, type mode

    def choose(self, counts, rng=None):
        """e (B, M1, M2) and, in type mode, where no k matched the target.

        ``counts`` are the pair counts (A1*A2, B, M1, M2, K), cells first.  Type
        mode compares them with the target (``_in_type``), and picks uniformly
        among the matched k, or over [K] when none matched, with one uniform
        per (b, m1, m2) drawn from ``rng``; iid mode draws nothing, and ``rng``
        may be None.
        """
        if self.target is None:
            scores = (self.i_bar @ counts.reshape(len(self.i_bar), -1)).reshape(counts.shape[1:])
            best = scores.max(axis=-1, keepdims=True)
            return (scores >= best - self.tol).argmax(axis=-1), None
        matched = _in_type(counts, self.target)
        n_match = matched.sum(axis=-1)
        u_choice = rng.random(n_match.shape)
        pool = np.where(n_match > 0, n_match, matched.shape[-1])
        pick = np.minimum(np.floor(u_choice * pool).astype(np.int64), pool - 1)
        nth = (matched.cumsum(axis=-1) > pick[..., None]).argmax(axis=-1)  # the pick-th matched k
        return np.where(n_match > 0, nth, pick), n_match == 0


def _ensemble(mac: Mac, dist: InputDist, n: int, mode: str):
    """Word samplers and facilitator of the construction ``mode`` names."""
    samplers, target = _construction(dist, n, mode)
    if target is not None:
        return samplers, _Facilitator(None, 0.0, target)
    i_bar = info_density_tables(mac, dist, units="nats").i_bar
    tol = _TIE_ULPS_PER_CELL * i_bar.size * float(np.spacing(n * np.abs(i_bar).max()))
    return samplers, _Facilitator(i_bar.ravel(), tol, None)


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

    @classmethod
    def build(cls, mac: Mac, dist: InputDist, th: DecoderThresholds) -> "_Decoder":
        _require_uint8(mac)
        t = info_density_tables(mac, dist, units=th.units)  # -inf at kernel zeros
        d = np.stack([t.i_joint, t.i_1, t.i_2], axis=-1)
        d = d.transpose(0, 2, 1, 3).reshape(-1, 3)  # rows (a1, y, a2)
        indicators = np.concatenate([d == -np.inf, d == np.inf], axis=1)
        present = np.flatnonzero(indicators.any(axis=0))
        return cls(
            np.concatenate([np.where(np.isfinite(d), d, 0.0), indicators[:, present]], axis=1),
            tuple((int(c) % 3, -np.inf if c < 3 else np.inf) for c in present),
            np.array([th.c12, th.c1, th.c2]),
        )

    def decide(self, d):
        """Counts D (A1, Y, A2, *S) of (x1, y, x2), cells first -> all three metrics
        pass (*S).  The counts are contracted cells first, weights.T @ D."""
        z = self.weights.T @ d.reshape(len(self.weights), -1).astype(np.float64)
        return self.passes(z.T).reshape(d.shape[3:])

    def passes(self, z):
        """Weighted counts (..., columns) -> all three metrics pass (...).

        A metric is its finite part plus +-inf for each of its indicator
        columns that counts a cell, and it passes when that sum reaches its
        threshold: -inf + inf is nan, which fails, as does a nan threshold.
        The infinite terms are added only where their column counts a cell,
        and each metric is taken in the layout of z, a view where it has none.
        """
        metrics = [z[..., j] for j in range(3)]
        with np.errstate(invalid="ignore"):
            for col, (j, v) in enumerate(self.infs, start=3):
                metrics[j] = np.add(metrics[j], v, out=metrics[j].copy(), where=z[..., col] > 0)
            ok = metrics[0] >= self.c[0]
            for m, c in zip(metrics[1:], self.c[1:]):
                ok &= m >= c
        return ok


def _trial_bytes(mac: Mac, n: int, m1: int, m2: int, k: int) -> int:
    """Charge of one ensemble trial against the block budget.

    The formula prices float64 uniforms, byte symbols and one-hot operands
    that a trial no longer holds, so it overstates the planes' working set.
    It is kept because it fixes the trials per block, and so the measured
    peak memory: a charge from the real working set would grow the blocks
    and their peaks.
    """
    a1, a2, ny = mac.x1_size, mac.x2_size, mac.y_size
    draw = k * n * (8 * max(m1, m2) + m1 + m2)
    onehot = 5 * k * n * (m1 * a1 * (1 + ny) + m2 * a2)
    counts = 12 * k * m1 * m2 * a1 * a2 * (1 + ny)
    return draw + onehot + counts


def _ensemble_words(rng, b, m1c, m2c, k, n, samplers, fac):
    """Fresh facilitated codebooks for b trials.

    Returns the planes x1 (W, A1-1, B, M1, M2), x2 (W, A2-1, B, M1, M2) of the
    words k = e(m1, m2) of every message pair, their pair counts
    (A1, A2, B, M1, M2) and their type check (None in iid mode; it holds
    exactly where some k matched the type target).
    """
    p1 = samplers[0](rng, (b, k, m1c))  # (W, A1-1, B, K, M1)
    p2 = samplers[1](rng, (b, k, m2c))
    q1 = p1.transpose(0, 1, 2, 4, 3)[:, :, :, :, None]  # (W, A1-1, B, M1, 1, K)
    q2 = p2.transpose(0, 1, 2, 4, 3)[:, :, :, None]  # (W, A2-1, B, 1, M2, K)
    e, unmatched = fac.choose(_pair_counts(q1, q2, n).reshape(-1, b, m1c, m2c, k), rng)
    # one take over the flattened (B, K, M) axis: the fancy index p[:, :, b, e, m]
    # picks the same words at several times the cost
    be = np.arange(b)[:, None, None] * k + e
    x1 = np.take(p1.reshape(p1.shape[:2] + (-1,)), be * m1c + np.arange(m1c)[:, None], axis=2)
    x2 = np.take(p2.reshape(p2.shape[:2] + (-1,)), be * m2c + np.arange(m2c), axis=2)
    return x1, x2, _pair_counts(x1, x2, n), None if unmatched is None else ~unmatched


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


def _run_trials(
    config: SimConfig, family: int, trial_bytes: int, words, channel, dec
) -> SimReport:
    """The trial loop of both error estimates (see "Fixed codes" above).

    ``words(rng, b)`` gives the planes x1 (W, A1-1, B or 1, M1, M2) and x2 of
    the facilitated words of every message pair of b trials, their pair counts
    (A1, A2, B or 1, M1, M2) and their type check (or None).
    """
    if config.trials < 1:
        raise ValueError("trials must be at least 1")
    m1c, m2c = config.m1_count, config.m2_count
    cells, columns = dec.weights.shape
    chunk = max(1, _BLOCK_BYTES // (16 * m1c * m2c * (10 * cells + 8 * columns)))
    errors = 0
    tally = {"threshold_miss": 0, "impostor_pass": 0, "ambiguity": 0, "type_miss": 0}
    for rng, b in _blocks(config.seed, family, config.trials, trial_bytes):
        x1, x2, pairs, in_type = words(rng, b)
        x1, x2, pairs = (np.broadcast_to(a, a.shape[:2] + (b, m1c, m2c)) for a in (x1, x2, pairs))
        msg1 = rng.integers(0, m1c, size=b)
        msg2 = rng.integers(0, m2c, size=b)
        bb = np.arange(b)
        py = channel(rng, x1[:, :, bb, msg1, msg2], x2[:, :, bb, msg1, msg2])
        chunks = [
            (x1[:, :, s], x2[:, :, s], py[:, :, s, None, None], pairs[:, :, s])
            for s in (slice(start, start + chunk) for start in range(0, b, chunk))
        ]
        del x1, x2, pairs, py  # so the last chunk's counts free the block's words
        passes = [dec.decide(_triple_counts(*chunks.pop(0))) for _ in range(len(chunks))]
        errors += _tally_block(tally, np.concatenate(passes), in_type, msg1, msg2)
    return SimReport(
        trials=config.trials,
        errors=errors,
        p_hat=errors / config.trials,
        ci95=_clopper_pearson(errors, config.trials),
        decomposition=tally,
        seed=config.seed,
    )


@dataclass(frozen=True)
class _FixedCode:
    """One fixed code, prepared once for many received words.

    Holds the decoder, the planes p1, p2 (W, A-1, 1, M1, M2) of the facilitated
    words of every message pair, their pair counts (A1, A2, 1, M1, M2) and, in
    type mode, their type check (else None).
    """

    dec: _Decoder
    p1: np.ndarray
    p2: np.ndarray
    pairs: np.ndarray
    in_type: np.ndarray | None


def _fixed_code(
    codebooks: Codebooks, e_table: FacilitatorTable, mac: Mac, dist: InputDist,
    th: DecoderThresholds,
) -> _FixedCode:
    """The prepared code of codebooks, facilitator table and thresholds."""
    _check_codebooks(codebooks, mac)
    if e_table.mode != codebooks.mode:
        raise ModeMismatch(
            f"facilitator table mode {e_table.mode!r} does not match codebook mode "
            f"{codebooks.mode!r}"
        )
    e, (m1, k), m2 = e_table.e, codebooks.f1.shape[:2], len(codebooks.f2)
    if e.shape != (m1, m2) or e.min() < 0 or e.max() >= k:
        raise SizeMismatch(
            f"facilitator table of shape {e.shape} with entries in [{e.min()}, {e.max()}] "
            f"does not fit codebooks of (M1, M2) = {(m1, m2)} and K = {k}"
        )
    _, target = _construction(dist, codebooks.n, codebooks.mode)
    dec = _Decoder.build(mac, dist, th)
    p1 = _planes(codebooks.f1[np.arange(m1)[:, None], e][None], mac.x1_size)
    p2 = _planes(codebooks.f2[np.arange(m2)[None, :], e][None], mac.x2_size)
    pairs = _pair_counts(p1, p2, codebooks.n)
    in_type = None if target is None else _in_type(pairs.reshape(len(target), m1, m2), target)
    return _FixedCode(dec, p1, p2, pairs, in_type)


def _value_key(*arrays) -> tuple:
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, arrays))


def _fixed_code_key(codebooks, e_table, mac, dist, th) -> tuple:
    """Everything a prepared code is built from, by value: an array changed in
    place gives another key, where its ``id`` would not."""
    return (
        _value_key(codebooks.f1, codebooks.f2, e_table.e, mac.kernel),
        codebooks.mode,
        e_table.mode,
        th,
        type(dist),
        _value_key(*(getattr(dist, f.name) for f in fields(dist))),
    )


# threshold_decode's memo, (key, prepared code) in one assignment.  One slot,
# so a process holds at most one code's set-up; a caller alternating two
# codes pays a set-up at every switch.
_decode_slot: tuple = ((), None)


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
    n, m1_count, m2_count, k = (
        _size(name, value)
        for name, value in (("n", n), ("m1_count", m1_count), ("m2_count", m2_count), ("k", k))
    )
    samplers, _ = _construction(dist, n, mode)
    rng = _stream(seed, _CODEBOOK, 0)
    f1 = _symbols(samplers[0](rng, (m1_count, k)), n)
    f2 = _symbols(samplers[1](rng, (m2_count, k)), n)
    return Codebooks(f1=f1, f2=f2, mode=mode, seed=_integer(seed))


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
    _check_codebooks(codebooks, mac)
    _, fac = _ensemble(mac, dist, codebooks.n, mode)
    p1 = _planes(codebooks.f1[None, :, None], mac.x1_size)  # (W, A1-1, 1, M1, 1, K)
    p2 = _planes(codebooks.f2[None, None], mac.x2_size)  # (W, A2-1, 1, 1, M2, K)
    counts = _pair_counts(p1, p2, codebooks.n)  # (A1, A2, 1, M1, M2, K)
    e, unmatched = fac.choose(
        counts.reshape(-1, *counts.shape[2:]), _stream(seed, _FACILITATOR, 0)
    )
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
    """Decode one received word; returns ((m1, m2), 'decoded') or (None, reason).

    The code's set-up is kept for the next call with the same values.  A
    facilitator table of another mode than the codebooks' raises ``ModeMismatch``.
    """
    global _decode_slot
    key = _fixed_code_key(codebooks, e_table, mac, dist, thresholds)
    slot_key, code = _decode_slot
    if slot_key != key:
        code = _fixed_code(codebooks, e_table, mac, dist, thresholds)
        _decode_slot = key, code
    y = np.asarray(y_word)
    if y.shape != (codebooks.n,) or not np.all((y >= 0) & (y < mac.y_size) & (np.floor(y) == y)):
        raise SizeMismatch(f"received word must hold {codebooks.n} integers in [0, {mac.y_size})")
    py = _planes(y.astype(np.uint8)[None], mac.y_size)  # (W, Y-1, 1)
    passes = code.dec.decide(_triple_counts(code.p1, code.p2, py[..., None, None], code.pairs))[0]
    if code.in_type is not None:
        passes &= code.in_type
    hits = np.argwhere(passes)
    if len(hits) == 1:
        return (int(hits[0][0]), int(hits[0][1])), "decoded"
    return None, ("none-pass" if len(hits) == 0 else "multiple-pass")


# ---------------------------------------------------------------------------
# ensemble simulation


def estimate_error(config: SimConfig) -> SimReport:
    """Ensemble-average error probability with fresh codebooks every trial."""
    mac, dist = config.mac, config.dist
    n, m1c, m2c, k = config.n, config.m1_count, config.m2_count, config.k
    samplers, fac = _ensemble(mac, dist, n, config.mode)
    words = partial(_ensemble_words, m1c=m1c, m2c=m2c, k=k, n=n, samplers=samplers, fac=fac)
    dec = _Decoder.build(mac, dist, config.resolved_thresholds())
    trial_bytes = _trial_bytes(mac, n, m1c, m2c, k)
    return _run_trials(config, _ENSEMBLE, trial_bytes, words, _channel(mac.kernel, n), dec)


# ---------------------------------------------------------------------------
# finite-blocklength bound


def _bound_sample_bytes(mac: Mac, k: int, groups: int) -> int:
    """Working set of one bound sample.

    With ``groups`` > 1 score groups (iid mode, see ``_score_groups``) a sample
    holds its K group totals, their float copy and the facilitator's per-k
    values; with one group, or none (type mode), it holds nothing per k.
    Every sample also holds the chosen pair's cell and output counts with
    their copies.
    """
    cells = mac.x1_size * mac.x2_size
    per_k = 8 * k * (2 * groups + 3) if groups > 1 else 0
    return per_k + 32 * cells * (mac.y_size + 1)


def _score_groups(i_bar) -> list[np.ndarray]:
    """The cells (A1*A2,) whose ``i_bar`` values are exactly equal, one index
    array per group, ordered by first cell; none in type mode (``i_bar`` None).

    A score N_k . i_bar is the group totals times the groups' values, so the
    facilitator's choice depends on the totals alone.
    """
    if i_bar is None:
        return []
    _, first, label = np.unique(i_bar, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    label = rank[label.ravel()]  # groups numbered in first-cell order
    cells = np.argsort(label, kind="stable")
    return np.split(cells, np.cumsum(np.bincount(label))[:-1])


def _log_miss_rate(t12) -> float:
    """ln(-ln(1 - q)), where q is the probability that two independent uniform
    words with the marginal types of the joint type counts ``t12`` (A1, A2)
    have joint type t12: q = prod t1! prod t2! / (n! prod t12!).

    Then (1 - q)^K = exp(-exp(ln K + this)), for any K.  When q is below 2^-60
    this is ln q, within an ulp; when only one joint type has these marginals
    (q = 1), it is +inf.
    """
    t12 = np.asarray(t12)
    t1, t2 = t12.sum(axis=1), t12.sum(axis=0)
    if min(np.count_nonzero(t1), np.count_nonzero(t2)) < 2:
        return math.inf
    log_q = float(
        gammaln(t1 + 1).sum() + gammaln(t2 + 1).sum()
        - gammaln(t12.sum() + 1) - gammaln(t12 + 1).sum()
    )
    q = math.exp(log_q)
    # q < 1 here; rounding must not take it to 1, where log1p(-q) is -inf
    return log_q if q < 2**-60 else math.log(-math.log1p(-min(q, 1.0 - 2**-53)))


def _unmatched_probability(t12, k: int) -> float:
    """(1 - q)^K: none of K independent word pairs of uniform type-class words
    has the joint type ``t12``; see ``_log_miss_rate``."""
    # past e^709 the inner exp would overflow; the probability is 0.0 from there on
    return math.exp(-math.exp(min(math.log(k) + _log_miss_rate(t12), 709.0)))


def _pooled_scores(dist: InputDist, fac: _Facilitator, groups, n: int, k: int):
    """iid mode's sampler (rng, B) -> the chosen pairs' counts (B, A1*A2).

    It draws the K pairs' totals T_k over the score ``groups``, multinomial(n,
    p_g) for all K; the facilitator's tie rule picks e from the scores T_k . v;
    then only T_e is split into cells, multinomial(T_g, p_c / p_g) per group
    of p_g > 0.  This is exact, because the choice depends on the totals
    alone.  A one-cell group's split draws nothing, since NumPy's multinomial
    takes no variate for one category.  With one group every score ties and
    e = 0, so nothing is drawn per k; when every cell is its own group the
    draws are version 5's.
    """
    p12 = np.outer(dist.p1, dist.p2).ravel()
    p12 /= p12.sum()
    score = _Facilitator(fac.i_bar[[g[0] for g in groups]], fac.tol, None)
    p_group = np.array([p12[g].sum() for g in groups])
    # a group of probability 0 always totals 0: its cells keep their zeros
    pooled = [(g, c) for g, c in enumerate(groups) if p_group[g] > 0]

    def sent_counts(rng, b):
        if len(groups) == 1:
            totals = np.full((b, 1), n, dtype=np.int64)
        else:
            totals = rng.multinomial(n, p_group, size=(b, k))
            e, _ = score.choose(np.moveaxis(totals, -1, 0)[:, :, None, None])
            totals = totals[np.arange(b), e[:, 0, 0]]
        sent = np.zeros((b, len(p12)), dtype=np.int64)
        for g, cells in pooled:
            sent[:, cells] = rng.multinomial(totals[:, g], p12[cells] / p_group[g])
        return sent

    return sent_counts


def _bound_terms(config: SimConfig, th: DecoderThresholds, mc_samples: int, seed: int):
    """Monte Carlo term of the bound, (threshold fails, p_unmatched): the fails
    among ``mc_samples`` samples of the chosen pair, and the exact probability
    that no pair matches the target type, (1 - q)^K in type mode
    (``_unmatched_probability``), 0.0 in iid mode.

    With M1 = M2 = 1 a sample depends on its codewords and received word only
    through counts, and the facilitator reads fewer still, so a sample draws
    only what it reads, each from its exact law, then the chosen pair's
    outputs, multinomial(N_e[a1, a2], W[a1, a2]) per cell.  In iid mode
    ``_pooled_scores`` draws the chosen pair's table N_e.  In type mode a
    sample is a matched one: its pair has the target table t12, the only
    table whose fails the bound needs, since an unmatched sample's error is
    paid by p_unmatched; it draws the outputs alone.  A sample costs
    O(K*G + A1*A2*Y) with G > 1 score groups, else O(A1*A2*(1 + Y)), whatever
    n.  Raises ``ValueError`` when one sample's K group totals do not fit the
    block budget.
    """
    mac, dist, n, k = config.mac, config.dist, config.n, config.k
    a1, a2, ny = mac.x1_size, mac.x2_size, mac.y_size
    _, fac = _ensemble(mac, dist, n, config.mode)
    # the thresholds are tested alone: a type miss is paid by p_unmatched
    dec = _Decoder.build(mac, dist, th)
    # laws sum to 1 within the inputs' tolerance (1e-9), multinomial's is 1e-12
    kernel = mac.kernel.reshape(a1 * a2, ny)
    kernel = kernel / kernel.sum(axis=-1, keepdims=True)
    groups = _score_groups(fac.i_bar)
    sample_bytes = _bound_sample_bytes(mac, k, len(groups))
    if sample_bytes > _BLOCK_BYTES:
        raise ValueError(
            f"a bound sample's K = {k} totals of {len(groups)} score groups take "
            f"{sample_bytes} bytes, over the {_BLOCK_BYTES}-byte block budget"
        )
    p_unmatched = 0.0
    if fac.target is None:
        sent_counts = _pooled_scores(dist, fac, groups, n, k)
    else:
        p_unmatched = _unmatched_probability(fac.target.reshape(a1, a2), k)
        sent_counts = lambda rng, b: np.tile(fac.target, (b, 1))

    fails = 0
    for rng, b in _blocks(seed, _BOUND, mc_samples, sample_bytes):
        outputs = rng.multinomial(sent_counts(rng, b), kernel).reshape(b, a1, a2, ny)
        fails += int((~dec.decide(outputs.transpose(1, 3, 2, 0))).sum())
    return fails, p_unmatched


def _union(config: SimConfig, th: DecoderThresholds) -> float:
    """The impostor union terms, times (n + 1)^(A1*A2) type classes in type mode.

    Summed from logarithms: with the default thresholds each term is about
    n^(-1/2), while the class count alone overflows a float at large n.
    """
    pairs, classes = _counting(config.mac, config.m1_count, config.m2_count, config.k, config.mode)
    log_classes = classes * math.log(config.n + 1)  # iid: exactly 0.0
    nats_per_unit = _nats_per_unit(th.units)
    logs = np.array([
        math.log(pairs) - th.c12 * nats_per_unit,
        math.log(config.m1_count) - th.c1 * nats_per_unit,
        math.log(config.m2_count) - th.c2 * nats_per_unit,
    ])
    with np.errstate(over="ignore"):  # a term past the float range is an infinite bound
        return float(np.exp(logs + log_classes).sum())


def fbl_bound(config: SimConfig, mc_samples: int = 100_000, seed: int | None = None) -> float:
    """Upper bound on the ensemble-average error probability of ``config``'s decoder.

    The bound is (1 - p_u) * fail rate + union + p_u.  p_u, the probability
    (1 - q)^K that no codeword pair has the target joint type, is exact, and
    exactly 0.0 in iid mode; so are the impostor union terms.  The fail rate,
    the probability that the facilitated pair's density vector misses the
    thresholds (in type mode, given that it has the target type), is
    estimated by Monte Carlo, as the upper endpoint of its 99% confidence
    interval, keeping the bound valid with high confidence.  The
    ``mc_samples`` samples are drawn from the exact laws of the counts the
    facilitator and decoder read, so their cost grows neither with the
    blocklength n nor, in type mode or with one score group, with K; ``seed``
    (by default the config's) keys their stream.
    """
    mc_samples = _integer(mc_samples)
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be at least 1, got {mc_samples}")
    th = config.resolved_thresholds()
    th.require_finite()
    if seed is None:
        seed = config.seed

    fails, p_unmatched = _bound_terms(config, th, mc_samples, seed)
    fail_rate = _clopper_pearson(fails, mc_samples, 0.01)[1]
    return (1.0 - p_unmatched) * fail_rate + _union(config, th) + p_unmatched


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
    mac, n, m1c, m2c = config.mac, config.n, config.m1_count, config.m2_count
    _check_codebooks(codebooks, mac)  # before their sizes are read
    code = (codebooks.n, *e_table.e.shape)
    if (n, m1c, m2c) != code:
        raise SizeMismatch(f"config (n, M1, M2) = {(n, m1c, m2c)} does not match the code's {code}")
    k = codebooks.f1.shape[1]
    if config.k != k:
        raise SizeMismatch(f"config K = {config.k} does not match the code's K = {k}")
    if config.mode != codebooks.mode:
        raise ModeMismatch(
            f"config mode {config.mode!r} does not match codebook mode {codebooks.mode!r}"
        )
    code = _fixed_code(codebooks, e_table, mac, config.dist, config.resolved_thresholds())
    # a trial's received word one-hot and its metrics in float64: more than
    # the planes take, kept because it fixes the trials per block, and so the
    # measured peak memory
    trial_bytes = 8 * (mac.y_size * n + m1c * m2c * code.dec.weights.shape[1]) + 16 * n
    return _run_trials(
        config, _FIXED_CODE, trial_bytes,
        lambda rng, b: (code.p1, code.p2, code.pairs, code.in_type),
        _channel(mac.kernel, n), code.dec,
    )


def simulate_with_bound(config: SimConfig, mc_samples: int = 100_000) -> SimReport:
    """estimate_error plus the finite-blocklength bound in one report."""
    bound = fbl_bound(config, mc_samples=mc_samples)  # first: a bad sample count fails fast
    return replace(estimate_error(config), fbl_bound=bound)


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
        "dist": dump_dist(config.dist),
    }
    if config.thresholds is not None:
        th = config.thresholds
        out["thresholds"] = {"c12": th.c12, "c1": th.c1, "c2": th.c2}
    return out


def _thresholds_record(td, units: str) -> DecoderThresholds:
    """c12, c1 and c2; other fields (such as an old ``type_constraint``) are ignored."""
    if not isinstance(td, dict):
        raise TypeError(f"expected an object, got {type(td).__name__}")
    return DecoderThresholds(
        c12=_field(td, "c12", float),
        c1=_field(td, "c1", float),
        c2=_field(td, "c2", float),
        units=units,
    )


def _channel_record(chan) -> Mac:
    return named_channel(chan) if isinstance(chan, str) else load_channel(chan)


def sim_config_from_dict(doc: dict) -> SimConfig:
    with _parsing("simulation config", doc):
        mac = _field(doc, "channel", _channel_record)
        units = doc.get("units", "bits")
        return SimConfig(
            mac=mac,
            dist=load_dist(doc["dist"]),
            n=_field(doc, "n", _integer),
            m1_count=_field(doc, "m1_count", _integer),
            m2_count=_field(doc, "m2_count", _integer),
            k=_field(doc, "k", _integer),
            mode=doc.get("mode", IID),
            thresholds=_field(doc, "thresholds", partial(_thresholds_record, units=units), None),
            trials=_field(doc, "trials", _integer, 10_000),
            seed=_field(doc, "seed", _integer, 0),
            units=units,
        )
