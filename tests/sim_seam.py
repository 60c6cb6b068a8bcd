"""The one seam between the simulator's private bit-plane layout and its tests.

Each function takes symbol-space inputs (uint8 words (..., n), a kernel or a
law, a mode, a generator) and returns symbol-space outputs: sampled and
received words, pair counts N and triple counts D (cells first), the
facilitator's choices and a law's threshold bits.  The planes that a sampler
or the channel returns must be exactly their words' planes: one symbol per
position, nothing past n.  A change of the layout edits this module alone.
"""
import math
from types import SimpleNamespace

import numpy as np

from cfmac import code_sim
from cfmac.channel import ProductDist


class ConstantRng:
    """Stub generator whose every b-bit U equals ``u``: raw plane j is all ones
    where bit j of u is set, else all zeros."""

    def __init__(self, u, b):
        self.bit_generator = self
        self.u, self.b = u, b

    def random_raw(self, size):
        bits = [(self.u >> j & 1) * (2**64 - 1) for j in range(self.b)]
        return np.repeat(np.array(bits, dtype=np.uint64), size // self.b)


class PositionRng:
    """Stub generator for one word whose b-bit U reads values[i] at position i."""

    def __init__(self, values, b):
        self.bit_generator = self
        bits = (np.asarray(values)[None] >> np.arange(b)[:, None] & 1).astype(bool)  # (b, n)
        bits = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 64)))
        self.raw = np.packbits(bits, axis=-1, bitorder="little").view("<u8").ravel()

    def random_raw(self, size):
        assert size == len(self.raw)  # b planes of one word's plane words
        return self.raw


def uniforms(rng, b, n, lead):
    """The b-bit uniforms U (*lead, n) that a draw of words (*lead, n) reads from ``rng``."""
    raw = rng.bit_generator.random_raw(b * -(-n // 64) * math.prod(lead)).reshape(b, -1, *lead)
    rows = np.ascontiguousarray(np.moveaxis(raw, (0, 1), (-2, -1)), dtype="<u8")
    bits = np.unpackbits(rows.view(np.uint8), axis=-1, count=n, bitorder="little")
    return sum(bits[..., j, :].astype(np.uint64) << np.uint64(j) for j in range(b))


def thresholds(p):
    """(b, t): the threshold bits of a law p (A,) or a table (..., A), and its
    compared sums as b-bit integers t (..., A-1)."""
    return code_sim._thresholds(np.cumsum(p, axis=-1))


def _words(planes, n, size):
    """The uint8 words (*lead, n) of planes that must be exactly their words' planes."""
    words = code_sim._symbols(planes, n)
    want = code_sim._planes(words, size)
    assert planes.dtype == want.dtype and np.array_equal(planes, want)
    return words


def round_trip(words, size):
    """Words (..., n) of symbols in [0, size), read back from their planes."""
    return _words(code_sim._planes(words, size), words.shape[-1], size)


def sampled_words(dist, n, mode, rng, lead, user=1):
    """User ``user``'s codewords (*lead, n) of the construction ``mode``, drawn from ``rng``."""
    sampler = code_sim._construction(dist, n, mode)[0][user - 1]
    return _words(sampler(rng, lead), n, len(dist.p1 if user == 1 else dist.p2))


def iid_words(p, n, rng, lead=()):
    """i.i.d. codewords (*lead, n) of the input law ``p``."""
    dist = ProductDist(np.asarray(p, dtype=float), np.array([0.5, 0.5]))
    return sampled_words(dist, n, "iid", rng, lead)


def received(kernel, w1, w2, rng):
    """The channel's received words (*S, n) of sent words w1, w2 (*S, n), drawn from ``rng``."""
    (a1, a2, ny), n = np.shape(kernel), w1.shape[-1]
    channel = code_sim._channel(np.asarray(kernel), n)
    return _words(channel(rng, code_sim._planes(w1, a1), code_sim._planes(w2, a2)), n, ny)


def pair_counts(w1, w2, a1, a2):
    """Pair counts N (A1*A2, *S), cells first, of words w1 (*S1, n) of symbols in
    [0, A1) and w2 (*S2, n) in [0, A2), where S1 and S2 of as many axes broadcast to S."""
    counts = code_sim._pair_counts(code_sim._planes(w1, a1), code_sim._planes(w2, a2), w1.shape[-1])
    return counts.reshape(-1, *counts.shape[2:])


def triple_counts(w1, w2, y, a1, ny, a2):
    """Counts D (A1*Y*A2, *S), cells first, of (x1, y, x2) in words w1, w2 and
    received words y, (..., n) each, whose shapes of as many axes broadcast to S."""
    p1, p2 = code_sim._planes(w1, a1), code_sim._planes(w2, a2)
    pairs = code_sim._pair_counts(p1, p2, w1.shape[-1])
    d = code_sim._triple_counts(p1, p2, code_sim._planes(y, ny), pairs)
    return d.reshape(-1, *d.shape[3:])


def facilitator(mac, dist, n, mode):
    """The facilitator of the construction ``mode``; see ``choose``."""
    return code_sim._ensemble(mac, dist, n, mode)[1]


def choose(fac, counts, rng=None):
    """The facilitator's e (..., M1, M2) and type-mode unmatched (or None) from
    pair counts (A1*A2, ..., M1, M2, K), cells first, drawing from ``rng``."""
    return fac.choose(counts, rng)


def ensemble_counts(f1, f2, y, a1, ny, a2, choice, rng=None):
    """The counts of codebooks f1 (B, M1, K, n), f2 (B, M2, K, n) on the ensemble's own path.

    Returns the pair counts N (A1*A2, B, M1, M2, K), cells first, that its
    facilitator reads; e (B, M1, M2) and unmatched (or None) of ``choice``, a
    facilitator drawing from ``rng`` or a fixed e; and the counts D (B, M1, M2,
    A1*Y*A2) of (x1, y, x2) in the chosen words and received words y (B, n).
    """
    (b, m1, k, n), m2 = f1.shape, f2.shape[1]
    planes = iter([code_sim._planes(np.swapaxes(f, 1, 2), a) for f, a in ((f1, a1), (f2, a2))])
    seen = []

    def read(counts, rng):
        fixed = isinstance(choice, np.ndarray)
        seen[:] = counts, *((choice, None) if fixed else choose(choice, counts, rng))
        return seen[1:]

    x1, x2, pairs, _ = code_sim._ensemble_words(
        rng, b, m1, m2, k, n, [lambda rng, lead: next(planes)] * 2, SimpleNamespace(choose=read)
    )
    d = code_sim._triple_counts(x1, x2, code_sim._planes(y, ny)[..., None, None], pairs)
    return (*seen, np.moveaxis(d.reshape(-1, b, m1, m2), 0, -1))
