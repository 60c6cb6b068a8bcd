"""Gather-based reference for the simulator's joint-count kernel.

Computes the facilitator choice, the type checks and the three decoding
metrics the direct way: index the density tables with the codeword symbols
over (B, M1, M2, K, n) and sum along the blocklength.  Memory grows with
B*M1*M2*K*n, so it serves only small cases; the tests compare the kernel in
``cfmac.code_sim`` against it.
"""
import numpy as np

from cfmac.channel import info_density_tables
from cfmac.code_sim import _TIE_ULPS_PER_CELL


def decode_tables(mac, dist, units):
    """d12, d1, d2 indexed [x1, x2, y]; kernel zeros are -inf (zero likelihood)."""
    t = info_density_tables(mac, dist, units=units)
    neg = np.where(mac.kernel > 0, 0.0, -np.inf)
    return t.i_joint + neg, t.i_1 + neg, t.i_2 + neg


def pair_scores(i_bar, f1, f2):
    """f1 (B, M1, K, n), f2 (B, M2, K, n) -> scores (B, M1, M2, K)."""
    return i_bar[f1[:, :, None], f2[:, None, :]].sum(axis=-1)


def score_argmax(i_bar, f1, f2):
    """Smallest k whose score is within the tie tolerance of the best."""
    scores = pair_scores(i_bar, f1, f2)
    tol = _TIE_ULPS_PER_CELL * i_bar.size * np.spacing(f1.shape[-1] * np.abs(i_bar).max())
    return (scores >= scores.max(axis=-1, keepdims=True) - tol).argmax(axis=-1)


def joint_type_match(f1, f2, target):
    """Whether each (B, M1, M2, K) pair has joint-type counts ``target`` (A1, A2)."""
    x1 = f1[:, :, None].astype(np.int64)
    x2 = f2[:, None, :].astype(np.int64)
    match = np.ones(np.broadcast_shapes(x1.shape, x2.shape)[:-1], dtype=bool)
    for a1 in range(target.shape[0]):
        for a2 in range(target.shape[1]):
            match &= ((x1 == a1) & (x2 == a2)).sum(axis=-1) == target[a1, a2]
    return match


def selected_words(f1, f2, e):
    """Facilitated words x1, x2 (B, M1, M2, n) for the choice e (B, M1, M2)."""
    b, m1 = f1.shape[:2]
    m2 = f2.shape[1]
    bb = np.arange(b)[:, None, None]
    x1 = f1[bb, np.arange(m1)[None, :, None], e]
    x2 = f2[bb, np.arange(m2)[None, None, :], e]
    return x1, x2


def decode_metrics(tables, x1, x2, y):
    """Metrics (d12, d1, d2 sums), each (B, M1, M2), of received words y (B, n)."""
    yy = y[:, None, None, :]
    return tuple(d[x1, x2, yy].sum(axis=-1) for d in tables)
