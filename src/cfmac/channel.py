"""Discrete memoryless MAC model, information densities, and the sum-capacity solver.

All internal computation is in nats, every solver comparison, tolerance and
start included; public containers carry a units flag (default bits), read
only where an input is converted to nats or a public record is built.

The sum-capacity is one mutual-information core: ``_mi_nats`` gives the
value and ``_letter_div_nats`` the letter divergences D(W_x || p_Y), from
which ``_dbar_nats`` forms the gradient over each input.  ``sum_capacity``
runs SLSQP on them from a fixed seed grid and certifies the result by the
SLSQP status and the KKT residual; a kernel whose rows are all one law has
capacity exactly 0.  Every SLSQP run of the package, here and in
``delta_curve``, goes through ``_slsqp``, its one call of SciPy's optimizer.
``delta_curve`` uses the same core, and its joint Blahut-Arimoto start takes
its multiplicative step from ``_letter_div_nats`` itself.

A solver step evaluates the core once: ``_mi_and_div_nats`` builds the
output law p_Y of its input law once and takes both the value and the letter
divergences from it, with the same operations as ``_mi_nats`` and
``_letter_div_nats``, so its floats are theirs bit for bit.  The conditional
entropy's kernel term xlogy(W, W) is a per-kernel constant: ``Mac`` computes
it once, as the read-only array ``_w_log_w``, and the core takes it from
there.
"""
from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import rel_entr, xlogy

from .errors import NegativeEntry, NonConvergence, RowNotStochastic, SizeMismatch

LN2 = float(np.log(2.0))

_ROW_TOL = 1e-9
# sum_capacity keeps the starts within _CAPACITY_TOL nats of the best value
_CAPACITY_TOL = 1e-7
# largest KKT residual, in nats, that sum_capacity certifies
_KKT_TOL = 1e-6


# Units: every conversion goes through these helpers, which reject unknown names.


def _is_bits(units: str) -> bool:
    if units not in ("bits", "nats"):
        raise ValueError(f"unknown units {units!r}")
    return units == "bits"


def _nats_per_unit(units: str) -> float:
    """Multiplier converting the requested units to nats."""
    return LN2 if _is_bits(units) else 1.0


def _unit_scale(units: str) -> float:
    """Multiplier converting nats to the requested units."""
    return 1.0 / _nats_per_unit(units)


def _log_units(x: float, units: str) -> float:
    """log x in the requested units; log2 for bits, which log(x) / LN2 misses by an ulp."""
    return math.log2(x) if _is_bits(units) else math.log(x)


@dataclass(frozen=True)
class Mac:
    """Finite-alphabet MAC with transition kernel indexed [x1][x2][y]."""

    kernel: np.ndarray

    def __post_init__(self):
        kernel = np.array(self.kernel, dtype=float)  # a copy: the caller's array stays writable
        if kernel.ndim != 3:
            raise SizeMismatch(f"kernel must be 3-dimensional, got shape {kernel.shape}")
        if kernel.size == 0:
            raise SizeMismatch("alphabet sizes must be at least 1")
        _check_entries(kernel, "kernel")
        rows = kernel.sum(axis=2)
        bad = np.abs(rows - 1.0) > _ROW_TOL
        if np.any(bad):
            x1, x2 = np.argwhere(bad)[0]
            raise RowNotStochastic(
                f"kernel row (x1={x1}, x2={x2}) sums to {rows[x1, x2]:.12g}"
            )
        kernel.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)
        # the kernel term of H(Y | X1, X2), which every MI evaluation reads;
        # an attribute, not a field, so it stays out of init, repr and eq
        w_log_w = xlogy(kernel, kernel)
        w_log_w.setflags(write=False)
        object.__setattr__(self, "_w_log_w", w_log_w)

    @property
    def x1_size(self) -> int:
        return self.kernel.shape[0]

    @property
    def x2_size(self) -> int:
        return self.kernel.shape[1]

    @property
    def y_size(self) -> int:
        return self.kernel.shape[2]


def _check_entries(p: np.ndarray, name: str) -> None:
    """Name the first entry that is negative or not finite; ``p < 0`` alone lets NaN through."""
    bad = (p < 0) | ~np.isfinite(p)
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NegativeEntry(
            f"{name} entry {idx} is {float(p[idx])}, not a finite nonnegative probability"
        )


def _check_prob(p: np.ndarray, name: str) -> np.ndarray:
    p = np.array(p, dtype=float)  # a copy: the caller's array stays writable
    # quick check: a NaN minimum fails the comparison, and a finite sum of
    # nonnegative entries has no infinite one; the entry search names the culprit
    total = p.sum() if p.size and p.min() >= 0.0 else math.nan
    if not math.isfinite(total):
        _check_entries(p, name)
        total = p.sum()
    if abs(total - 1.0) > _ROW_TOL:
        raise RowNotStochastic(f"{name} sums to {total:.12g}")
    p.setflags(write=False)
    return p


@dataclass(frozen=True)
class ProductDist:
    """Independent input distribution p1(x1) * p2(x2)."""

    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_prob(self.p1, "p1"))
        object.__setattr__(self, "p2", _check_prob(self.p2, "p2"))

    def joint(self) -> np.ndarray:
        return self.p1[:, None] * self.p2


@dataclass(frozen=True)
class JointDist:
    """Joint input distribution p12(x1, x2)."""

    p12: np.ndarray

    def __post_init__(self):
        p12 = np.asarray(self.p12, dtype=float)
        if p12.ndim != 2:
            raise SizeMismatch(f"p12 must be a matrix, got shape {p12.shape}")
        object.__setattr__(self, "p12", _check_prob(p12, "p12"))

    def joint(self) -> np.ndarray:
        return self.p12

    @property
    def p1(self) -> np.ndarray:
        return self.p12.sum(axis=1)

    @property
    def p2(self) -> np.ndarray:
        return self.p12.sum(axis=0)


InputDist = ProductDist | JointDist


@dataclass(frozen=True)
class InfoDensityTable:
    """Tabulated information densities for a fixed MAC and input distribution.

    ``i_joint[x1, x2, y]`` compares the kernel to the output marginal,
    ``i_1``/``i_2`` condition on the other user's symbol, and ``i_bar[x1, x2]``
    is the per-pair expected density (a divergence).  Entries at kernel zeros
    are -inf in all three tables.  An entry with a positive kernel but a zero
    reference marginal (its input pair has probability zero, or the marginal
    underflows) is +inf and adds nothing to ``i_bar``.
    """

    i_joint: np.ndarray
    i_1: np.ndarray
    i_2: np.ndarray
    i_bar: np.ndarray
    p_y: np.ndarray
    units: str = "bits"


@dataclass(frozen=True)
class ChannelStats:
    mutual_info: float
    v1: float
    v2: float
    v_max: float
    units: str = "bits"


@dataclass(frozen=True)
class CapacityResult:
    """Sum-capacity, its kept maximizers and the largest V1 over them.

    ``iterations`` is the total SLSQP iteration count over the seed-grid
    starts; ``kkt_residual`` is measured at the first maximizer.
    """

    c_sum: float
    argmax_dists: list[ProductDist]
    v1_star: float
    iterations: int
    kkt_residual: float
    units: str = "bits"


# ---------------------------------------------------------------------------
# channel construction


@contextmanager
def _parsing(what: str, spec):
    """Report a record that is not an object, or lacks or mistypes a field, as SizeMismatch."""
    if not isinstance(spec, dict):
        raise SizeMismatch(f"malformed {what}: expected an object, got {type(spec).__name__}")
    try:
        yield
    except KeyError as exc:
        raise SizeMismatch(f"malformed {what}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SizeMismatch(f"malformed {what}: {exc}") from exc


def _field(spec: dict, name: str, convert, *default):
    """``convert(spec[name])``, or ``default`` when the field is absent.

    Meant for use under ``_parsing``: an absent field without a default
    raises KeyError, and a value ``convert`` rejects a ValueError naming the field.
    """
    if default and name not in spec:
        return default[0]
    value = spec[name]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from exc


def _integer(value) -> int:
    """An integral number as an int; booleans and fractional values are errors."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def load_channel(spec: dict) -> Mac:
    """Build and validate a Mac from a parsed channel description record."""
    with _parsing("channel spec", spec):
        x1_size = _field(spec, "x1_size", _integer)
        x2_size = _field(spec, "x2_size", _integer)
        y_size = _field(spec, "y_size", _integer)
        kernel = _field(spec, "kernel", _floats)
    if min(x1_size, x2_size, y_size) < 1:
        raise SizeMismatch("alphabet sizes must be at least 1")
    if kernel.shape != (x1_size, x2_size, y_size):
        raise SizeMismatch(
            f"kernel shape {kernel.shape} does not match declared sizes "
            f"({x1_size}, {x2_size}, {y_size})"
        )
    return Mac(kernel)


def load_dist(spec: dict) -> InputDist:
    """Build and validate an input law from a parsed {"p12"} or {"p1", "p2"} record."""
    with _parsing("distribution spec", spec):
        if "p12" in spec:
            return JointDist(_field(spec, "p12", _floats))
        return ProductDist(_field(spec, "p1", _floats), _field(spec, "p2", _floats))


def dump_dist(d: InputDist) -> dict:
    """The record ``load_dist`` reads back: {"p12"} for a joint law, {"p1", "p2"} otherwise."""
    if isinstance(d, JointDist):
        return {"p12": d.p12.tolist()}
    return {"p1": d.p1.tolist(), "p2": d.p2.tolist()}


def adder2() -> Mac:
    """Noiseless binary adder: Y = X1 + X2 over {0, 1, 2}."""
    kernel = np.zeros((2, 2, 3))
    for x1 in range(2):
        for x2 in range(2):
            kernel[x1, x2, x1 + x2] = 1.0
    return Mac(kernel)


def xor_channel(p: float) -> Mac:
    """Binary XOR with flip probability p: Y = X1 ^ X2 ^ N, N ~ Bern(p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    kernel = np.zeros((2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            y = x1 ^ x2
            kernel[x1, x2, y] = 1.0 - p
            kernel[x1, x2, 1 - y] = p
    return Mac(kernel)


def named_channel(name: str) -> Mac:
    """Resolve the built-in channel names 'adder2' and 'xor:<p>'."""
    if name == "adder2":
        return adder2()
    if name.startswith("xor:"):
        return xor_channel(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown built-in channel {name!r}")


def uniform_product(mac: Mac) -> ProductDist:
    return ProductDist(
        np.full(mac.x1_size, 1.0 / mac.x1_size),
        np.full(mac.x2_size, 1.0 / mac.x2_size),
    )


# ---------------------------------------------------------------------------
# densities and statistics


def _joint(mac: Mac, d: InputDist) -> np.ndarray:
    """The joint input law p12 of ``d``, checked against the MAC's input alphabets."""
    p12 = d.joint()
    if p12.shape != mac.kernel.shape[:2]:
        raise SizeMismatch(
            f"input distribution shape {p12.shape} does not match alphabets {mac.kernel.shape[:2]}"
        )
    return p12


def output_marginal(mac: Mac, d: InputDist) -> np.ndarray:
    """Output distribution p_Y induced by the input distribution."""
    return _output_law(mac.kernel, _joint(mac, d))


def info_density_tables(mac: Mac, d: InputDist, units: str = "bits") -> InfoDensityTable:
    """All three information-density tables plus per-pair expected density."""
    w = mac.kernel
    p12 = _joint(mac, d)
    p_y = _output_law(w, p12)
    p1 = p12.sum(axis=1, keepdims=True)
    p2 = p12.sum(axis=0, keepdims=True)
    positive = w > 0

    # Conditional output marginals p_{Y|X1}, p_{Y|X2} under the joint input
    # law, and every log with log 0 = -inf; a kernel zero's density is -inf
    # whatever its reference marginal.
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_2_given_1 = np.divide(p12, p1, out=np.zeros_like(p12), where=p1 > 0)
        cond_1_given_2 = np.divide(p12, p2, out=np.zeros_like(p12), where=p2 > 0)
        log_w = np.log(w)
        log_py = np.log(p_y)
        log_py1 = np.log(np.einsum("ij,ijy->iy", cond_2_given_1, w))
        log_py2 = np.log(np.einsum("ij,ijy->jy", cond_1_given_2, w))
        i_joint = np.where(positive, log_w - log_py[None, None, :], -np.inf)
        i_1 = np.where(positive, log_w - log_py2[None, :, :], -np.inf)
        i_2 = np.where(positive, log_w - log_py1[:, None, :], -np.inf)

    # 0 * log 0 = 0 convention: only kernel-positive entries enter expectations.
    i_bar = np.where(positive, w * np.where(np.isfinite(i_joint), i_joint, 0.0), 0.0).sum(axis=2)

    scale = _unit_scale(units)
    return InfoDensityTable(
        i_joint=i_joint * scale,
        i_1=i_1 * scale,
        i_2=i_2 * scale,
        i_bar=i_bar * scale,
        p_y=p_y,
        units=units,
    )


def _stats_nats(mac: Mac, d: InputDist) -> tuple[float, float, float, float]:
    """(mutual_info, v1, v2, v_max) in nats for a product or joint input."""
    tables = info_density_tables(mac, d, units="nats")
    p12 = d.joint()
    w = mac.kernel
    i_bar = tables.i_bar
    mutual = float((p12 * i_bar).sum())
    v1 = float((p12 * (i_bar - mutual) ** 2).sum())
    finite_i = np.where(np.isfinite(tables.i_joint), tables.i_joint, 0.0)
    per_pair_var = np.where(w > 0, w * (finite_i - i_bar[:, :, None]) ** 2, 0.0).sum(axis=2)
    v2 = float((p12 * per_pair_var).sum())
    support = p12 > 0
    v_max = float(per_pair_var[support].max()) if support.any() else 0.0
    # Snap solver-noise-level variances to an exact zero so degenerate
    # channels (constant i_bar, deterministic kernels) behave exactly.
    if v1 < 1e-13:
        v1 = 0.0
    if v2 < 1e-13:
        v2 = 0.0
    return mutual, v1, v2, v_max


def channel_stats(mac: Mac, d: InputDist, units: str = "bits") -> ChannelStats:
    """Mutual information and the two dispersion components under ``d``."""
    mutual, v1, v2, v_max = _stats_nats(mac, d)
    s = _unit_scale(units)
    return ChannelStats(
        mutual_info=mutual * s,
        v1=v1 * s * s,
        v2=v2 * s * s,
        v_max=v_max * s * s,
        units=units,
    )


def mutual_information(mac: Mac, d: InputDist, units: str = "bits") -> float:
    """I(X1, X2; Y) under ``d`` as H(Y) - H(Y | X1, X2); builds no density tables."""
    return _mi_nats(mac.kernel, _joint(mac, d), mac._w_log_w) * _unit_scale(units)


# ---------------------------------------------------------------------------
# sum-capacity over product distributions


def _output_law(kernel: np.ndarray, p12: np.ndarray) -> np.ndarray:
    """p_Y under the input law p12, the one formula of every output law in this module."""
    return np.einsum("ij,ijy->y", p12, kernel)


def _mi_at(p12: np.ndarray, p_y: np.ndarray, w_log_w: np.ndarray) -> float:
    """H(Y) - H(Y | X1, X2) in nats from the output law p_Y of p12."""
    h_y = -xlogy(p_y, p_y).sum()
    h_y_given_x = -(p12[..., None] * w_log_w).sum()
    return float(h_y - h_y_given_x)


def _div_at(kernel: np.ndarray, p_y: np.ndarray) -> np.ndarray:
    """D(W_{x1,x2} || p_Y) (|X1|, |X2|); p_Y floored at 1e-300."""
    return rel_entr(kernel, np.maximum(p_y, 1e-300)).sum(axis=2)


def _mi_nats(kernel: np.ndarray, p12: np.ndarray, w_log_w: np.ndarray) -> float:
    """I(X1, X2; Y) in nats under the input law p12 (|X1|, |X2|); w_log_w is xlogy(W, W)."""
    return _mi_at(p12, _output_law(kernel, p12), w_log_w)


def _letter_div_nats(kernel: np.ndarray, p12: np.ndarray) -> np.ndarray:
    """D(W_{x1,x2} || p_Y) (|X1|, |X2|) under the input law p12; p_Y floored at 1e-300."""
    return _div_at(kernel, _output_law(kernel, p12))


def _mi_and_div_nats(kernel: np.ndarray, p12: np.ndarray, w_log_w: np.ndarray):
    """``_mi_nats`` and ``_letter_div_nats`` at p12 from one output law p_Y."""
    p_y = _output_law(kernel, p12)
    return _mi_at(p12, p_y, w_log_w), _div_at(kernel, p_y)


def _dbar_nats(kernel: np.ndarray, p1: np.ndarray, p2: np.ndarray):
    """The p2 and p1 averages of the letter divergences D(W_{x1,x2} || p_Y)."""
    div = _letter_div_nats(kernel, p1[:, None] * p2)
    return div @ p2, p1 @ div


def _neg_mi_product(x: np.ndarray, kernel: np.ndarray, w_log_w: np.ndarray, n1: int):
    """-I(p1 x p2) and its gradient at x = (p1, p2), from one evaluation of the core."""
    a, b = x[:n1], x[n1:]
    mi, div = _mi_and_div_nats(kernel, a[:, None] * b, w_log_w)
    # dI/dp12 = D(W_x || p_Y) - 1, averaged over the other input
    grad = np.concatenate([div @ b - b.sum(), a @ div - a.sum()])
    return -mi, -grad


def _slsqp(objective, x0: np.ndarray, args: tuple, constraints, ftol: float, maxiter: int):
    """The package's one optimizer call: SLSQP on [0, 1]^len(x0), ``objective`` returning its
    value and gradient.  Returns the solution clipped at 0, the status and the iterations."""
    res = minimize(
        objective, x0, args=args, method="SLSQP", jac=True, bounds=[(0.0, 1.0)] * len(x0),
        constraints=constraints, options={"ftol": ftol, "maxiter": maxiter},
    )
    return np.clip(res.x, 0.0, None), res.status, res.nit


def _ascend(mac: Mac, p1: np.ndarray, p2: np.ndarray):
    """SLSQP on I(p1 x p2) from one start, with the analytic gradient.

    Returns (value, p1, p2, status, iterations); the law is clipped to the
    simplex and renormalized before its value is taken.
    """
    n1 = len(p1)
    sums = np.zeros((2, n1 + len(p2)))
    sums[0, :n1] = sums[1, n1:] = 1.0
    x0, args = np.concatenate([p1, p2]), (mac.kernel, mac._w_log_w, n1)
    cons = {"type": "eq", "fun": lambda x: sums @ x - 1.0, "jac": lambda x: sums}
    x, status, nit = _slsqp(_neg_mi_product, x0, args, cons, 1e-14, 500)
    a, b = x[:n1], x[n1:]
    a /= a.sum()
    b /= b.sum()
    return _mi_nats(mac.kernel, a[:, None] * b, mac._w_log_w), a, b, status, nit


def _seed_grid(mac: Mac) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic multi-start seeds, one start per row of (p1, p2): uniform,
    leaning to each vertex pair (x1, x2) in lexicographic order, and a skew mix."""
    n1, n2 = mac.x1_size, mac.x2_size
    a, b = np.divmod(np.arange(n1 * n2), n2)
    skew1 = np.arange(1, n1 + 1, dtype=float)
    skew2 = np.arange(n2, 0, -1, dtype=float)
    p1 = np.vstack([np.full(n1, 1.0 / n1), 0.1 / n1 + 0.9 * np.eye(n1)[a], skew1 / skew1.sum()])
    p2 = np.vstack([np.full(n2, 1.0 / n2), 0.1 / n2 + 0.9 * np.eye(n2)[b], skew2 / skew2.sum()])
    return p1, p2


def sum_capacity(mac: Mac, units: str = "bits") -> CapacityResult:
    """Maximize I(X1, X2; Y) over product input distributions.

    SLSQP runs from each start of a deterministic seed grid, on the mutual
    information with its analytic gradient; ``iterations`` is the sum of the
    SLSQP iteration counts.  The starts within 1e-7 nats of the best are kept
    (deduplicated at L1 distance 1e-6) and the codeword dispersion is maximized over them.
    Raises ``NonConvergence`` unless at least one start that reached a kept
    maximizer ended with SLSQP status 0, and when the KKT residual exceeds
    1e-6 nats.  A kernel whose rows are all one law has capacity 0 under
    every input: it returns 0 with the uniform product as its one maximizer,
    and runs no solver.
    """
    kernel = mac.kernel
    if np.all(kernel == kernel[:1, :1]):
        return CapacityResult(0.0, [uniform_product(mac)], 0.0, 0, 0.0, units)

    candidates = [_ascend(mac, p1, p2) for p1, p2 in zip(*_seed_grid(mac))]
    best = max(c[0] for c in candidates)
    near_best = [c for c in candidates if c[0] >= best - _CAPACITY_TOL]
    if not any(c[3] == 0 for c in near_best):
        raise NonConvergence("no SLSQP run that reached the sum-capacity converged")

    # Keep the starts within tolerance of the best value, deduplicated.
    keepers: list[tuple[np.ndarray, np.ndarray]] = []
    for _, p1, p2, _, _ in sorted(near_best, key=lambda c: (-c[0], tuple(c[1]), tuple(c[2]))):
        if not any(np.abs(p1 - q1).sum() + np.abs(p2 - q2).sum() < 1e-6 for q1, q2 in keepers):
            keepers.append((p1, p2))

    scale = _unit_scale(units)
    dists = [ProductDist(p1, p2) for p1, p2 in keepers]
    v1_star = max([0.0] + [_stats_nats(mac, d)[1] for d in dists])

    # KKT residual at the top maximizer: E[i_bar(x1, X2)] <= C with equality
    # on the support, and symmetrically for x2.
    p1, p2 = keepers[0]
    dbar1, dbar2 = _dbar_nats(kernel, p1, p2)
    resid = max(
        float(np.max(dbar1 - best)),
        float(np.max(dbar2 - best)),
        float(np.max(np.abs(dbar1[p1 > 1e-9] - best))) if np.any(p1 > 1e-9) else 0.0,
        float(np.max(np.abs(dbar2[p2 > 1e-9] - best))) if np.any(p2 > 1e-9) else 0.0,
    )
    if resid > _KKT_TOL:
        raise NonConvergence(f"sum-capacity KKT residual {resid:.3g} nats exceeds {_KKT_TOL:g}")
    return CapacityResult(
        c_sum=best * scale,
        argmax_dists=dists,
        v1_star=v1_star * scale * scale,
        iterations=sum(c[4] for c in candidates),
        kkt_residual=resid * scale,
        units=units,
    )


def _capacity_in(mac: Mac, units: str, capacity: CapacityResult | None) -> CapacityResult:
    """``capacity`` if it is given, which must be in ``units``; else the sum-capacity of ``mac``."""
    if capacity is None:
        return sum_capacity(mac, units=units)
    if capacity.units != units:
        raise ValueError(f"capacity is in {capacity.units}, the call asks for {units}")
    return capacity
