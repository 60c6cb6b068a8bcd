"""The three workloads: their fixed call lists and the correctness checks.

Each workload runs one closed loop with one caller.  ``run_pass`` makes
every call of the list once and returns a record per step; ``check_pass``
turns the records into one verdict per step (None when the step passed).
Calls go through the ``cfmac`` module attributes at call time, so an
installed tracer sees them.  The check functions are pure, so the smoke
check can feed each of them a wrong output.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.stats import beta, binom

import cfmac
import cfmac.cli

import inputs as gen

BAND_ALPHA = 1e-6  # per side, for both the reference interval and the run
SOLVER_TOL = 1e-6
QUANTILE_TOL = 1e-9
TALLY_KEYS = ("threshold_miss", "impostor_pass", "ambiguity", "type_miss")


# ---------------------------------------------------------------------------
# checks: each returns None on success or a one-line reason


def binomial_band(ref: dict, trials: int) -> tuple[int, int]:
    """Error counts consistent with the recorded reference rate.

    The reference rate is bracketed by its own Clopper-Pearson interval, so
    the band holds for any RNG stream that samples the same ensemble.
    """
    e, t = ref["errors"], ref["trials"]
    p_lo = 0.0 if e == 0 else float(beta.ppf(BAND_ALPHA, e, t - e + 1))
    p_hi = 1.0 if e == t else float(beta.ppf(1.0 - BAND_ALPHA, e + 1, t - e))
    return int(binom.ppf(BAND_ALPHA, trials, p_lo)), int(binom.isf(BAND_ALPHA, trials, p_hi))


def check_error_count(errors: int, trials: int, ref: dict) -> str | None:
    lo, hi = binomial_band(ref, trials)
    if not lo <= errors <= hi:
        return f"{errors} errors in {trials} trials outside reference band [{lo}, {hi}]"
    return None


def check_report(report, ref: dict) -> str | None:
    tallies = sum(report.decomposition[k] for k in TALLY_KEYS)
    if tallies != report.errors:
        return f"tallies sum to {tallies}, errors {report.errors}"
    return check_error_count(report.errors, report.trials, ref)


def check_bound(bound: float, ci_lower: float) -> str | None:
    if not (math.isfinite(bound) and bound >= ci_lower):
        return f"fbl_bound {bound} below ci95 lower end {ci_lower}"
    return None


def check_codebooks(cb, m: int, k: int, n: int, alphabet: int) -> str | None:
    for f in (cb.f1, cb.f2):
        if f.shape != (m, k, n) or f.min() < 0 or f.max() >= alphabet:
            return f"codebook shape {f.shape} or symbols outside [0, {alphabet})"
    return None


def check_table(table, m: int, k: int) -> str | None:
    if table.e.shape != (m, m) or table.e.min() < 0 or table.e.max() >= k:
        return f"facilitator table shape {table.e.shape} or entries outside [0, {k})"
    return None


def _h2(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def check_stats(doc: dict, label: str, y_size: int, x_pairs: int) -> str | None:
    c = doc["c_sum"]
    if not 0.0 <= c <= math.log2(min(x_pairs, y_size)) + SOLVER_TOL:
        return f"c_sum {c} outside [0, log2 min(|X1||X2|, |Y|)]"
    if abs(doc["mutual_info"] - c) > SOLVER_TOL:
        return f"mutual_info {doc['mutual_info']} at the maximizer differs from c_sum {c}"
    want = {"adder2": (1.5, 0.25), "xor0.11": (1.0 - _h2(0.11), None)}.get(label)
    if want is not None:
        if abs(c - want[0]) > SOLVER_TOL:
            return f"c_sum {c}, expected {want[0]}"
        if want[1] is not None and abs(doc["v1_star"] - want[1]) > SOLVER_TOL:
            return f"v1_star {doc['v1_star']}, expected {want[1]}"
    return None


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_delta(text: str) -> str | None:
    rows = [[float(x) for x in r] for r in _csv_rows(text)]
    if not rows:
        return "no delta rows"
    for a, d, used in rows:
        if d < -SOLVER_TOL or used > a + SOLVER_TOL:
            return f"delta({a}) = {d} with budget use {used}"
    for (a0, d0, _), (a1, d1, _) in zip(rows, rows[1:]):
        if a1 >= a0 and d1 < d0 - SOLVER_TOL:
            return f"delta decreases from {d0} at a={a0} to {d1} at a={a1}"
    return None


def check_rates(text: str) -> str | None:
    rows = _csv_rows(text)
    if not rows:
        return "no rate rows"
    for r in rows:
        rates = [float(x) for x in (r[3], r[4], r[5]) if x != "NA"]
        best = float(r[6])
        if best < max(rates):
            return f"best {best} below baseline/thm2/thm3 {rates} at n={r[0]} K={r[1]}"
    return None


def check_fig1(text: str) -> str | None:
    rows = _csv_rows(text)
    q = [float(r[1]) for r in rows]
    if len(q) < 2 or any(b <= a for a, b in zip(q, q[1:])):
        return "fig1 quantiles not strictly increasing"
    for r, v in zip(rows, q):
        if (r[2] != "NA" and v < float(r[2])) or v > float(r[3]):
            return f"fig1 quantile {v} outside Lemma-1 sandwich at log2 K = {r[0]}"
    return None


def check_invcdf(doc: dict) -> str | None:
    if abs(doc["achieved_probability"] - doc["eps"]) > QUANTILE_TOL:
        return f"achieved probability {doc['achieved_probability']} for eps {doc['eps']}"
    return None


def check_oracle(grid_max: float, c_sum: float, points: int) -> str | None:
    resolution = 1.0 / (points - 1)
    if not c_sum - resolution <= grid_max <= c_sum + SOLVER_TOL:
        return f"grid maximum {grid_max} vs c_sum {c_sum} (resolution {resolution})"
    return None


def gather_bytes_per_trial(m: int, k: int, n: int, mode: str, fixed: bool) -> int:
    """Computed from array shapes, not measured.

    Ensemble iid: the float64 (M1, M2, K, n) score gather plus three
    (M1, M2, n) decode-metric gathers.  Ensemble type mode: two int64
    (M1, M2, K, n) joint-type index arrays, built once in the facilitator and
    once in the type check, plus the decode gathers.  Fixed code: the decode
    gathers only.
    """
    if fixed:
        return 8 * m * m * n * 3
    per_k = 4 * k if mode == "type" else k
    return 8 * m * m * n * (per_k + 3)


# ---------------------------------------------------------------------------
# workloads


class Step:
    """One call of a pass: its label, output (or the exception) and timing.

    ``out_path`` is the file a CLI step wrote.
    """

    def __init__(self, label: str, target: str):
        self.label, self.target = label, target
        self.output = self.error = self.out_path = None
        self.seconds = 0.0


class Workload:
    name = ""

    def __init__(self, inputs: dict, references: dict):
        self.inputs = inputs
        self.references = references
        self.configs: dict = {}  # simulation configs by name
        self.tracer = None
        self.trace_memory = False
        # With a speed.Gauge set, a gauge sample is taken before the first
        # call of a pass and after every call, into ``gauge_samples``.
        self.gauge = None
        self.gauge_samples: list[float] = []
        self.peak_mb: dict[str, float] = {}
        # (kind, config) -> [units, seconds] for kind "trials" (trial calls)
        # and "samples" (fbl_bound Monte Carlo samples)
        self.throughput = defaultdict(lambda: [0, 0.0])

    def _count(self, kind: str, target: str, units: int, step: Step) -> None:
        acc = self.throughput[kind, target]
        acc[0] += units
        acc[1] += step.seconds

    def rate(self, kind: str, target: str | None = None) -> float | None:
        """Units per second over the calls made so far; None if there were none."""
        accs = [v for (k, t), v in self.throughput.items() if k == kind and target in (None, t)]
        seconds = sum(v[1] for v in accs)
        return sum(v[0] for v in accs) / seconds if seconds else None

    def _call(self, steps: list, label: str, target: str, fn, *args, **kwargs):
        step = Step(label, target)
        if self.tracer is not None:
            self.tracer.request = f"{label}@{target}"
        if self.gauge is not None and not self.gauge_samples:
            self.gauge_samples.append(self.gauge.sample())
        t0 = time.perf_counter()
        try:
            step.output = fn(*args, **kwargs)
        except Exception as exc:  # a failed call is counted, the pass goes on
            step.error = f"{type(exc).__name__}: {exc}"
        step.seconds = time.perf_counter() - t0
        if self.gauge is not None:
            self.gauge_samples.append(self.gauge.sample())
        steps.append(step)
        return step.output

    def run_pass(self) -> list[Step]:
        raise NotImplementedError

    def check_pass(self, steps: list[Step]) -> list[str | None]:
        verdicts = []
        for s in steps:
            if s.error is not None:
                verdicts.append(s.error)
                continue
            try:
                verdicts.append(self.check(s, steps))
            except (ValueError, KeyError, IndexError, TypeError, OSError, StopIteration) as exc:
                verdicts.append(f"unreadable output: {exc!r}")
        return verdicts

    def check(self, step: Step, steps: list[Step]) -> str | None:
        raise NotImplementedError

    def probe(self) -> None:
        """Traced run only: calls timed outside the passes."""


class SimWorkload(Workload):
    """A simulation workload: configs read from the generated JSON documents."""

    def __init__(self, inputs, references):
        super().__init__(inputs, references)
        self.configs = {
            n: cfmac.sim_config_from_dict(json.loads(Path(c["path"]).read_text()))
            for n, c in inputs["configs"].items()
        }

    def probe(self, repeats: int = 5) -> None:
        """Single-shot draw, facilitator and decode calls at each config's shape."""
        rng = np.random.default_rng(0)
        for name, cfg in self.configs.items():
            cdf = np.cumsum(cfg.mac.kernel, axis=-1)
            th = cfg.resolved_thresholds()
            self.tracer.request = f"probe@{name}"
            for seed in range(repeats):
                cb = cfmac.draw_codebooks(
                    cfg.mac, cfg.dist, cfg.n, cfg.m1_count, cfg.m2_count, cfg.k, cfg.mode, seed
                )
                table = cfmac.facilitate(cb, cfg.mac, cfg.dist, cfg.mode, seed)
                e = table.e[0, 0]
                y = (rng.random(cfg.n)[:, None] < cdf[cb.f1[0, e], cb.f2[0, e]]).argmax(axis=-1)
                cfmac.threshold_decode(y, cb, table, th, cfg.mac, cfg.dist)


class SimEnsemble(SimWorkload):
    name = "sim-ensemble"

    def run_pass(self):
        steps = []
        for name, cfg in self.configs.items():
            spec = self.inputs["configs"][name]
            if self.trace_memory:
                tracemalloc.start()
            self._call(steps, "estimate_error", name, cfmac.estimate_error, cfg)
            if self.trace_memory:
                self.peak_mb[name] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._count("trials", name, cfg.trials, steps[-1])
            self._call(
                steps, "fbl_bound", name, cfmac.fbl_bound, cfg,
                mc_samples=spec["bound_samples"], seed=spec["bound_seed"],
            )
            self._count("samples", name, spec["bound_samples"], steps[-1])
        return steps

    def check(self, step, steps):
        if step.label == "estimate_error":
            return check_report(step.output, self.references[step.target])
        sim = next(s for s in steps if s.label == "estimate_error" and s.target == step.target)
        if sim.error is not None:
            return "no estimate_error report to compare against"
        return check_bound(step.output, sim.output.ci95[0])


class SimFixedCode(SimWorkload):
    name = "sim-fixed-code"

    def __init__(self, inputs, references):
        super().__init__(inputs, references)
        self.kernel_cdf = {
            n: np.cumsum(cfg.mac.kernel, axis=-1) for n, cfg in self.configs.items()
        }

    def run_pass(self):
        steps = []
        for name, cfg in self.configs.items():
            spec = self.inputs["configs"][name]
            m, k = cfg.m1_count, cfg.k
            cb = self._call(
                steps, "draw_codebooks", name, cfmac.draw_codebooks,
                cfg.mac, cfg.dist, cfg.n, m, cfg.m2_count, k, cfg.mode, spec["codebook_seed"],
            )
            table = self._call(
                steps, "facilitate", name, cfmac.facilitate,
                cb, cfg.mac, cfg.dist, cfg.mode, spec["facilitator_seed"],
            )
            self._call(steps, "estimate_error_fixed_code", name,
                       cfmac.estimate_error_fixed_code, cb, table, cfg)
            self._count("trials", name, cfg.trials, steps[-1])
            self._call(steps, "threshold_decode", name, self._decode_batch, name, cfg, cb, table)
        return steps

    def _decode_batch(self, name, cfg, cb, table):
        """Send each drawn message pair through the channel and decode it."""
        th = cfg.resolved_thresholds()
        cdf = self.kernel_cdf[name]
        spec = self.inputs["configs"][name]
        wrong = 0
        for (m1, m2), u in zip(spec["decode_messages"], spec["decode_noise"]):
            e = table.e[m1, m2]
            rows = cdf[cb.f1[m1, e], cb.f2[m2, e]]
            y = (u[:, None] < rows).argmax(axis=-1)
            decoded, _ = cfmac.threshold_decode(y, cb, table, th, cfg.mac, cfg.dist)
            wrong += decoded != (m1, m2)
        return wrong

    def check(self, step, steps):
        cfg = self.configs[step.target]
        ref = self.references[step.target]
        if step.label == "draw_codebooks":
            return check_codebooks(step.output, cfg.m1_count, cfg.k, cfg.n, cfg.mac.x1_size)
        if step.label == "facilitate":
            return check_table(step.output, cfg.m1_count, cfg.k)
        if step.label == "estimate_error_fixed_code":
            return check_report(step.output, ref)
        decodes = len(self.inputs["configs"][step.target]["decode_messages"])
        return check_error_count(step.output, decodes, ref)


def _cli_main(argv: list[str]) -> int:
    """``cfmac.cli.main`` with argparse's usage exit turned into its exit code."""
    try:
        return cfmac.cli.main(argv)
    except SystemExit as exc:
        return exc.code


class Analytic(Workload):
    name = "analytic"

    def __init__(self, inputs, references):
        super().__init__(inputs, references)
        self.outdir = Path(inputs["outdir"])
        self.macs = {
            label: (cfmac.named_channel(ref) if label in gen.BUILTIN_CHANNELS
                    else cfmac.load_channel(json.loads(Path(ref).read_text())))
            for label, ref in inputs["channels"].items()
        }
        points = inputs["grid_points"]
        self.grid = np.linspace(0.0, 1.0, points)

    def _cli(self, steps, sub: str, target: str, out_name: str, argv: list[str]) -> None:
        out = self.outdir / out_name
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = self._call(steps, sub, target, _cli_main, ["--out", str(out), sub] + argv)
        steps[-1].out_path = out
        if code not in (None, 0) and steps[-1].error is None:
            steps[-1].error = f"exit code {code}: {err.getvalue().strip()}"

    def run_pass(self):
        steps = []
        for label, ref in self.inputs["channels"].items():
            if label in self.inputs["probe_only"]:
                continue
            self._cli(steps, "stats", label, f"{label}.stats.json", ["--channel", ref])
            self._cli(steps, "delta", label, f"{label}.delta.csv",
                      ["--channel", ref, "--a-grid", gen.A_GRID])
            self._cli(steps, "rates", label, f"{label}.rates.csv",
                      ["--channel", ref, "--n", gen.RATE_N, "--k", gen.RATE_K])
        f = self.inputs["fig1"]
        self._cli(steps, "fig1", "fig1", "fig1.csv",
                  ["--v1", repr(f["v1"]), "--v2", repr(f["v2"]), "--eps", repr(f["eps"]),
                   "--kmax-log2", str(f["kmax_log2"])])
        for i, q in enumerate(self.inputs["invcdf"]):
            self._cli(steps, "invcdf", f"invcdf{i}", f"invcdf{i}.json",
                      ["--v1", repr(q["v1"]), "--v2", repr(q["v2"]), "--k", str(q["k"]),
                       "--eps", repr(q["eps"])])
        for label in self.inputs["oracle_kernels"]:
            self._call(steps, "mi_grid", label, self._grid_max, self.macs[label])
        return steps

    def probe(self):
        """The probe-only kernels' solve through the CLI, outside the timed passes."""
        for label in self.inputs["probe_only"]:
            self.tracer.request = f"probe@{label}"
            argv = ["--out", str(self.outdir / f"{label}.stats.json"),
                    "stats", "--channel", self.inputs["channels"][label]]
            with contextlib.redirect_stdout(io.StringIO()):
                cfmac.cli.main(argv)

    def _grid_max(self, mac) -> float:
        """Brute-force product-input scan of mutual_information on a 2x2 kernel."""
        best = 0.0
        for q in self.grid:
            p1 = np.array([q, 1.0 - q])
            for r in self.grid:
                d = cfmac.ProductDist(p1, np.array([r, 1.0 - r]))
                best = max(best, cfmac.mutual_information(mac, d))
        return best

    def check(self, step, steps):
        if step.label == "mi_grid":
            stats = next(s for s in steps if s.label == "stats" and s.target == step.target)
            if stats.error is not None:
                return "no stats output to compare against"
            c_sum = json.loads(stats.out_path.read_text())["c_sum"]
            return check_oracle(step.output, c_sum, len(self.grid))
        text = step.out_path.read_text()
        if step.label == "stats":
            mac = self.macs[step.target]
            return check_stats(json.loads(text), step.target, mac.y_size, mac.x1_size * mac.x2_size)
        if step.label == "delta":
            return check_delta(text)
        if step.label == "rates":
            return check_rates(text)
        if step.label == "fig1":
            return check_fig1(text)
        return check_invcdf(json.loads(text))


WORKLOADS = {w.name: w for w in (SimEnsemble, SimFixedCode, Analytic)}
