"""Per-layer metrics derived from the spans of a traced run.

Every name listed in ``per_layer_names`` is emitted by every workload; a layer
a workload never calls reads 0 there.  Times are means per call (``ms``,
``us``); ``calls`` and ``count`` values are per pass.  Spans of the stage
probes (request ``probe@<cfg>``) count toward the per-call times of their
config but not toward per-pass counts.
"""
from __future__ import annotations

from collections import defaultdict

import inputs as gen
from spans import END, INFO, NAME, PARENT, REQUEST, START, ancestors, layer_self_times
from workloads import TALLY_KEYS, gather_bytes_per_trial

KERNELS = list(gen.BUILTIN_CHANNELS) + list(gen.DIRICHLET_SHAPES)
DELTA_KERNELS = [k for k in KERNELS if k not in gen.PROBE_ONLY]
ENSEMBLE = list(gen.ENSEMBLE_CONFIGS)
FIXED = list(gen.FIXED_CODE_CONFIGS)
CLI_SUBCOMMANDS = ("stats", "delta", "rates", "fig1", "invcdf")


def per_layer_names() -> list[str]:
    names = []
    for k in KERNELS:
        names += [f"channel.sum_capacity.ms.{k}", f"channel.sum_capacity.iterations.{k}"]
    names += [
        "channel.mutual_information.us", "channel.mutual_information.calls",
        "channel.info_density_tables.calls", "channel.info_density_tables.ms",
        "gauss_max.sk_inverse_cdf.ms", "gauss_max.sk_cdf.calls_per_quantile",
    ]
    names += [f"delta_curve.delta.ms.{k}" for k in DELTA_KERNELS]
    names += ["rate_bounds.rate_report.self_ms", "rate_bounds.thm3_budget_exhausted.count"]
    for c in ENSEMBLE + FIXED:
        names += [f"code_sim.{fn}.ms.{c}" for fn in ("draw_codebooks", "facilitate", "threshold_decode")]
    names += [f"code_sim.fbl_bound.ms.{c}" for c in ENSEMBLE]
    names += [f"code_sim.estimate_error.peak_mb.{c}" for c in ENSEMBLE]
    names += [f"code_sim.gather_bytes_per_trial.{c}" for c in ENSEMBLE + FIXED]
    for c in ENSEMBLE + FIXED:
        names += [f"code_sim.errors.{c}"] + [f"code_sim.{t}.{c}" for t in TALLY_KEYS]
    names += ["sim_trials_per_s", "bound_samples_per_s"]
    names += [f"code_sim.trials_per_s.{c}" for c in ENSEMBLE + FIXED]
    for sub in CLI_SUBCOMMANDS:
        names += [f"cli.{sub}.ms", f"cli.{sub}.self_ms"]
    names.append("trace.overhead_frac")
    return names


def _target(span) -> str | None:
    req = span[REQUEST]
    return req.split("@", 1)[1] if req and "@" in req else None


def _in_pass(span) -> bool:
    return not (span[REQUEST] or "").startswith("probe@")


def _mean(values, scale: float) -> float:
    values = list(values)
    return scale * sum(values) / len(values) if values else 0.0


def derive(spans: list, passes: int, extra: dict) -> dict[str, float]:
    """All per-layer metrics from the traced spans and workload-side records.

    ``extra`` holds what spans cannot show: ``peak_mb`` and ``reports`` per
    config, the throughputs measured on the untraced passes (overall and
    ``trials_per_s`` per config), and ``overhead_frac``.
    """
    dur = [s[END] - s[START] for s in spans]
    own = layer_self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def mean_ms(name, target=None, scale=1e3):
        return _mean((dur[i] for i in by_name[name] if target is None or _target(spans[i]) == target), scale)

    def per_pass(idx) -> float:
        return sum(1 for i in idx if _in_pass(spans[i])) / passes

    m: dict[str, float] = {}
    for k in KERNELS:
        m[f"channel.sum_capacity.ms.{k}"] = mean_ms("channel.sum_capacity", k)
        m[f"channel.sum_capacity.iterations.{k}"] = _mean(
            (spans[i][INFO]["iterations"] for i in by_name["channel.sum_capacity"]
             if _target(spans[i]) == k and spans[i][INFO]), 1.0)
    m["channel.mutual_information.us"] = mean_ms("channel.mutual_information", scale=1e6)
    m["channel.mutual_information.calls"] = per_pass(by_name["channel.mutual_information"])
    m["channel.info_density_tables.calls"] = per_pass(by_name["channel.info_density_tables"])
    m["channel.info_density_tables.ms"] = mean_ms("channel.info_density_tables")
    quantiles = by_name["gauss_max.sk_inverse_cdf"]
    m["gauss_max.sk_inverse_cdf.ms"] = mean_ms("gauss_max.sk_inverse_cdf")
    inner = sum(
        1 for i in by_name["gauss_max.sk_cdf"]
        if any(spans[a][NAME] == "gauss_max.sk_inverse_cdf" for a in ancestors(spans, i))
    )
    m["gauss_max.sk_cdf.calls_per_quantile"] = inner / len(quantiles) if quantiles else 0.0
    for k in DELTA_KERNELS:
        m[f"delta_curve.delta.ms.{k}"] = mean_ms("delta_curve.delta", k)
    reports = by_name["rate_bounds.rate_report"]
    m["rate_bounds.rate_report.self_ms"] = _mean((own[i] for i in reports), 1e3)
    m["rate_bounds.thm3_budget_exhausted.count"] = sum(
        spans[i][INFO]["thm3_budget_exhausted"] for i in reports
        if spans[i][INFO] and _in_pass(spans[i])) / passes

    for c in ENSEMBLE + FIXED:
        for fn in ("draw_codebooks", "facilitate", "threshold_decode"):
            m[f"code_sim.{fn}.ms.{c}"] = mean_ms(f"code_sim.{fn}", c)
    for c in ENSEMBLE:
        m[f"code_sim.fbl_bound.ms.{c}"] = mean_ms("code_sim.fbl_bound", c)
        m[f"code_sim.estimate_error.peak_mb.{c}"] = extra["peak_mb"].get(c, 0.0)
    for c, spec in list(gen.ENSEMBLE_CONFIGS.items()) + list(gen.FIXED_CODE_CONFIGS.items()):
        _, _, n, mm, k, mode, _, _ = spec
        m[f"code_sim.gather_bytes_per_trial.{c}"] = gather_bytes_per_trial(
            mm, k, n, mode, fixed=c in gen.FIXED_CODE_CONFIGS)
        report = extra["reports"].get(c)
        m[f"code_sim.errors.{c}"] = report.errors if report else 0
        for t in TALLY_KEYS:
            m[f"code_sim.{t}.{c}"] = report.decomposition[t] if report else 0
    m["sim_trials_per_s"] = extra["sim_trials_per_s"]
    m["bound_samples_per_s"] = extra["bound_samples_per_s"]
    for c in ENSEMBLE + FIXED:
        m[f"code_sim.trials_per_s.{c}"] = extra["trials_per_s"].get(c) or 0.0

    mains = defaultdict(list)  # subcommand -> its cli.main spans
    for s in spans:
        if s[NAME].startswith("cli.cmd_") and s[PARENT] >= 0 and _in_pass(s):
            mains[s[NAME][len("cli.cmd_"):]].append(s[PARENT])
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.ms"] = _mean((dur[i] for i in mains[sub]), 1e3)
        m[f"cli.{sub}.self_ms"] = _mean((own[i] for i in mains[sub]), 1e3)
    m["trace.overhead_frac"] = extra["overhead_frac"]
    return m
