"""Command-line surface: channel statistics, quantile curves, rate curves, simulation.

Outputs are CSV for curves and JSON for structured reports.  When ``--out``
is given, a run manifest (command, parameters, version, seed, wall time,
output paths, the NumPy and SciPy versions, the units of the output where it
has any; for ``simulate`` also the RNG stream version) is written next to the
output file and every output file references it: CSV files carry a
``# manifest:`` comment line, JSON files a ``manifest`` field.  Emitted files
round-trip: parsing one and re-emitting it reproduces the bytes.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .channel import (
    Mac,
    channel_stats,
    dump_dist,
    load_channel,
    load_dist,
    named_channel,
    sum_capacity,
)
from .code_sim import (
    STREAM_VERSION,
    estimate_error,
    sim_config_from_dict,
    sim_config_to_dict,
    simulate_with_bound,
)
from .delta_curve import _DeltaContext
from .errors import CfmacError, NonConvergence
from .gauss_max import SkParams, lemma1_bounds, sk_inverse_cdf
from .rate_bounds import RateQuery, rate_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def _fmt(x: float | None) -> str:
    """Canonical float text: shortest repr that parses back exactly; NA for None."""
    return "NA" if x is None else repr(float(x))


def _read_json(path_str: str, what: str):
    """The JSON document in the ``what`` file at ``path_str``."""
    path = Path(path_str)
    if not path.is_file():
        raise FileNotFoundError(f"{what} file not found: {path_str}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CfmacError(
            f"cannot parse {what} file {path_str}: line {exc.lineno}: {exc.msg}"
        ) from exc


def _resolve_channel(ref: str) -> Mac:
    if ref == "adder2" or ref.startswith("xor:"):
        return named_channel(ref)
    return load_channel(_read_json(ref, "channel"))


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_outputs(args, output: list[str] | dict, extra: dict, started: float) -> None:
    """Emit CSV rows (a list) or a JSON document (a dict), with a manifest when --out is set.

    ``extra`` holds further manifest fields of the subcommand.
    """
    rows = output if isinstance(output, list) else None
    if args.out is None:
        sys.stdout.write(_json_text(output) if rows is None else "\n".join(rows) + "\n")
        return
    out_path = Path(args.out)
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    manifest = {
        "command": args.command,
        "parameters": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func",) and v is not None
        },
        "version": __version__,
        "seed": args.seed,
        "wall_time_s": round(time.monotonic() - started, 6),
        "outputs": [str(out_path)],
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        **extra,
    }
    if rows is not None:
        body = f"# manifest: {manifest_path.name}\n" + "\n".join(rows) + "\n"
    else:
        body = _json_text({**output, "manifest": manifest_path.name})
    out_path.write_text(body)
    manifest_path.write_text(_json_text(manifest))


# ---------------------------------------------------------------------------
# subcommands: each returns its CSV rows or JSON document, and those with
# units also the extra manifest fields; ``--units`` is None when not given


def cmd_stats(args) -> tuple[dict, dict]:
    units = args.units or "bits"
    mac = _resolve_channel(args.channel)
    cap = sum_capacity(mac, units=units)
    dist = load_dist(_read_json(args.dist, "distribution")) if args.dist else cap.argmax_dists[0]
    stats = channel_stats(mac, dist, units=units)
    doc = {
        "channel": args.channel,
        "units": units,
        "c_sum": cap.c_sum,
        "v1_star": cap.v1_star,
        "maximizers": [dump_dist(d) for d in cap.argmax_dists],
        "mutual_info": stats.mutual_info,
        "v1": stats.v1,
        "v2": stats.v2,
        "v_max": stats.v_max,
    }
    return doc, {"units": units}


def cmd_fig1(args) -> list[str]:
    rows = ["log2_k,quantile,lemma1_lower,lemma1_upper"]
    for log2_k in range(args.kmin_log2, args.kmax_log2 + 1):
        p = SkParams(args.v1, args.v2, 2 ** log2_k)
        q = sk_inverse_cdf(p, args.eps).value
        b = lemma1_bounds(p, args.eps)
        rows.append(
            f"{log2_k},{_fmt(q)},{_fmt(b.lower_at_eps)},{_fmt(b.upper_at_one_minus_eps)}"
        )
    return rows


def cmd_delta(args) -> tuple[list[str], dict]:
    units = args.units or "bits"
    mac = _resolve_channel(args.channel)
    context = _DeltaContext(mac, sum_capacity(mac, units=units), units)
    rows = ["a,delta,achieved_mi_budget"]
    for a in args.a_grid:
        point = context.point(a)
        rows.append(f"{_fmt(a)},{_fmt(point.delta)},{_fmt(point.achieved_mi_budget)}")
    return rows, {"units": units}


def cmd_rates(args) -> tuple[list[str], dict]:
    units = args.units or "bits"
    mac = _resolve_channel(args.channel)
    cap = sum_capacity(mac, units=units)
    k_grid = sorted(set(args.k) | {1})  # baseline K=1 always included
    rows = ["n,K,eps,thm2,thm3,baseline,best,regime"]
    for n in args.n:
        for k in k_grid:
            rep = rate_report(mac, RateQuery(n, args.eps, k, units), capacity=cap)
            rows.append(
                f"{n},{k},{_fmt(args.eps)},{_fmt(rep.thm2_rate)},{_fmt(rep.thm3_rate)},"
                f"{_fmt(rep.baseline_rate)},{_fmt(rep.best_rate)},{rep.regime}"
            )
    return rows, {"units": units}


def cmd_simulate(args) -> tuple[dict, dict]:
    config = sim_config_from_dict(_read_json(args.config, "config"))
    if args.units not in (None, config.units):
        raise CfmacError(f"--units {args.units} contradicts the config's units {config.units!r}")
    if args.trials is not None:
        config = dataclasses.replace(config, trials=args.trials)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.validate_bound:
        report = simulate_with_bound(config, args.bound_samples)
    else:
        report = estimate_error(config)
    out = report.to_dict()
    out["config"] = sim_config_to_dict(config)
    if args.validate_bound:
        out["bound_dominates_ci_lower"] = bool(report.fbl_bound >= report.ci95[0])
    return out, {"stream_version": STREAM_VERSION, "units": config.units}


def cmd_invcdf(args) -> dict:
    result = sk_inverse_cdf(SkParams(args.v1, args.v2, args.k), args.eps)
    doc = {
        "v1": args.v1,
        "v2": args.v2,
        "k": args.k,
        "eps": args.eps,
        "quantile": result.value,
        "achieved_probability": result.achieved_probability,
    }
    return doc


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmac",
        description="Finite-blocklength coordination benefits on two-user MACs.",
    )
    parser.add_argument(
        "--units", choices=("bits", "nats"), default=None,
        help="bits when not given; simulate takes the config's units",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None, help="output file path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="channel capacity and dispersion statistics")
    p.add_argument("--channel", required=True, help="adder2, xor:<p>, or a JSON file")
    p.add_argument("--dist", default=None, help="JSON file with p1/p2 or p12")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fig1", help="max-of-Gaussians quantile versus log2 K")
    p.add_argument("--v1", type=float, default=1.0)
    p.add_argument("--v2", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--kmin-log2", type=int, default=0)
    p.add_argument("--kmax-log2", type=int, default=40)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("delta", help="correlation-benefit curve delta(a)")
    p.add_argument("--channel", required=True)
    p.add_argument(
        "--a-grid",
        type=_float_list,
        default=[0.001, 0.01, 0.1, 0.5, 1.0],
        help="comma-separated dependence budgets",
    )
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("rates", help="achievable sum-rate curves")
    p.add_argument("--channel", required=True)
    p.add_argument("--n", type=_int_list, default=[1000], help="comma-separated blocklengths")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--k", type=_int_list, default=[1, 2], help="comma-separated K values")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("simulate", help="Monte Carlo error estimate for a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--validate-bound", action="store_true")
    p.add_argument("--bound-samples", type=int, default=100_000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("invcdf", help="single quantile of the S_K law")
    p.add_argument("--v1", type=float, required=True)
    p.add_argument("--v2", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_invcdf)

    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.func(args)
        output, extra = output if isinstance(output, tuple) else (output, {})
        _write_outputs(args, output, extra, started)
    except NonConvergence as exc:
        print(f"cfmac: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CfmacError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"cfmac: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
