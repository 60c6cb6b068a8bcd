"""Command-line surface: channel statistics, quantile curves, rate curves, simulation.

Outputs are CSV for curves and JSON for structured reports.  When ``--out``
is given, a run manifest (command, parameters, version, seed, wall time,
output paths; for ``simulate`` also the RNG stream version) is written next
to the output file and every output file references it: CSV files carry a
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

from . import __version__
from .channel import (
    JointDist,
    Mac,
    ProductDist,
    channel_stats,
    load_channel,
    named_channel,
    sum_capacity,
)
from .code_sim import (
    STREAM_VERSION,
    estimate_error,
    fbl_bound,
    sim_config_from_dict,
    sim_config_to_dict,
)
from .errors import CfmacError, NonConvergence
from .gauss_max import SkParams, lemma1_bounds, sk_inverse_cdf
from .rate_bounds import RateQuery, rate_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def _fmt(x: float) -> str:
    """Canonical float text: shortest repr that parses back exactly."""
    return repr(float(x))


def _resolve_channel(ref: str) -> Mac:
    if ref == "adder2" or ref.startswith("xor:"):
        return named_channel(ref)
    path = Path(ref)
    if not path.exists():
        raise FileNotFoundError(f"channel file not found: {ref}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CfmacError(f"cannot parse channel file {ref}: line {exc.lineno}: {exc.msg}") from exc
    return load_channel(doc)


def _load_dist(path_str: str):
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(f"distribution file not found: {path_str}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CfmacError(
            f"cannot parse distribution file {path_str}: line {exc.lineno}: {exc.msg}"
        ) from exc
    if "p12" in doc:
        return JointDist(np.asarray(doc["p12"], dtype=float))
    return ProductDist(np.asarray(doc["p1"], dtype=float), np.asarray(doc["p2"], dtype=float))


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_outputs(
    args, rows: list[str] | None, doc: dict | None, started: float, extra: dict | None = None
) -> None:
    """Emit CSV rows or a JSON document, with a manifest when --out is set.

    ``extra`` holds further manifest fields of the subcommand.
    """
    if args.out is None:
        if rows is not None:
            sys.stdout.write("\n".join(rows) + "\n")
        else:
            sys.stdout.write(_json_text(doc))
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
        **(extra or {}),
    }
    if rows is not None:
        body = f"# manifest: {manifest_path.name}\n" + "\n".join(rows) + "\n"
    else:
        doc = dict(doc)
        doc["manifest"] = manifest_path.name
        body = _json_text(doc)
    out_path.write_text(body)
    manifest_path.write_text(_json_text(manifest))


# ---------------------------------------------------------------------------
# subcommands


def cmd_stats(args, started: float) -> int:
    mac = _resolve_channel(args.channel)
    cap = sum_capacity(mac, units=args.units)
    doc = {
        "channel": args.channel,
        "units": args.units,
        "c_sum": cap.c_sum,
        "v1_star": cap.v1_star,
        "maximizers": [
            {"p1": np.asarray(d.p1).tolist(), "p2": np.asarray(d.p2).tolist()}
            for d in cap.argmax_dists
        ],
    }
    dist = _load_dist(args.dist) if args.dist else cap.argmax_dists[0]
    stats = channel_stats(mac, dist, units=args.units)
    doc.update(
        {
            "mutual_info": stats.mutual_info,
            "v1": stats.v1,
            "v2": stats.v2,
            "v_max": stats.v_max,
        }
    )
    _write_outputs(args, None, doc, started)
    return EXIT_OK


def cmd_fig1(args, started: float) -> int:
    rows = ["log2_k,quantile,lemma1_lower,lemma1_upper"]
    for log2_k in range(args.kmin_log2, args.kmax_log2 + 1):
        p = SkParams(args.v1, args.v2, 2 ** log2_k)
        q = sk_inverse_cdf(p, args.eps).value
        b = lemma1_bounds(p, args.eps)
        lower = _fmt(b.lower_at_eps) if b.lower_at_eps is not None else "NA"
        rows.append(f"{log2_k},{_fmt(q)},{lower},{_fmt(b.upper_at_one_minus_eps)}")
    _write_outputs(args, rows, None, started)
    return EXIT_OK


def cmd_delta(args, started: float) -> int:
    from .delta_curve import delta

    mac = _resolve_channel(args.channel)
    cap = sum_capacity(mac, units=args.units)
    rows = ["a,delta,achieved_mi_budget"]
    for a in args.a_grid:
        point = delta(mac, a, units=args.units, capacity=cap)
        rows.append(f"{_fmt(a)},{_fmt(point.delta)},{_fmt(point.achieved_mi_budget)}")
    _write_outputs(args, rows, None, started)
    return EXIT_OK


def cmd_rates(args, started: float) -> int:
    mac = _resolve_channel(args.channel)
    cap = sum_capacity(mac, units=args.units)
    k_grid = sorted(set(args.k) | {1})  # baseline K=1 always included
    rows = ["n,K,eps,thm2,thm3,baseline,best,regime"]
    for n in args.n:
        for k in k_grid:
            rep = rate_report(mac, RateQuery(n, args.eps, k, args.units), capacity=cap)
            thm2 = _fmt(rep.thm2_rate) if rep.thm2_rate is not None else "NA"
            thm3 = _fmt(rep.thm3_rate) if rep.thm3_rate is not None else "NA"
            rows.append(
                f"{n},{k},{_fmt(args.eps)},{thm2},{thm3},"
                f"{_fmt(rep.baseline_rate)},{_fmt(rep.best_rate)},{rep.regime}"
            )
    _write_outputs(args, rows, None, started)
    return EXIT_OK


def cmd_simulate(args, started: float) -> int:
    path = Path(args.config)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {args.config}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CfmacError(
            f"cannot parse config file {args.config}: line {exc.lineno}: {exc.msg}"
        ) from exc
    config = sim_config_from_dict(doc)
    if args.trials is not None:
        config = dataclasses.replace(config, trials=args.trials)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = estimate_error(config)
    out = report.to_dict()
    out["config"] = sim_config_to_dict(config)
    if args.validate_bound:
        bound = fbl_bound(config, mc_samples=args.bound_samples)
        out["fbl_bound"] = bound
        out["bound_dominates_ci_lower"] = bool(bound >= report.ci95[0])
    _write_outputs(args, None, out, started, extra={"stream_version": STREAM_VERSION})
    return EXIT_OK


def cmd_invcdf(args, started: float) -> int:
    result = sk_inverse_cdf(SkParams(args.v1, args.v2, args.k), args.eps)
    doc = {
        "v1": args.v1,
        "v2": args.v2,
        "k": args.k,
        "eps": args.eps,
        "quantile": result.value,
        "achieved_probability": result.achieved_probability,
    }
    _write_outputs(args, None, doc, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmac",
        description="Finite-blocklength coordination benefits on two-user MACs.",
    )
    parser.add_argument("--units", choices=("bits", "nats"), default="bits")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None, help="output file path")
    parser.add_argument("--json", action="store_true", help="force JSON output where applicable")
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
        return args.func(args, started)
    except NonConvergence as exc:
        print(f"cfmac: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CfmacError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"cfmac: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
