"""One workload process: set up, run timed passes, check, report one JSON line.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
runner's monotonic clock reading just before it started this process, so
``setup_s`` covers interpreter start, imports and input generation.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_passes(workload, seconds: float) -> dict:
    """Repeat the pass while another one fits in ``seconds``; at least one.

    ``raw_s`` adds up, over the fixed call list, each call's median time
    over the passes.  With the workload's gauge set (see ``speed.py``), each
    pass also yields its gauge time, the median of the gauge samples taken
    between its calls; ``wall_s`` adds up each call's median ratio to its
    pass's gauge time, times the gauge's reference time: the pass time at
    the reference host speed.  Also returns the number of passes, the number
    of checked calls, the descriptions of failed ones, and the steps of the
    last pass.
    """
    times: list[list[float]] = []
    samples: list[list[float]] = []
    passes, attempted, failures = 0, 0, []
    started = time.perf_counter()
    while True:
        workload.gauge_samples = []
        t0 = time.perf_counter()
        steps = workload.run_pass()
        wall = time.perf_counter() - t0
        times.append([s.seconds for s in steps])
        samples.append(workload.gauge_samples)
        passes += 1
        verdicts = workload.check_pass(steps)
        attempted += len(verdicts)
        failures += [f"{s.label}@{s.target}: {v}" for s, v in zip(steps, verdicts) if v is not None]
        if time.perf_counter() - started + wall > seconds:
            break
    by_step = list(zip(*times))
    out = {"raw_s": sum(statistics.median(t) for t in by_step), "passes": passes,
           "attempted": attempted, "failures": failures, "steps": steps}
    if workload.gauge is not None:
        levels = [statistics.median(g) for g in samples]
        out["wall_s"] = speed.REFERENCE_S * sum(
            statistics.median(t / g for t, g in zip(step, levels)) for step in by_step)
        out["gauge_s"] = statistics.median(levels)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import workloads

    workdir = Path(args.workdir)
    try:
        spec = inputs.build(args.workload, args.seed, workdir, tiny=args.tiny)
        references = json.loads((HERE / "reference.json").read_text())
        workload = workloads.WORKLOADS[args.workload](spec, references)
        setup_s = time.monotonic() - args.t0
        gauge = speed.Gauge()
        gauge.sample()  # warm-up
        setup_gauge_s = statistics.median(gauge.sample() for _ in range(5))
        setup = {"setup_s": setup_s * speed.REFERENCE_S / setup_gauge_s, "setup_raw_s": setup_s}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        workload.gauge = gauge
        budget = args.seconds / 2 if args.trace else args.seconds
        run = run_passes(workload, budget)
        workload.gauge = None
        result = dict(
            setup,
            wall_s=run["wall_s"],
            raw_s=run["raw_s"],
            host_speed=speed.REFERENCE_S / run["gauge_s"],
            passes=run["passes"],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            sim_trials_per_s=workload.rate("trials"),
            bound_samples_per_s=workload.rate("samples"),
            trials_per_s={c: workload.rate("trials", c) for c in workload.configs},
        )
        attempted, failures = run["attempted"], run["failures"]
        if args.trace:
            result["layers"], result["traced_passes"], more, more_failures = traced_run(
                workload, args, result)
            attempted += more
            failures += more_failures
        result.update(attempted=attempted, failed=len(failures), failures=failures[:20])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_run(workload, args, untraced: dict):
    """Traced passes over the same call list, then the probes.

    Returns the per-layer metrics, the number of traced passes, and the
    checked calls and failures of those passes.
    """
    import cfmac
    import layers
    from spans import Tracer

    tracer = Tracer()
    tracer.install([cfmac] + [getattr(cfmac, m) for m in
                              ("channel", "gauss_max", "delta_curve", "rate_bounds", "code_sim", "cli")])
    workload.tracer = tracer
    workload.trace_memory = True
    run = run_passes(workload, args.seconds / 2)
    workload.trace_memory = False
    workload.probe()
    reports = {s.target: s.output for s in run["steps"]
               if s.label in ("estimate_error", "estimate_error_fixed_code") and s.error is None}
    extra = {
        "peak_mb": workload.peak_mb,
        "reports": reports,
        "sim_trials_per_s": untraced["sim_trials_per_s"] or 0.0,
        "bound_samples_per_s": untraced["bound_samples_per_s"] or 0.0,
        "trials_per_s": untraced["trials_per_s"],
        "overhead_frac": run["raw_s"] / untraced["raw_s"] - 1.0,
    }
    out = HERE / "_spans"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"{args.workload}-seed{args.seed}.json")
    return (layers.derive(tracer.spans, run["passes"], extra), run["passes"],
            run["attempted"], run["failures"])


if __name__ == "__main__":
    sys.exit(main())
