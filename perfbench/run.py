"""cfmac benchmark runner.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {sim-ensemble,sim-fixed-code,analytic,all}
                             --seed N --seconds S --trace {0,1}

Each workload runs in a worker process of its own (one caller, no extra
threads; BLAS threads capped at the core count).  ``setup_s`` is the median
over several worker starts of the time from process start to the first timed
call.  The worker repeats the workload's fixed call list while another pass
fits in ``--seconds``; ``wall_s`` adds up each call's median time over those
passes, the time of one pass over the list.  Both are scaled to a reference
host speed by the gauge in ``speed.py``; the summary prints them unscaled
too.  With ``--trace 1`` half the time runs untraced and half traced, and
the per-layer metrics of BENCHMARK.json are reported instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable summary of
all end-to-end figures, including those the JSON line does not carry, comes
before it.  ``--workload all`` runs every workload in turn.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-ensemble", "sim-fixed-code", "analytic")
SETUP_PROBES = 4  # extra worker starts that stop after set-up; the measured run adds one
WORKER_TIMEOUT_S = 140  # plus --seconds: every worker of a run, set-up probes included


def _worker_env(cores: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cores)
    return env


def _start_worker(args, extra: list[str], env: dict, deadline: float) -> dict:
    """Run one worker process and return the JSON record on its last line."""
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}-{time.monotonic_ns()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)] + extra
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - t0, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, spec: dict, cores: int) -> dict:
    env = _worker_env(cores)
    deadline = time.monotonic() + WORKER_TIMEOUT_S + args.seconds
    tiny = ["--tiny"] if args.tiny else []
    setups = [_start_worker(args, ["--setup-only"] + tiny, env, deadline)
              for _ in range(SETUP_PROBES)]
    rec = _start_worker(args, tiny, env, deadline)
    setups.append(rec)
    for key in ("setup_s", "setup_raw_s"):
        rec[key] = statistics.median(s[key] for s in setups)
    rec["setup_samples"] = len(setups)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = rec["layers"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = {k: rec[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}
        names = [m["name"] for m in spec["end_to_end"]]
    if sorted(values) != sorted(names):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    rec["metrics"] = {n: {"value": values[n], "unit": units[n]} for n in names}
    return rec


def summary(args, rec: dict, cores: int) -> str:
    def fmt(value, unit, note):
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        return f"  {shown:<22} {note}"

    passes = rec["passes"]
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} cores={cores}"]
    rows = [
        ("setup_s", rec["setup_s"], "s",
         f"median of {rec['setup_samples']} process starts, at reference host speed"),
        ("wall_s", rec["wall_s"], "s",
         f"per-call median of {passes} untraced passes, at reference host speed, summed"),
        ("setup_raw_s", rec["setup_raw_s"], "s", "setup_s as measured, not scaled"),
        ("wall_raw_s", rec["raw_s"], "s", "wall_s as measured, not scaled"),
        ("host_speed", rec["host_speed"], "", "gauge reference time / median gauge time"),
        ("sim_trials_per_s", rec["sim_trials_per_s"], "1/s", "trials / time in trial calls"),
        ("bound_samples_per_s", rec["bound_samples_per_s"], "1/s", "fbl_bound samples / time in it"),
        ("peak_rss_mb", rec["peak_rss_mb"], "MB", "peak resident memory of the worker"),
        ("failed_frac", rec["failed"] / rec["attempted"], "",
         f"{rec['failed']} of {rec['attempted']} checked calls failed"),
    ]
    lines += [f"{name:<20}" + fmt(v, u, note) for name, v, u, note in rows]
    if args.trace:
        lines.append(f"traced passes: {rec['traced_passes']}; per-layer metrics in the JSON line; "
                     f"spans in perfbench/_spans/")
    lines += [f"FAILED {f}" for f in rec["failures"]]
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="scaled-down inputs, for the smoke check")
    args = ap.parse_args()

    if not (ROOT / "src" / "cfmac" / "__init__.py").is_file():
        print(f"perfbench: no cfmac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cores = len(os.sched_getaffinity(0))
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        args.workload = workload
        try:
            rec = run_workload(args, spec, cores)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        print(summary(args, rec, cores))
        print(json.dumps({
            "correct": rec["failed"] == 0,
            "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": rec["metrics"],
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
