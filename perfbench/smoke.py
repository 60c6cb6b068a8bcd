"""Smoke check of the benchmark itself, at tiny input sizes (~2 min).

    python3 perfbench/smoke.py

1. Runs every workload untraced and traced with ``--tiny`` and checks the
   result line: exactly the keys of the contract, every metric name of
   BENCHMARK.json for the mode, numeric values, no failed call.
2. Feeds every correctness check a wrong output and checks that it fails,
   and checks that a call that raises counts as failed.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark files and checks that it exits nonzero without a result line.

Exits nonzero with a list of problems if anything is off.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402

KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_result_lines(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [x["name"] for x in spec["workloads"]]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", trace, "--tiny")
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"] for m in spec[group]}
            if set(res) != KEYS:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if set(res["metrics"]) != want:
                problems.append(f"{tag}: metric names differ: {sorted(set(res['metrics']) ^ want)}")
            for name, v in res["metrics"].items():
                if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
                    problems.append(f"{tag}: {name} = {v}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']} "
                                f"attempted={res['attempted']}\n{proc.stdout}")


def report(errors: int, trials: int, tallies: dict):
    return SimpleNamespace(errors=errors, trials=trials,
                           decomposition={k: tallies.get(k, 0) for k in w.TALLY_KEYS})


def check_checks_can_fail(problems: list[str]) -> None:
    ref = {"errors": 1000, "trials": 100000}
    fig1_ok = "log2_k,quantile,lemma1_lower,lemma1_upper\n0,-3.0,NA,5.0\n1,-2.0,NA,6.0\n"
    rates_head = "n,K,eps,thm2,thm3,baseline,best,regime\n"
    adder = {"c_sum": 1.5, "mutual_info": 1.5, "v1_star": 0.25}
    cb = SimpleNamespace(f1=np.zeros((2, 1, 3), int), f2=np.full((2, 1, 3), 2))
    cases = {
        "error count outside band": w.check_error_count(100, 1000, ref),
        "tallies do not sum to errors": w.check_report(report(10, 1000, {"ambiguity": 9}), ref),
        "report outside band": w.check_report(report(0, 100000, {}), ref),
        "bound below ci lower end": w.check_bound(0.01, 0.02),
        "bound not finite": w.check_bound(math.nan, 0.0),
        "codebook symbol outside alphabet": w.check_codebooks(cb, 2, 1, 3, 2),
        "facilitator index outside [K]": w.check_table(SimpleNamespace(e=np.full((2, 2), 4)), 2, 4),
        "adder2 c_sum": w.check_stats(dict(adder, c_sum=1.4, mutual_info=1.4), "adder2", 3, 4),
        "adder2 v1_star": w.check_stats(dict(adder, v1_star=0.3), "adder2", 3, 4),
        "xor c_sum": w.check_stats({"c_sum": 0.6, "mutual_info": 0.6, "v1_star": 0.0}, "xor0.11", 2, 4),
        "c_sum above log alphabet": w.check_stats({"c_sum": 1.2, "mutual_info": 1.2}, "dir2x2x3", 2, 4),
        "mutual_info off c_sum": w.check_stats({"c_sum": 0.5, "mutual_info": 0.4}, "dir2x2x3", 3, 4),
        "delta decreasing": w.check_delta("a,delta,achieved_mi_budget\n0.1,0.2,0.1\n1.0,0.1,0.5\n"),
        "delta over budget": w.check_delta("a,delta,achieved_mi_budget\n0.1,0.2,0.3\n"),
        "delta empty": w.check_delta("a,delta,achieved_mi_budget\n"),
        "best below baseline": w.check_rates(rates_head + "100,2,0.01,1.0,NA,1.2,1.1,theta1\n"),
        "rates empty": w.check_rates(rates_head),
        "fig1 not increasing": w.check_fig1(fig1_ok.replace("-2.0", "-3.5")),
        "fig1 above upper bound": w.check_fig1(fig1_ok.replace("6.0", "-2.5")),
        "fig1 below lower bound": w.check_fig1(fig1_ok.replace("1,-2.0,NA", "1,-2.0,-1.0")),
        "invcdf achieved probability": w.check_invcdf({"achieved_probability": 0.01 + 2e-9, "eps": 0.01}),
        "grid max above c_sum": w.check_oracle(1.6, 1.5, 51),
        "grid max far below c_sum": w.check_oracle(1.4, 1.5, 51),
    }
    passing = {
        "fig1 sample passes": w.check_fig1(fig1_ok),
        "adder2 sample passes": w.check_stats(adder, "adder2", 3, 4),
        "band holds at the reference rate": w.check_error_count(10, 1000, ref),
    }
    problems += [f"check did not fail: {k}" for k, v in cases.items() if v is None]
    problems += [f"check failed on good data: {k}: {v}" for k, v in passing.items() if v is not None]

    class Raising(w.Workload):
        def run_pass(self):
            steps = []
            self._call(steps, "boom", "x", lambda: 1 / 0)
            return steps

        def check(self, step, steps):
            return None

    verdicts = Raising({}, {}).check_pass(Raising({}, {}).run_pass())
    if verdicts[0] is None:
        problems.append("a raising call was not counted as failed")


def check_stripped_directory(problems: list[str]) -> None:
    bare = HERE / "_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "_spans", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "--workload", "analytic", "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    check_checks_can_fail(problems)
    check_stripped_directory(problems)
    check_result_lines(problems)
    for p in problems:
        print("PROBLEM", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
