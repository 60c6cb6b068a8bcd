"""Record the reference error counts the simulation checks compare against.

    python3 perfbench/reference.py        # rewrites perfbench/reference.json (~3 min)

For every simulation config of the benchmark this runs ``estimate_error``
(fresh codebooks every trial) at the config's shape and default thresholds,
with many more trials than one benchmark call and with seeds above 2^33,
outside the range the input generator draws from.  The fixed-code configs
get the ensemble rate at their shape: a single drawn code is checked
against the ensemble it was drawn from.  A deliberate change of the RNG
stream leaves these rates valid, so the file is not re-recorded for one.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cfmac  # noqa: E402

import inputs  # noqa: E402

SEED_BASE = 2**33
CHUNK = 256  # trials per call for the M=16 shapes, keeping one call under 1 GB
TRIALS = {
    "xor-n50-m4-k1": 262144,
    "xor-n50-m4-k4": 131072,
    "xor-n50-m4-k16": 65536,
    "adder2-n200-m16-k4": 4096,
    "adder2-type-n40-m4-k16": 65536,
    "adder2-n100-m16-k8": 4096,
    "xor-n100-m16-k8": 4096,
}


def main() -> None:
    specs = {**inputs.ENSEMBLE_CONFIGS, **inputs.FIXED_CODE_CONFIGS}
    out = {}
    for i, (name, spec) in enumerate(specs.items()):
        doc = inputs.sim_doc(spec, SEED_BASE + 1000 * i)
        cfg = cfmac.sim_config_from_dict(doc)
        chunk = CHUNK if cfg.m1_count >= 16 else TRIALS[name]
        errors = trials = 0
        for j in range(TRIALS[name] // chunk):
            rep = cfmac.estimate_error(dataclasses.replace(cfg, trials=chunk, seed=cfg.seed + j))
            errors += rep.errors
            trials += rep.trials
        out[name] = {"trials": trials, "errors": errors}
        print(name, out[name], flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
