"""Print one ``name sha256`` line per CLI and library output of cfmac.

A refactor must keep every output byte-identical.  Compare this tree with a
git revision:

    python tests/output_digest.py --against HEAD~1

checks the revision out into a temporary local ``git worktree``, runs its
copy of this script and this tree's, each on its own ``src``, side by side,
prints a unified diff of the two digests and exits 1 when they differ (0 when
they agree).  It needs no network, and removes the worktree when done.
Without ``--against`` the script prints the digest of the tree it sits in:

    python tests/output_digest.py > after.txt

The CLI runs in-process through ``cfmac.cli.main`` and writes to stdout: no
``--out``, so no manifest and no wall time enters a digest.  Library results
are hashed from exact forms: array bytes with their dtype and shape, floats by
``repr``, reports as sorted JSON.  Covered:

- CLI ``stats`` (also with ``--dist``, a product and a joint law), ``delta``
  (the default grid, and a = 0 alone) and ``rates`` (``--n 100,1000 --k
  1,2,16,1099511627776``), in bits and nats, on adder2, xor:0.11 and
  Dirichlet 2x2x3 and 4x4x5 kernels drawn from a fixed seed.  K = 2^40 at
  n = 100 gives the 2x2 kernels a positive Thm-3 budget, so the rates hash
  the delta path as well as the fallback;
- CLI ``fig1`` (the default K range, and up to K = 2^60, past the 2^53 from
  which the S_K law takes K through ln K), five ``invcdf`` calls (one where
  the max term's step is sharp, one at K = 2^1100), and
  ``simulate`` with and without ``--validate-bound`` on the README config, an
  iid config and a type-mode config;
- per config: ``draw_codebooks``, ``facilitate``, 8 ``threshold_decode``
  results, ``estimate_error_fixed_code``, ``estimate_error``, ``fbl_bound``
  and ``cooperation_gain``;
- ``estimate_error_fixed_code`` of a code large enough to be decoded in
  chunks: adder2 at n = 1000, M1 = M2 = 64, K = 4, 64 trials, with a c12
  that about half the trials miss;
- ``estimate_error`` whose blocks are decoded in several chunks: adder2 at
  n = 100, M1 = M2 = 16, K = 1, 1000 trials (blocks of 462 trials, chunks
  of 97), with a c12 that about half the trials miss;
- ``threshold_decode`` calls that switch between the configs' codes (A, B,
  A, C, C, B, A), so a code decoded right after another and a code decoded
  twice in a row are both hashed.

The tool pins BLAS to one thread before numpy is imported: the thread count
changes the summation order of BLAS products, so the ``stats``, ``delta`` and
``rates`` lines would move in the last digit between hosts or settings.

It takes about 20 s on a 2-core host, ``--against`` about as long when two
cores are free.
"""
from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# before numpy loads BLAS, which reads these once
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# the tree this script sits in is the one it digests
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import cfmac
import cfmac.cli

# the benchmark's fixed kernel seed: the same 2x2x3 and 4x4x5 draws, in order
KERNEL_SEED = 210201247
DIRICHLET_SHAPES = {"dir2x2x3": (2, 2, 3), "dir4x4x5": (4, 4, 5)}
LAW_SEED = 7

README_CONFIG = {
    "channel": "adder2",
    "dist": {"p1": [0.5, 0.5], "p2": [0.5, 0.5]},
    "n": 20, "m1_count": 2, "m2_count": 2, "k": 2,
    "mode": "iid", "trials": 100000, "seed": 7,
}
SIM_CONFIGS = {
    "readme": README_CONFIG,
    "iid": {
        "channel": "xor:0.11", "dist": {"p1": [0.5, 0.5], "p2": [0.4, 0.6]},
        "n": 50, "m1_count": 4, "m2_count": 3, "k": 4,
        "mode": "iid", "trials": 20000, "seed": 3, "units": "nats",
    },
    "type": {
        "channel": "adder2", "dist": {"p12": [[0.25, 0.25], [0.25, 0.25]]},
        "n": 40, "m1_count": 2, "m2_count": 2, "k": 8,
        "mode": "type", "trials": 20000, "seed": 1,
    },
}
INVCDF = [
    ("1", "1", "1024", "0.01"),
    ("0.25", "0", "16", "0.1"),
    ("0.7", "1.3", "1099511627776", "0.001"),
    # V1 << V2 at K = 2^60: the max term's step is sharp against phi
    ("0.002354875604694378", "7.124048492005976", str(2**60), "0.5"),
    ("1", "1", str(2**1100), "0.01"),  # K past the float range
]
RATE_KS = "1,2,16,1099511627776"
BOUND_SAMPLES = "20000"
DECODES = 8
SWITCHES = ("readme", "iid", "readme", "type", "type", "iid", "readme")
# d12 of a sent adder2 pair is n plus its count of x1 = x2, in bits; that count is
# about 516 for the best of K = 4 pairs, so about half the trials miss c12
LARGE_CODE = {**README_CONFIG, "n": 1000, "m1_count": 64, "m2_count": 64, "k": 4,
              "trials": 64, "seed": 3, "thresholds": {"c12": 1515.5, "c1": 11.0, "c2": 11.0}}
# at K = 1, d12 of the sent pair is n plus its count of x1 = x2, about 150 bits
CHUNKED_ENSEMBLE = {**README_CONFIG, "n": 100, "m1_count": 16, "m2_count": 16, "k": 1,
                    "trials": 1000, "seed": 5,
                    "thresholds": {"c12": 150.5, "c1": 11.0, "c2": 11.0}}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _array(a) -> bytes:
    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cfmac.cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _write(name: str, doc) -> str:
    """Write ``doc`` to ``name`` in the working directory; the CLI echoes the name."""
    Path(name).write_text(json.dumps(doc))
    return name


def _channels() -> dict:
    """Label -> (CLI channel reference, product law file, joint law file)."""
    refs = {"adder2": ("adder2", 2, 2), "xor0.11": ("xor:0.11", 2, 2)}
    rng = np.random.default_rng(KERNEL_SEED)
    for label, (a1, a2, ny) in DIRICHLET_SHAPES.items():
        kernel = rng.dirichlet(np.ones(ny), size=(a1, a2))
        doc = {"x1_size": a1, "x2_size": a2, "y_size": ny, "kernel": kernel.tolist()}
        refs[label] = (_write(f"{label}.json", doc), a1, a2)
    laws = np.random.default_rng(LAW_SEED)
    out = {}
    for label, (ref, a1, a2) in refs.items():
        p1, p2 = laws.dirichlet(np.ones(a1)), laws.dirichlet(np.ones(a2))
        p12 = laws.dirichlet(np.ones(a1 * a2)).reshape(a1, a2)
        product = _write(f"{label}.product.json", {"p1": p1.tolist(), "p2": p2.tolist()})
        joint = _write(f"{label}.joint.json", {"p12": p12.tolist()})
        out[label] = (ref, product, joint)
    return out


def cli_digests():
    for label, (ref, product, joint) in _channels().items():
        for units in ("bits", "nats"):
            u = ["--units", units]
            yield f"stats.{label}.{units}", _cli(u + ["stats", "--channel", ref])
            yield f"stats.{label}.{units}.product", _cli(
                u + ["stats", "--channel", ref, "--dist", product]
            )
            yield f"stats.{label}.{units}.joint", _cli(
                u + ["stats", "--channel", ref, "--dist", joint]
            )
            yield f"delta.{label}.{units}", _cli(u + ["delta", "--channel", ref])
            yield f"delta.{label}.{units}.a0", _cli(
                u + ["delta", "--channel", ref, "--a-grid", "0"]
            )
            yield f"rates.{label}.{units}", _cli(
                u + ["rates", "--channel", ref, "--n", "100,1000", "--k", RATE_KS]
            )
    yield "fig1", _cli(["fig1"])
    yield "fig1.kmax60", _cli(["fig1", "--kmax-log2", "60"])
    for v1, v2, k, eps in INVCDF:
        k_name = k if len(k) < 30 else f"2^{int(k).bit_length() - 1}"
        yield f"invcdf.{v1}.{v2}.{k_name}.{eps}", _cli(
            ["invcdf", "--v1", v1, "--v2", v2, "--k", k, "--eps", eps]
        )
    for name, doc in SIM_CONFIGS.items():
        path = _write(f"sim.{name}.json", doc)
        yield f"simulate.{name}", _cli(["simulate", "--config", path])
        yield f"simulate.{name}.validate-bound", _cli(
            ["simulate", "--config", path, "--validate-bound", "--bound-samples", BOUND_SAMPLES]
        )


def _received_words(cb, table, mac, rng):
    """Words sent through the channel by a few message pairs, then uniform words."""
    cdf = np.cumsum(mac.kernel, axis=-1)
    m1c, m2c = table.e.shape
    for i in range(DECODES):
        if i < DECODES // 2:
            m1, m2 = i % m1c, (i // 2) % m2c
            k = table.e[m1, m2]
            x1, x2 = cb.f1[m1, k], cb.f2[m2, k]
            yield (rng.random(cb.n)[:, None] >= cdf[x1, x2][:, :-1]).sum(axis=-1)
        else:
            yield rng.integers(0, mac.y_size, size=cb.n)


def _code(doc):
    cfg = cfmac.sim_config_from_dict(doc)
    cb = cfmac.draw_codebooks(
        cfg.mac, cfg.dist, cfg.n, cfg.m1_count, cfg.m2_count, cfg.k, cfg.mode, cfg.seed
    )
    return cfg, cb, cfmac.facilitate(cb, cfg.mac, cfg.dist, cfg.mode, cfg.seed)


def library_digests():
    for name, doc in SIM_CONFIGS.items():
        cfg, cb, table = _code(doc)
        yield f"lib.{name}.draw_codebooks", _array(cb.f1) + _array(cb.f2)
        unmatched = b"" if table.unmatched is None else _array(table.unmatched)
        yield f"lib.{name}.facilitate", _array(table.e) + unmatched
        th = cfg.resolved_thresholds()
        rng = np.random.default_rng(cfg.seed)
        for i, y in enumerate(_received_words(cb, table, cfg.mac, rng)):
            result = cfmac.threshold_decode(y, cb, table, th, cfg.mac, cfg.dist)
            yield f"lib.{name}.threshold_decode.{i}", repr(result)
        report = cfmac.estimate_error_fixed_code(cb, table, cfg)
        yield f"lib.{name}.estimate_error_fixed_code", json.dumps(report.to_dict(), sort_keys=True)
        report = cfmac.estimate_error(cfg)
        yield f"lib.{name}.estimate_error", json.dumps(report.to_dict(), sort_keys=True)
        yield f"lib.{name}.fbl_bound", repr(cfmac.fbl_bound(cfg, mc_samples=int(BOUND_SAMPLES)))
        q = cfmac.RateQuery(cfg.n, 0.01, cfg.k, cfg.units)
        yield f"lib.{name}.cooperation_gain", json.dumps(
            cfmac.cooperation_gain(cfg.mac, q), sort_keys=True
        )
    cfg, cb, table = _code(LARGE_CODE)
    report = cfmac.estimate_error_fixed_code(cb, table, cfg)
    yield "lib.large.estimate_error_fixed_code", json.dumps(report.to_dict(), sort_keys=True)
    report = cfmac.estimate_error(cfmac.sim_config_from_dict(CHUNKED_ENSEMBLE))
    yield "lib.chunked.estimate_error", json.dumps(report.to_dict(), sort_keys=True)


def switching_decodes():
    """Each step decodes the next of its config's received words."""
    codes, words = {}, {}
    for name, doc in SIM_CONFIGS.items():
        cfg, cb, table = _code(doc)
        codes[name] = cfg.resolved_thresholds(), cb, table, cfg.mac, cfg.dist
        words[name] = _received_words(cb, table, cfg.mac, np.random.default_rng(cfg.seed))
    for step, name in enumerate(SWITCHES):
        th, cb, table, mac, dist = codes[name]
        result = cfmac.threshold_decode(next(words[name]), cb, table, th, mac, dist)
        yield f"lib.switching.{step}.{name}.threshold_decode", repr(result)


def print_digest() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative file names: ``stats`` echoes its channel reference
        try:
            for name, data in cli_digests():
                print(name, _sha(data), flush=True)
        finally:
            os.chdir(home)
    for name, data in [*library_digests(), *switching_decodes()]:
        print(name, _sha(data), flush=True)


def _digest_of(tree: Path) -> subprocess.Popen:
    """This script of ``tree`` run on ``tree/src``, its digest on a pipe."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.Popen(
        [sys.executable, str(tree / "tests" / "output_digest.py")],
        env=env, stdout=subprocess.PIPE, text=True,
    )


def _lines(proc: subprocess.Popen, what: str) -> list[str]:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"the digest of {what} exited with {proc.returncode}")
    return out.splitlines()


def against(rev: str) -> int:
    """Diff the digest of ``rev`` with this tree's; 1 on any difference."""
    git = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(git + ["add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            procs = {rev: _digest_of(tree), "this tree": _digest_of(ROOT)}
            before, after = (_lines(proc, what) for what, proc in procs.items())
        finally:
            subprocess.run(git + ["remove", "--force", str(tree)], check=True)
    diff = list(difflib.unified_diff(before, after, rev, "this tree", lineterm=""))
    print("\n".join(diff) if diff else f"{len(after)} lines, identical to {rev}")
    return 1 if diff else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare this tree with")
    args = parser.parse_args()
    if args.against is not None:
        return against(args.against)
    print_digest()
    return 0


if __name__ == "__main__":
    sys.exit(main())
