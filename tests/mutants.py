"""Run the Tier-1 suite against one-line mutants of cfmac's formulas.

Each entry is (path, old line, new line, note): the mutant replaces the one
line of ``path`` that reads ``old`` with ``new``.  ``KILLED`` lists the
mutants that some test must catch, ``SURVIVORS`` the known ones that none
does yet, or that are likely equivalent.  Run from anywhere:

    python tests/mutants.py

Every mutant is applied in its own temporary copy of ``src``, ``tests`` and
``demos`` (with ``pyproject.toml``), where ``python -m pytest -x -q`` runs
on the copy's ``src``.  The unmutated copy runs first and must pass.  The
runner prints killed or survived per mutant and exits 1 when a mutant of
``KILLED`` survives.  It is a tool, not a test: it takes about a minute per
mutant on a 2-core host.  A change that adds a formula adds its mutants here.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "pyproject.toml")

CODE_SIM = "src/cfmac/code_sim.py"
RATES = "src/cfmac/rate_bounds.py"
DELTA = "src/cfmac/delta_curve.py"
BOUND = "    return (1.0 - p_unmatched) * fail_rate + _union(config, th) + p_unmatched"

KILLED = [
    (RATES, "    c_a = mac.x1_size * mac.x2_size + 1", "    c_a = mac.x1_size * mac.x2_size",
     "Thm-3's c_a without the +1"),
    (CODE_SIM, "_TIE_ULPS_PER_CELL = 16", "_TIE_ULPS_PER_CELL = 0", "a score-tie slack of 0 ulps"),
    ("src/cfmac/gauss_max.py", "_Z_CUTOFF = 12.0  # phi mass beyond |z|=12 is ~1.8e-33",
     "_Z_CUTOFF = 7.0", "the phi cutoff at 7 in place of 12"),
    (CODE_SIM, "    log_classes = classes * math.log(config.n + 1)  # iid: exactly 0.0",
     "    log_classes = classes * math.log(config.n)", "n type classes in _union, not n + 1"),
    (CODE_SIM, "    fail_rate = _clopper_pearson(fails, mc_samples, 0.01)[1]",
     "    fail_rate = _clopper_pearson(fails, mc_samples, 0.05)[1]",
     "fbl_bound at 95% in place of 99%"),
    (RATES, "    q_inv = float(ndtri(1.0 - q.eps))", "    q_inv = float(ndtri(q.eps))",
     "thm3's Q^-1(eps) as Q^-1(1 - eps)"),
    (CODE_SIM,
     "def _clopper_pearson(count: int, total: int, alpha: float = 0.05) -> tuple[float, float]:",
     "def _clopper_pearson(count: int, total: int, alpha: float = 0.10) -> tuple[float, float]:",
     "ci95 at 90% confidence"),
    (RATES, "    if k <= n:", "    if k < n:", "the theta3/theta4 edge at K = n"),
    (DELTA, "_ZERO_GAIN_SLACK = 1e-12", "_ZERO_GAIN_SLACK = 1e-3",
     "a zero-gain certificate slack of 1e-3 nats"),
    (CODE_SIM, BOUND, "    return (1.0 - p_unmatched) * fail_rate + _union(config, th)",
     "fbl_bound without p_unmatched"),
    (CODE_SIM, BOUND, "    return fail_rate + _union(config, th) + p_unmatched",
     "fbl_bound without the (1 - p_unmatched) factor"),
    (RATES, "        key=lambda s: s.v1,", "        key=lambda s: -s.v1,",
     "rate_report's capacity law of least V1"),
]
SURVIVORS = [
    (DELTA, "                if mi_12 > a_nats:", "                if mi_12 > 2 * a_nats:",
     "delta keeping candidates up to 2a: likely equivalent, every one is projected"),
]


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _hits(file: Path, old: str) -> list[int]:
    return [i for i, line in enumerate(file.read_text().split("\n")) if line == old]


def _mutate(tree: Path, path: str, old: str, new: str) -> None:
    file = tree / path
    lines = file.read_text().split("\n")
    lines[_hits(file, old)[0]] = new
    file.write_text("\n".join(lines))


def _passes(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0


def _run(mutant=None) -> bool:
    """Whether the suite passes on a copy of the tree, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy(tree)
        if mutant is not None:
            _mutate(tree, *mutant)
        return _passes(tree)


def main() -> int:
    for path, old, _, _ in KILLED + SURVIVORS:  # each old line once, before any run
        hits = len(_hits(ROOT / path, old))
        assert hits == 1, f"{path}: {hits} lines read {old!r}, not one"
    if not _run():
        print("the unmutated tree fails its tests: no mutant can be judged")
        return 1
    missed = 0
    for listed, mutants in (("killed", KILLED), ("survived", SURVIVORS)):
        for path, old, new, note in mutants:
            verdict = "survived" if _run((path, old, new)) else "killed"
            missed += listed == "killed" and verdict == "survived"
            flag = "" if verdict == listed else f"  (listed as {listed})"
            print(f"{verdict:8}  {path}: {note}{flag}", flush=True)
    total = len(KILLED + SURVIVORS)
    print(f"{total} mutants, {missed} of the {len(KILLED)} listed as killed survived")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
