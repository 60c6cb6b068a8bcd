"""Print the figures ``TestStreamGolden`` pins, as the current random stream gives them.

After a deliberate change of the random stream, bump
``code_sim.STREAM_VERSION`` and re-record the class's figures with

    PYTHONPATH=src python tests/stream_golden.py

from the repository root; the output is laid out as the class's ``VERSION``,
the figure line of each ``CASES`` entry and the figures of
``test_codebooks_facilitator_and_fixed_code``.  The block sizes come from
``_trial_bytes`` (ensemble trials) and ``_bound_sample_bytes`` (bound samples,
with the configuration's score groups).
"""
from dataclasses import replace

from cfmac import code_sim
from cfmac.code_sim import (
    SimConfig,
    draw_codebooks,
    estimate_error,
    estimate_error_fixed_code,
    facilitate,
)
from test_code_sim import TestStreamGolden, _bound_bytes

TALLY = ("threshold_miss", "impostor_pass", "ambiguity", "type_miss")


def case_figures(kw: dict, samples: int) -> tuple:
    """(trials per block, errors, tally, (bound samples, threshold fails)) of one case."""
    cfg = SimConfig(**kw)
    blocks = (
        code_sim._BLOCK_BYTES
        // code_sim._trial_bytes(cfg.mac, cfg.n, cfg.m1_count, cfg.m2_count, cfg.k),
        code_sim._BLOCK_BYTES // _bound_bytes(cfg),
    )
    rep = estimate_error(cfg)
    fails, _ = code_sim._bound_terms(cfg, cfg.resolved_thresholds(), samples, seed=3)
    return blocks, rep.errors, tuple(rep.decomposition[k] for k in TALLY), (samples, fails)


def code_figures() -> list[str]:
    """The single-shot draws, facilitator tables and fixed-code report the class pins."""
    cfg = SimConfig(**TestStreamGolden.CASES["noisy-adder-iid"][0])
    cb = draw_codebooks(cfg.mac, cfg.dist, cfg.n, 3, 2, 3, "iid", seed=9)
    table = facilitate(cb, cfg.mac, cfg.dist, "iid")
    rep = estimate_error_fixed_code(cb, table, replace(cfg, trials=2000))
    kw = TestStreamGolden.CASES["noisy-adder-type"][0]
    cb_type = draw_codebooks(kw["mac"], kw["dist"], kw["n"], 2, 2, 8, "type", seed=9)
    table_type = facilitate(cb_type, kw["mac"], kw["dist"], "type", seed=4)
    return [
        f'cb.f1[0, 0]: "{"".join(map(str, cb.f1[0, 0]))}"',
        f'cb.f2[1, 2]: "{"".join(map(str, cb.f2[1, 2]))}"',
        f"iid table.e: {table.e.tolist()}",
        f"fixed code (errors, threshold_miss): {(rep.errors, rep.decomposition['threshold_miss'])}",
        f"type table.e: {table_type.e.tolist()}",
        f"type table.unmatched: {table_type.unmatched.tolist()}",
    ]


def main() -> None:
    print(f"VERSION = {code_sim.STREAM_VERSION}")
    for name, (kw, _, _, _, (samples, _)) in TestStreamGolden.CASES.items():
        blocks, errors, tally, (samples, fails) = case_figures(kw, samples)
        print(f'"{name}": {blocks}, {errors}, {tally}, ({samples:_}, {fails}),')
    print("\n".join(code_figures()))


if __name__ == "__main__":
    main()
