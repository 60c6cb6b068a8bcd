"""Symbol-by-symbol reference for the Monte Carlo term of ``fbl_bound``.

``reference_bound_samples`` draws each sample's K codeword pairs and its
received word symbol by symbol and runs them through the ensemble's trial
loop with M1 = M2 = 1, as the bound's sampler did up to stream version 3.
The count-law sampler that replaced it draws the same counts from their
exact laws, so the tests require the two to agree within sampling error.
In type mode every bound sample is a matched one, so the reference counts
the threshold fails of its matched samples alone.
"""
from dataclasses import replace
from functools import partial

from cfmac import code_sim


def reference_bound_samples(config, th, mc_samples: int, seed: int):
    """(threshold fails among the matched samples, matched samples) of
    ``mc_samples`` symbol-level samples; in iid mode every sample is matched."""
    mac, dist, n, k = config.mac, config.dist, config.n, config.k
    samplers, fac = code_sim._ensemble(mac, dist, n, config.mode)
    words = partial(code_sim._ensemble_words, m1c=1, m2c=1, k=k, n=n, samplers=samplers, fac=fac)
    samples = replace(config, m1_count=1, m2_count=1, trials=mc_samples, seed=seed)
    report = code_sim._run_trials(
        samples, code_sim._BOUND, code_sim._trial_bytes(mac, n, 1, 1, k), words,
        code_sim._channel(mac.kernel, n), code_sim._Decoder.build(mac, dist, th),
    )
    # one message pair: an error is a type miss (unmatched) or a threshold miss
    tally = report.decomposition
    return tally["threshold_miss"], mc_samples - tally["type_miss"]
