"""Symbol-by-symbol reference for the Monte Carlo term of ``fbl_bound``.

``reference_bound_samples`` draws each sample's K codeword pairs and its
received word symbol by symbol and runs them through the ensemble kernel with
M1 = M2 = 1, as the bound's sampler did up to stream version 3.  The
count-law sampler that replaced it draws the same counts from their exact
laws, so the tests require the two to agree within sampling error.
"""
from cfmac import code_sim


def reference_bound_samples(config, th, mc_samples: int, seed: int):
    """(threshold fails, type-mode unmatched) counts of ``mc_samples`` symbol-level samples."""
    mac, dist, n, k = config.mac, config.dist, config.n, config.k
    samplers, fac = code_sim._ensemble(mac, dist, n, config.mode)
    dec = code_sim._Decoder.build(mac, dist, th)
    channel = code_sim._channel(mac.kernel, n)
    fails = 0
    type_misses = 0
    trial_bytes = code_sim._trial_bytes(mac, n, 1, 1, k)
    for rng, b in code_sim._blocks(seed, code_sim._BOUND, mc_samples, trial_bytes):
        passes, in_type, _, _ = code_sim._ensemble_block(
            rng, b, 1, 1, k, n, channel, samplers, fac, dec
        )
        fails += int((~passes).sum())
        if in_type is not None:
            type_misses += int((~in_type).sum())
    return fails, type_misses
