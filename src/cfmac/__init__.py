"""Finite-blocklength sum-rate benefits of coordination on two-user MACs.

The library covers four layers: channel models with dispersion statistics
and a sum-capacity solver (``channel``), the max-of-Gaussians limit law and
its quantiles (``gauss_max``), the correlation-benefit curve over
dependence-budgeted joint inputs (``delta_curve``), achievable sum-rate
bounds at finite blocklength (``rate_bounds``), and Monte Carlo validation
of the facilitated random-coding constructions (``code_sim``).
"""

from .channel import (
    CapacityResult,
    ChannelStats,
    InfoDensityTable,
    InputDist,
    JointDist,
    Mac,
    ProductDist,
    adder2,
    channel_stats,
    dump_dist,
    info_density_tables,
    load_channel,
    load_dist,
    mutual_information,
    named_channel,
    output_marginal,
    sum_capacity,
    uniform_product,
    xor_channel,
)
from .code_sim import (
    Codebooks,
    DecoderThresholds,
    FacilitatorTable,
    SimConfig,
    SimReport,
    default_thresholds,
    draw_codebooks,
    estimate_error,
    estimate_error_fixed_code,
    facilitate,
    fbl_bound,
    sim_config_from_dict,
    sim_config_to_dict,
    simulate_with_bound,
    threshold_decode,
)
from .delta_curve import (
    DeltaPoint,
    Perturbation,
    delta,
    delta_small_a,
    perturbation_direction,
)
from .errors import (
    CfmacError,
    DegenerateBothZero,
    DegenerateThresholds,
    ModeMismatch,
    NegativeEntry,
    NonConvergence,
    NotAnNType,
    NotCapacityAchieving,
    RowNotStochastic,
    SizeMismatch,
    TargetOutOfRange,
)
from .gauss_max import (
    Lemma1Bounds,
    QuantileResult,
    SkParams,
    lemma1_bounds,
    sk_cdf,
    sk_inverse_cdf,
    sk_quantile_derivative,
)
from .rate_bounds import (
    RateQuery,
    RateReport,
    Thm2Result,
    Thm3Result,
    cooperation_gain,
    rate_report,
    theta_regime,
    thm2_sum_rate,
    thm3_sum_rate,
)

__version__ = "0.1.0"
