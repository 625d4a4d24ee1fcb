"""polarkit: channel polarization transforms, processes, and polar coding."""

from .bdmc import (
    Channel,
    TransformPair,
    as_bec_eps,
    bec,
    bhattacharyya,
    bsc,
    merge_equivalent_outputs,
    polar_transform,
    symmetric_capacity,
    validate,
)
from .errors import ResourceCapError
from .polarcode import (
    ERASED,
    BlerResult,
    CodeSpec,
    bec_z_spectrum,
    construct,
    encode,
    sc_decode_bec,
    simulate_bler,
    wilson_interval,
)
from .scaling import (
    BootstrapConfig,
    BootstrapReport,
    CurveRow,
    Mode,
    ScalingConfig,
    binary_entropy,
    bootstrap_diagnostic,
    channel_form,
    converse_curve,
    direct_curve,
    synthesized_channels,
)
from .zprocess import (
    BranchWord,
    Rule,
    ZDistribution,
    ZState,
    converse_binomial,
    domination_check,
    exact_distribution,
    f_rho,
    hajek_bound,
    iterate_values,
    q_halfmoment,
    sample_path,
    step,
    walk,
)

__version__ = "0.1.0"
