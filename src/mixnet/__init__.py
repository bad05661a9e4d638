"""Mixed random/preferential attachment: growth, estimation, distributions."""

__version__ = "0.1.0"

from .em import EmConfig, EmTrace, em_estimate, em_step, responsibility
from .degree_dist import (
    StationaryDistribution,
    finite_t_pmf,
    stationary_ccdf,
    stationary_pmf,
)
from .likelihood import (
    MleReport,
    RootBracket,
    RootProfile,
    check_theorem1,
    log_likelihood,
    mle_estimate,
    prefix_estimates,
    root_bracket,
    root_profile,
    snapshot_log_likelihood,
    step_estimates,
)
from .netmodel import (
    AttachmentRecord,
    GrowingNetwork,
    ModelParams,
    SampleLog,
    SeedSpec,
    attachment_probability,
    grow_sequence,
    grow_step,
    make_rng,
)

__all__ = [
    "AttachmentRecord",
    "EmConfig",
    "EmTrace",
    "GrowingNetwork",
    "MleReport",
    "ModelParams",
    "RootBracket",
    "RootProfile",
    "SampleLog",
    "SeedSpec",
    "StationaryDistribution",
    "attachment_probability",
    "check_theorem1",
    "em_estimate",
    "em_step",
    "finite_t_pmf",
    "grow_sequence",
    "grow_step",
    "log_likelihood",
    "make_rng",
    "mle_estimate",
    "prefix_estimates",
    "responsibility",
    "root_bracket",
    "root_profile",
    "snapshot_log_likelihood",
    "stationary_ccdf",
    "stationary_pmf",
    "step_estimates",
]
