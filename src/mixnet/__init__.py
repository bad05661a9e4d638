"""Mixed random/preferential attachment: growth, estimation, distributions."""

__version__ = "0.1.0"

from .em import EmConfig, EmTrace, em_estimate
from .degree_dist import StationaryDistribution, finite_t_pmf
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
    step_estimates,
)
from .netmodel import (
    AttachmentRecord,
    GrowingNetwork,
    ModelParams,
    SampleLog,
    SeedSpec,
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
    "check_theorem1",
    "em_estimate",
    "finite_t_pmf",
    "grow_sequence",
    "grow_step",
    "log_likelihood",
    "make_rng",
    "mle_estimate",
    "prefix_estimates",
    "root_bracket",
    "root_profile",
    "step_estimates",
]
