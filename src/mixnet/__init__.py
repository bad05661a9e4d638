"""Mixed random/preferential attachment: growth, estimation, distributions.

Each exported name is imported from its module on first use (PEP 562), so
``import mixnet.cli`` loads only the modules a subcommand runs.
"""

import importlib

__version__ = "0.1.0"

#: each exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "degree_dist": ("StationaryDistribution", "finite_t_pmf"),
        "em": ("EmConfig", "EmTrace", "em_estimate"),
        "likelihood": ("MleReport", "RootBracket", "RootProfile", "check_theorem1",
                       "log_likelihood", "mle_estimate", "prefix_estimates", "root_bracket",
                       "root_profile", "step_estimates"),
        "netmodel": ("AttachmentRecord", "GrowingNetwork", "ModelParams", "SampleLog",
                     "SeedSpec", "grow_sequence", "grow_step", "make_rng"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
