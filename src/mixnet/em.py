"""Expectation-maximization estimate of the attachment mixture weight.

The E-step computes, for each logged record, the posterior probability that
its edge came from the preferential component; the M-step sets the next
alpha to the mean of those responsibilities.  The iteration monotonically
increases the incomplete log-likelihood and converges by its concavity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .likelihood import _sum_log_factors
from .netmodel import AttachmentRecord, SampleLog

#: a decrease of the objective beyond this slack indicates a bug
MONOTONICITY_SLACK = 1e-9


@dataclass(frozen=True)
class EmConfig:
    alpha_init: float = 0.5
    epsilon: float = 1e-8
    max_iter: int = 10000
    keep_zero_indegree: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha_init < 1.0:
            raise ValueError(f"alpha_init must be in (0, 1), got {self.alpha_init}")
        if not 0.0 < self.epsilon < float("inf"):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


def _mixture(ke, n_prev, alpha: float, pref=None, total=None):
    """Preferential and full mixture densities of a record or of arrays of
    them, written into the arrays ``pref`` and ``total`` if given."""
    pref = np.multiply(ke, alpha, out=pref)
    return pref, np.add(pref, np.divide(1.0 - alpha, n_prev, out=total), out=total)


def responsibility(record: AttachmentRecord, alpha: float) -> float:
    """Posterior probability that the record's edge used preferential attachment."""
    pref, total = _mixture(record.k / record.e_prev, record.n_prev, alpha)
    if total <= 0:
        raise ValueError(
            f"zero mixture density for record {record} at alpha={alpha}"
        )
    return float(pref / total)


def em_step(log: SampleLog, alpha: float) -> float:
    """One update: the mean responsibility over all records."""
    if len(log) == 0:
        raise ValueError("EM step on an empty log")
    pref, total = _mixture(log.k / log.e_prev, log.n_prev, alpha)
    if (total <= 0).any():
        i = int(np.argmax(total <= 0))
        raise ValueError(
            f"zero mixture density at alpha={alpha} for record {i} "
            f"(k={log.k[i]}, e_prev={log.e_prev[i]}, n_prev={log.n_prev[i]})"
        )
    return float((pref / total).mean())


@dataclass
class EmTrace:
    iterations: list = field(default_factory=list)  # (alpha, incomplete loglik)
    converged: bool = False
    final_alpha: float = float("nan")


def em_setup(log: SampleLog, cfg: EmConfig = EmConfig()):
    """``em_estimate``'s checks, coefficients and two work buffers; returns its
    iteration step, a call that allocates no arrays, for another thread to run.
    Records with k = 0 (no preferential mass, responsibility identically 0) are
    dropped unless ``cfg.keep_zero_indegree``."""
    if len(log) == 0:
        raise ValueError("cannot estimate from an empty log")
    kept = (log.k > 0) | cfg.keep_zero_indegree
    if not kept.any():
        raise ValueError("log contains only zero-in-degree records")
    ke = log.k[kept] / log.e_prev[kept]
    n_prev = log.n_prev[kept].astype(np.float64)
    c = 1.0 / n_prev
    d = ke - c  # _slope_intercept's coefficients
    return partial(_em_iterate, log, kept, ke, n_prev, d, c, *np.empty((2, len(ke))), cfg)


def _em_iterate(log, kept, ke, n_prev, d, c, a, b, cfg: EmConfig) -> EmTrace:
    """The EM iterations on the ``kept`` records of ``log``: the E-step of ``em_step``
    (``_mixture``) and the objective of ``log_likelihood``, into ``a`` and ``b``."""
    def loglik_at(alpha: float) -> float:
        factors = np.add(np.multiply(d, alpha, out=a), c, out=a)
        return _sum_log_factors(log, factors, alpha, out=b, kept=kept)

    trace = EmTrace()
    alpha = cfg.alpha_init
    prev_loglik = loglik_at(alpha)
    trace.iterations.append((alpha, prev_loglik))
    for _ in range(cfg.max_iter):
        # the mixture densities are the factors the objective at alpha checked
        pref, total = _mixture(ke, n_prev, alpha, a, b)
        new_alpha = float(np.divide(pref, total, out=a).mean())
        loglik = loglik_at(new_alpha)
        if loglik < prev_loglik - MONOTONICITY_SLACK:
            raise RuntimeError(
                f"EM objective decreased from {prev_loglik} to {loglik}; "
                "this violates EM monotonicity and indicates a bug"
            )
        trace.iterations.append((new_alpha, loglik))
        delta = abs(new_alpha - alpha)
        alpha, prev_loglik = new_alpha, loglik
        if delta < cfg.epsilon:
            trace.converged = True
            break
    trace.final_alpha = alpha
    return trace


def em_estimate(log: SampleLog, cfg: EmConfig = EmConfig()) -> EmTrace:
    """Iterate the EM update from alpha_init until |delta alpha| < epsilon."""
    return em_setup(log, cfg)()
