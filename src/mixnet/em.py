"""Expectation-maximization estimate of the attachment mixture weight.

The E-step computes, for each logged record, the posterior probability that
its edge came from the preferential component; the M-step sets the next
alpha to the mean of those responsibilities.  The iteration monotonically
increases the incomplete log-likelihood and converges by its concavity.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .likelihood import NoInformationError, _sum_log_factors
from .netmodel import SampleLog

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
    """Preferential and full mixture densities of arrays of records, written
    into the arrays ``pref`` and ``total`` if given."""
    pref = np.multiply(ke, alpha, out=pref)
    return pref, np.add(pref, np.divide(1.0 - alpha, n_prev, out=total), out=total)


@dataclass
class EmTrace:
    iterations: list = field(default_factory=list)  # (alpha, incomplete loglik)
    converged: bool = False
    final_alpha: float = float("nan")


def em_estimate(log: SampleLog, cfg: EmConfig = EmConfig(), beside=None) -> EmTrace:
    """Iterate the EM update from alpha_init until |delta alpha| < epsilon.  Records
    with k = 0 (responsibility identically 0) are dropped unless
    ``cfg.keep_zero_indegree``; kept records that all have e = k*n carry no
    information about alpha and raise NoInformationError.

    With ``beside``, EM iterates on one pool worker while this thread runs
    ``beside()``.  Without, when more than 128 records are kept, this thread and
    the worker each take a part, cut at n2 = n//2 - (n//2) % 8: numpy's pairwise sum
    of n > 128 float64 values splits there first, so the parts' sums added are the
    whole array's sum bit for bit; a shorter log runs on this thread alone.  EM's
    error goes before ``beside``'s, a Ctrl-C stops EM at its next iteration, and
    every array is allocated on this thread."""
    if len(log) == 0:
        raise ValueError("cannot estimate from an empty log")
    kept = (log.k > 0) | cfg.keep_zero_indegree
    if not kept.any():
        raise ValueError("log contains only zero-in-degree records")
    if (log.e_prev == log.k * log.n_prev)[kept].all():
        raise NoInformationError("all records are degenerate; likelihood is flat in alpha")
    ke = log.k[kept] / log.e_prev[kept]
    n_prev = log.n_prev[kept].astype(np.float64)
    c = 1.0 / n_prev
    d = ke - c  # _slope_intercept's coefficients
    n = len(ke)
    split = beside is None and n > 128
    cuts = (0, n // 2 - n // 2 % 8, n) if split else (0, n)
    barrier = threading.Barrier(len(cuts) - 1)
    posts = [[None] * barrier.parties for _ in range(2)]  # by iteration parity, then part
    buffers = np.empty((2, n))
    steps = [partial(_em_iterate, log, kept, d, c, cfg, barrier, posts, i,
                     *(x[lo:hi] for x in (ke, n_prev, d, c, *buffers)))
             for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]
    if beside is None:
        if not split:
            return steps[0]()
        beside = steps[0]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        try:
            job = pool.submit(steps[-1])
            try:
                beside()
            except Exception:
                job.result()  # the worker's error goes first: EM's before beside's
                raise
            return job.result()
        except KeyboardInterrupt:
            barrier.abort()  # the worker ends at its next iteration, not at EM's end
            raise


def _em_iterate(log, kept, d, c, cfg: EmConfig, barrier, posts, part,
                ke, n_prev, d_part, c_part, a, b) -> EmTrace | None:
    """EM's iterations on the ``kept`` records of ``log`` (coefficients ``d`` and
    ``c``), as one of ``barrier.parties`` steps run at once, each on its own part
    of the records: ``ke``, ``n_prev``, ``d_part``, ``c_part`` and the work buffers
    ``a`` and ``b``.  At each iterate alpha a step sums over its part the log
    factors of ``log_likelihood`` and, unless the loop ends there, the
    responsibilities (``_mixture``'s E-step), and posts both sums in
    ``posts[i % 2]``, where a step one barrier ahead writes nothing another still
    reads.  After the barrier every step adds the parts' sums in part order, so
    all take the same decisions and raise the same errors.  A step whose own work
    fails breaks the barrier; a step that finds it broken returns None, leaving
    the error to the step that broke it or to the caller that stopped EM."""
    trace = EmTrace()
    alpha = cfg.alpha_init
    for i in range(cfg.max_iter + 1):
        converged = i > 0 and abs(alpha - trace.iterations[-1][0]) < cfg.epsilon
        ends = converged or i == cfg.max_iter
        try:
            factors = np.add(np.multiply(d_part, alpha, out=a), c_part, out=a)
            with np.errstate(divide="ignore", invalid="ignore"):
                loglik = float(np.log(factors, out=b).sum())
            resp = 0.0
            if not ends and math.isfinite(loglik):
                # the mixture densities are the factors whose logs were just summed
                pref, total = _mixture(ke, n_prev, alpha, a, b)
                resp = float(np.divide(pref, total, out=a).sum())
            posts[i % 2][part] = loglik, resp
            barrier.wait()
        except threading.BrokenBarrierError:
            return None
        except BaseException:
            barrier.abort()  # the other step stops at its next iteration
            raise
        sums = posts[i % 2]
        # part 0's sums plus part 1's, as numpy's pairwise sum adds its halves
        loglik, resp = sums[0] if len(sums) == 1 else map(operator.add, *sums)
        if not math.isfinite(loglik):  # name the first bad factor as log_likelihood does
            _sum_log_factors(log, d * alpha + c, alpha, kept=kept)
        if i > 0 and loglik < trace.iterations[-1][1] - MONOTONICITY_SLACK:
            raise RuntimeError(
                f"EM objective decreased from {trace.iterations[-1][1]} to {loglik}; "
                "this violates EM monotonicity and indicates a bug"
            )
        trace.iterations.append((alpha, loglik))
        if ends:
            break
        alpha = resp / len(d)  # the mean responsibility
    trace.converged = converged
    trace.final_alpha = alpha
    return trace
