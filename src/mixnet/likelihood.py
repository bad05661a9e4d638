"""Likelihood analysis of the attachment sample log.

Each logged record (k, e_prev, n_prev) contributes a linear-in-alpha factor
``alpha * (k/e_prev - 1/n_prev) + 1/n_prev`` to the likelihood, so the full
likelihood is a polynomial in alpha whose roots are ``e/(e - k*n)``.  The
positive/negative root structure brackets the maximizer; within the bracket
the log-likelihood is strictly concave, so the estimate is found by
bisecting the sign of the analytic derivative.

The bracket (largest negative root, smallest positive root) and the count
of positive roots come from one vectorized O(N) pass over the records
(``root_bracket``); the prefix and per-step traces compute the roots once
and take each solve's bracket from the same reduction (``_bracket``).
``root_profile``, the exact ``Fraction`` merge of every root with its
multiplicity, is a diagnostic and test oracle, not on the estimate path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .netmodel import AttachmentRecord, SampleLog

#: margin kept from bracket endpoints and from {0, 1}
INTERIOR_MARGIN = 1e-9
#: bisection stops when the interval is narrower than this
BISECTION_WIDTH = 1e-10


class EvaluationError(ValueError):
    """A likelihood factor is non-positive at the requested alpha."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


class NoInformationError(ValueError):
    """Every record is degenerate: the likelihood does not depend on alpha."""


def _slope_intercept(log: SampleLog) -> tuple[np.ndarray, np.ndarray]:
    """Per-record factor coefficients d, c with factor(alpha) = d*alpha + c."""
    c = 1.0 / log.n_prev
    d = log.k / log.e_prev - c
    return d, c


def log_likelihood(log: SampleLog, alpha: float) -> float:
    """Sum of log factors over all records (the incomplete log-likelihood)."""
    if len(log) == 0:
        return 0.0
    d, c = _slope_intercept(log)
    return _sum_log_factors(log, d * alpha + c, alpha)


def _sum_log_factors(log: SampleLog, factors: np.ndarray, alpha: float) -> float:
    """Sum of log factors; a non-positive factor raises EvaluationError."""
    if (factors <= 0).any():
        i = int(np.argmax(factors <= 0))
        raise EvaluationError(
            f"non-positive likelihood factor at alpha={alpha} for record "
            f"{i} (k={log.k[i]}, e_prev={log.e_prev[i]}, n_prev={log.n_prev[i]})",
            record_index=i,
        )
    return float(np.log(factors).sum())


def snapshot_log_likelihood(records: list[AttachmentRecord], alpha: float) -> float:
    """Log-likelihood of a single step's multiset (empty multiset gives 0)."""
    if not records:
        return 0.0
    return log_likelihood(SampleLog.from_steps([records]), alpha)


@dataclass
class RootProfile:
    """Roots of the likelihood polynomial, merged by value with multiplicity."""

    roots: list  # (value, multiplicity), ascending by value
    degenerate_count: int

    @property
    def positive_roots(self) -> list:
        return [(v, mu) for v, mu in self.roots if v > 0]

    @property
    def negative_roots(self) -> list:
        return [(v, mu) for v, mu in self.roots if v < 0]

    @property
    def degree(self) -> int:
        return sum(mu for _, mu in self.roots)

    @property
    def min_positive(self) -> float:
        pos = self.positive_roots
        return pos[0][0] if pos else math.inf

    @property
    def max_negative(self) -> float:
        neg = self.negative_roots
        return neg[-1][0] if neg else -math.inf

    @property
    def positive_multiplicity_sum(self) -> int:
        return sum(mu for _, mu in self.positive_roots)


def root_profile(log: SampleLog) -> RootProfile:
    """One root e/(e - k*n) per non-degenerate record, merged exactly.

    Roots are rationals of machine-integer counts, so merging uses exact
    fractions rather than a float tolerance.
    """
    if len(log) == 0:
        raise ValueError("root profile of an empty log")
    counts: dict[Fraction, int] = {}
    degenerate = 0
    denom = log.e_prev - log.k * log.n_prev
    for e, den in zip(log.e_prev.tolist(), denom.tolist()):
        if den == 0:
            degenerate += 1
            continue
        key = Fraction(e, den)
        counts[key] = counts.get(key, 0) + 1
    roots = sorted((float(v), mu) for v, mu in counts.items())
    return RootProfile(roots=roots, degenerate_count=degenerate)


@dataclass(frozen=True)
class RootBracket:
    """The part of the root profile the MLE uses, from one O(N) pass.

    Fields match the ``RootProfile`` properties of the same names, with
    -inf/+inf where a sign has no root.
    """

    max_negative: float
    min_positive: float
    positive_multiplicity_sum: int
    degree: int


def _signed_roots(log: SampleLog) -> tuple[np.ndarray, np.ndarray]:
    """Each record's root e/(e - k*n), split by sign and padded with -inf/+inf.

    Counts stay below 2**53, so each float root is the correctly rounded
    rational; rounding is monotone, so the float extremes equal the exact
    extremes of ``root_profile``.  Degenerate records (e = k*n) have no
    root and hold the padding in both arrays.
    """
    den = log.e_prev - log.k * log.n_prev
    root = log.e_prev / np.where(den == 0, 1, den)
    return np.where(den < 0, root, -np.inf), np.where(den > 0, root, np.inf)


def _bracket(negative: np.ndarray, positive: np.ndarray) -> RootBracket:
    n_positive = int(np.count_nonzero(positive < np.inf))
    return RootBracket(
        max_negative=float(negative.max()),
        min_positive=float(positive.min()),
        positive_multiplicity_sum=n_positive,
        degree=n_positive + int(np.count_nonzero(negative > -np.inf)),
    )


def root_bracket(log: SampleLog) -> RootBracket:
    """Extreme roots and positive-root count of the likelihood polynomial."""
    if len(log) == 0:
        raise ValueError("root bracket of an empty log")
    return _bracket(*_signed_roots(log))


def check_theorem1(profile: RootProfile | RootBracket) -> tuple[bool, str]:
    """Bracketing conditions: both root signs present, even positive multiplicity."""
    if not math.isfinite(profile.min_positive):
        return False, "no positive roots"
    if not math.isfinite(profile.max_negative):
        return False, "no negative roots"
    total = profile.positive_multiplicity_sum
    if total % 2 != 0:
        return False, f"sum of positive-root multiplicities is odd ({total})"
    return True, "ok"


@dataclass
class MleReport:
    alpha_hat: float
    bracket: tuple  # (max negative root, min positive root), +-inf sentinels
    theorem1_satisfied: bool
    positive_multiplicity_parity: str  # "even" | "odd"
    log_likelihood_at_max: float

    def to_dict(self) -> dict:
        def _finite(x):
            return x if math.isfinite(x) else None

        return {
            "alpha_hat": self.alpha_hat,
            "bracket": [_finite(self.bracket[0]), _finite(self.bracket[1])],
            "theorem1_satisfied": self.theorem1_satisfied,
            "positive_multiplicity_parity": self.positive_multiplicity_parity,
            "loglik": self.log_likelihood_at_max,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _derivative(d: np.ndarray, c: np.ndarray, alpha: float) -> float:
    return float((d / (d * alpha + c)).sum())


def _maximize(d: np.ndarray, c: np.ndarray, bracket: RootBracket) -> float:
    """Bisect the derivative's sign over the bracket intersected with (0, 1).

    The interval is shrunk by a small interior margin; the derivative is
    monotone on it by concavity.
    """
    if bracket.degree == 0:
        raise NoInformationError("all records are degenerate; likelihood is flat in alpha")
    lo = max(bracket.max_negative, 0.0) + INTERIOR_MARGIN
    hi = min(bracket.min_positive, 1.0) - INTERIOR_MARGIN
    if not lo < hi:
        raise ValueError(f"empty maximization interval ({lo}, {hi})")

    if _derivative(d, c, lo) <= 0:
        return lo
    if _derivative(d, c, hi) >= 0:
        return hi
    left, right = lo, hi
    while right - left > BISECTION_WIDTH:
        mid = 0.5 * (left + right)
        if _derivative(d, c, mid) > 0:
            left = mid
        else:
            right = mid
    return 0.5 * (left + right)


def mle_estimate(log: SampleLog) -> MleReport:
    """Maximize the log-likelihood over the admissible interval inside (0, 1)."""
    if len(log) == 0:
        raise ValueError("cannot estimate from an empty log")
    bracket = root_bracket(log)
    d, c = _slope_intercept(log)
    alpha_hat = _maximize(d, c, bracket)
    satisfied, _ = check_theorem1(bracket)
    return MleReport(
        alpha_hat=alpha_hat,
        bracket=(bracket.max_negative, bracket.min_positive),
        theorem1_satisfied=satisfied,
        positive_multiplicity_parity="even" if bracket.positive_multiplicity_sum % 2 == 0 else "odd",
        log_likelihood_at_max=log_likelihood(log, alpha_hat),
    )


def prefix_estimates(log: SampleLog, steps) -> list[float]:
    """``mle_estimate(log.prefix(t)).alpha_hat`` for each t in ``steps``.

    Coefficients and roots are computed once for the whole log; a prefix's
    bracket (``_bracket``) is O(stop), like each of its bisection's steps.
    """
    d, c = _slope_intercept(log)
    negative, positive = _signed_roots(log)
    estimates = []
    for stop in np.searchsorted(log.step, steps, side="right").tolist():
        if stop == 0:
            raise ValueError("cannot estimate from an empty log")
        bracket = _bracket(negative[:stop], positive[:stop])
        estimates.append(_maximize(d[:stop], c[:stop], bracket))
    return estimates


def step_estimates(log: SampleLog) -> list[tuple[int, float]]:
    """(t, alpha_hat) for each step t, from that step's records alone.

    Steps without records, or whose records are all degenerate (as in the
    first step from a regular seed such as a complete graph), carry no
    information on alpha and are skipped.
    """
    if len(log) == 0:
        return []
    d, c = _slope_intercept(log)
    negative, positive = _signed_roots(log)
    starts = (np.flatnonzero(np.diff(log.step)) + 1).tolist()
    estimates = []
    for start, stop in zip([0, *starts], [*starts, len(log)]):
        bracket = _bracket(negative[start:stop], positive[start:stop])
        if bracket.degree:
            estimates.append(
                (int(log.step[start]), _maximize(d[start:stop], c[start:stop], bracket))
            )
    return estimates
