"""Likelihood analysis of the attachment sample log.

Each logged record (k, e_prev, n_prev) contributes a linear-in-alpha factor
``alpha * (k/e_prev - 1/n_prev) + 1/n_prev`` to the likelihood, so the full
likelihood is a polynomial in alpha whose roots are ``e/(e - k*n)``.  A
positive root is at least 1, since 0 < e - k*n <= e, and a negative root is
below 0, so (0, 1) lies inside the roots' bracket, where the log-likelihood
is strictly concave.  Every estimate is the bisection of the sign of the
analytic derivative F over (0, 1) shrunk by ``INTERIOR_MARGIN``: k = 0
records put a root at 1, where such a factor is 0.

One solver (``_maximize``, a row per solve) serves the MLE and both traces.
It replays that bisection, evaluating F only where its sign is open: IEEE
operations are monotone and numpy sums a row shape in a fixed tree, so the
float F never increases, and F > 0 (F < 0) at a point fixes the sign below
(above) it.  A warm-started Newton and probes beside its root find such
points.  The bracket (``root_bracket``, one O(N) pass) is a report:
``MleReport.bracket`` and Theorem 1's conditions.  ``root_profile``, the
exact ``Fraction`` merge of the roots, is a diagnostic and test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netmodel import SampleLog

#: margin kept inside (0, 1)
INTERIOR_MARGIN = 1e-9
#: bisection stops when the interval is narrower than this
BISECTION_WIDTH = 1e-10
#: Newton stops after this many steps or at a step this small; the probes
#: then test F's sign this far either side of its root, widening on a miss
NEWTON_STEPS, NEWTON_TOLERANCE, PROBE_WIDTHS = 60, 1e-5, (4e-12, 1e-10, 1e-8)


class EvaluationError(ValueError):
    """A likelihood factor is non-positive or non-finite at the requested alpha."""

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


def _sum_log_factors(log: SampleLog, factors, alpha: float, kept=None) -> float:
    """Sum of log factors of the records of ``log`` that the mask ``kept`` marks
    (default all); a non-positive or non-finite factor raises EvaluationError."""
    with np.errstate(divide="ignore", invalid="ignore"):
        total = float(np.log(factors).sum())
    if not math.isfinite(total):  # the log of a bad factor is -inf, inf or nan
        i = int(np.argmax((factors <= 0) | ~np.isfinite(factors)))
        j = i if kept is None else int(np.flatnonzero(kept)[i])
        raise EvaluationError(
            f"{'non-positive' if factors[i] <= 0 else 'non-finite'} likelihood factor at "
            f"alpha={alpha} for record {i} (k={log.k[j]}, e_prev={log.e_prev[j]}, "
            f"n_prev={log.n_prev[j]})",
            record_index=i,
        )
    return total


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
    from fractions import Fraction  # a diagnostic's import, kept off mixnet's import path

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


def root_bracket(log: SampleLog) -> RootBracket:
    """Extreme roots and positive-root count of the likelihood polynomial.

    Each record's root is e/(e - k*n).  Counts stay below 2**53, so each
    float root is the correctly rounded rational; rounding is monotone, so
    the float extremes equal the exact extremes of ``root_profile``.
    Degenerate records (e = k*n) have no root.
    """
    if len(log) == 0:
        raise ValueError("root bracket of an empty log")
    den = log.e_prev - log.k * log.n_prev
    with np.errstate(divide="ignore"):  # e/0: a record without a root of that sign
        max_negative = float((-log.e_prev / np.maximum(-den, 0)).max())
        min_positive = float((log.e_prev / np.maximum(den, 0)).min())
    n_negative, n_positive = int(np.count_nonzero(den < 0)), int(np.count_nonzero(den > 0))
    return RootBracket(max_negative, min_positive, n_positive, n_negative + n_positive)


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


def _derivative(d: np.ndarray, c: np.ndarray, alpha, out: np.ndarray | None = None):
    """Score sum(q), q = d / (d*alpha + c), over the last axis; q is left in ``out``
    and alpha is a float or a column.  For one row shape it never increases in alpha."""
    out = np.multiply(d, alpha, out=out)
    out += c
    np.divide(d, out, out=out)
    return out.sum(axis=-1)


def _bracket(score, out: np.ndarray, n: int, guess) -> tuple:
    """(x, pos, neg) of n rows: Newton's root x of F from ``guess`` (a float
    or one per row), the last point known to have F > 0 and the first known
    to have F < 0 (-inf, inf if none).  ``score(rows, x)`` leaves q in ``out``.
    """
    lo, hi = INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN
    pos, neg = np.full(n, -np.inf), np.full(n, np.inf)

    def signed(rows, x):
        f = score(rows, x)
        pos[rows[f > 0]], neg[rows[f < 0]] = x[f > 0], x[f < 0]
        return f

    x, rows = np.clip(np.broadcast_to(guess, n), lo, hi), np.arange(n)
    for _ in range(NEWTON_STEPS):
        g, f = x[rows], signed(rows, x[rows])
        a, b = pos[rows], neg[rows]
        live = (a < hi) & (b > lo)  # not known to stop at an end
        if not live.any():
            break
        q, low, high = out[:len(rows)], np.maximum(a, lo), np.minimum(b, hi)
        with np.errstate(divide="ignore", invalid="ignore"):  # F' = -sum(q**2)
            step = np.clip(g + f / np.multiply(q, q, out=q).sum(axis=-1), low, high)
        # a step out of the interval tests that end; one onto a known sign bisects
        x[rows] = step = np.where((a < step) & (step < b), step, 0.5 * (low + high))
        rows = rows[live & (np.abs(step - g) > NEWTON_TOLERANCE)]
        if not len(rows):
            break
    for width in PROBE_WIDTHS if ((pos < hi) & (neg > lo)).any() else ():
        for probe in (np.maximum(x - width, lo), np.minimum(x + width, hi)):
            rows = np.flatnonzero((pos < probe) & (probe < neg))
            if len(rows):
                signed(rows, probe[rows])
    return x, pos, neg


def _bisect(pos: np.ndarray, neg: np.ndarray, score) -> np.ndarray:
    """Each row's bisection of F, given F > 0 at ``pos`` and F < 0 at ``neg``:
    end checks (F(lo) <= 0 gives lo, else F(hi) >= 0 gives hi), then halving
    in lockstep to ``BISECTION_WIDTH``, up where F(mid) > 0.  ``score(rows,
    x)`` is asked for F only strictly between pos and neg.
    """
    lo, hi = INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN
    at_lo, at_hi = neg <= lo, pos >= hi
    for at, end in ((at_lo, lo), (at_hi, hi)):
        rows = np.flatnonzero((pos < end) & (end < neg))
        if len(rows):
            f = score(rows, np.full(len(rows), end))
            at[rows] = f <= 0 if end == lo else f >= 0
    alpha = np.where(at_lo, lo, hi)
    rows = np.flatnonzero(~(at_lo | at_hi))
    a, b, left, right = pos[rows], neg[rows], np.full(len(rows), lo), np.full(len(rows), hi)
    while len(rows):
        mid = 0.5 * (left + right)
        up = mid <= a
        if np.count_nonzero(up) + np.count_nonzero(mid >= b) < len(rows):
            open_ = (a < mid) & (mid < b)
            up[open_] = score(rows[open_], mid[open_]) > 0
        left, right = np.where(up, mid, left), np.where(up, right, mid)
        done = right - left <= BISECTION_WIDTH
        if np.count_nonzero(done):
            alpha[rows[done]] = 0.5 * (left[done] + right[done])
            rows, a, b, left, right = (v[~done] for v in (rows, a, b, left, right))
    return alpha


def _maximize(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each row's maximizer over (0, 1) shrunk by the interior margin.

    A row holds one solve's coefficients; row sums of a C-contiguous array
    equal 1-D sums, so a row takes the steps of a solve of its records alone.
    """
    out = np.empty_like(d)

    def score(rows, x):
        rows_d, rows_c = (d, c) if len(rows) == len(d) else (d[rows], c[rows])
        return _derivative(rows_d, rows_c, x[:, None], out[:len(rows)])

    return _bisect(*_bracket(score, out, len(d), 0.5)[1:], score)


def mle_estimate(log: SampleLog) -> MleReport:
    """Maximize the log-likelihood over (0, 1) shrunk by the interior margin."""
    if len(log) == 0:
        raise ValueError("cannot estimate from an empty log")
    bracket = root_bracket(log)
    if bracket.degree == 0:
        raise NoInformationError("all records are degenerate; likelihood is flat in alpha")
    d, c = _slope_intercept(log)
    alpha_hat = float(_maximize(d[None], c[None])[0])
    satisfied, _ = check_theorem1(bracket)
    return MleReport(
        alpha_hat=alpha_hat,
        bracket=(bracket.max_negative, bracket.min_positive),
        theorem1_satisfied=satisfied,
        positive_multiplicity_parity="even" if bracket.positive_multiplicity_sum % 2 == 0 else "odd",
        log_likelihood_at_max=_sum_log_factors(log, d * alpha_hat + c, alpha_hat),
    )


def prefix_estimates(log: SampleLog, steps) -> list[float]:
    """``mle_estimate(log.prefix(t)).alpha_hat`` for each t in ``steps``.

    Each prefix is a one-row view of one set of coefficients, informative
    from the first record with e != k*n on.  Newton starts at the previous
    prefix's root, and one lockstep ``_bisect`` replays all the solves.
    """
    d, c = _slope_intercept(log)
    informative = np.flatnonzero(log.e_prev != log.k * log.n_prev)
    first = informative[0] if len(informative) else len(log)
    stops = np.searchsorted(log.step, steps, side="right").tolist()
    bounds, x = [], 0.5
    for stop in stops:
        if stop == 0:
            raise ValueError("cannot estimate from an empty log")
        if stop <= first:
            raise NoInformationError("all records are degenerate; likelihood is flat in alpha")
        out = np.empty((1, stop))
        x, pos, neg = _bracket(lambda rows, at: _derivative(d[None, :stop], c[None, :stop],
                                                            at[:, None], out), out, 1, x)
        bounds.append((pos[0], neg[0]))

    def score(rows, at):
        return np.array([_derivative(d[None, :stops[i]], c[None, :stops[i]], v)[0]
                         for i, v in zip(rows.tolist(), at.tolist())])

    return _bisect(*np.array(bounds).reshape(-1, 2).T, score).tolist()


def step_estimates(log: SampleLog) -> list[tuple[int, float]]:
    """(t, alpha_hat) for each step t, from that step's records alone.

    Steps without records, or whose records are all degenerate (as in the
    first step from a regular seed such as a complete graph), carry no
    information on alpha and are skipped; the rest form one batch per width.
    """
    d, c = _slope_intercept(log)
    starts = np.flatnonzero(np.diff(log.step, prepend=0))
    widths = np.diff(starts, append=len(log))
    informative = np.add.reduceat(log.e_prev != log.k * log.n_prev, starts) > 0
    starts, widths = starts[informative], widths[informative]
    alpha = np.empty(len(starts))
    for width in np.unique(widths).tolist():
        group = np.flatnonzero(widths == width)
        rows = starts[group, None] + np.arange(width)
        alpha[group] = _maximize(d[rows], c[rows])
    return list(zip(log.step[starts].tolist(), alpha.tolist()))
