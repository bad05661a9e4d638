"""Independent reference values for the estimator outputs.

The maximum-likelihood estimate is the root of the score
sum d/(d*alpha + c), with d = k/e_prev - 1/n_prev and c = 1/n_prev, inside
the bracket formed by the likelihood roots e/(e - k*n) nearest zero, cut to
(0, 1) and shrunk by the interior margin mixnet documents.  The root is
found with Brent's method, not with mixnet's bisection.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

#: margin kept from the bracket ends and from {0, 1}
INTERIOR_MARGIN = 1e-9
#: how far mixnet's MLE may sit from the reference (the equivalence bound)
MLE_TOLERANCE = 1e-9
#: how far a converged EM estimate may sit from the reference
EM_TOLERANCE = 1e-6


def mle_alpha(k: np.ndarray, e_prev: np.ndarray, n_prev: np.ndarray) -> float:
    """Reference maximizer of the log-likelihood of the records."""
    den = e_prev - k * n_prev
    informative = den != 0
    if not informative.any():
        raise ValueError("no record depends on alpha")
    roots = e_prev[informative] / den[informative]
    below = roots[roots < 0]
    above = roots[roots > 0]
    lo = max(below.max() if len(below) else -math.inf, 0.0) + INTERIOR_MARGIN
    hi = min(above.min() if len(above) else math.inf, 1.0) - INTERIOR_MARGIN
    c = 1.0 / n_prev
    d = k / e_prev - c

    def score(alpha: float) -> float:
        return float(np.sum(d / (d * alpha + c)))

    if score(lo) <= 0:
        return lo
    if score(hi) >= 0:
        return hi
    return brentq(score, lo, hi, xtol=1e-14)


def close(actual, expected: float, tolerance: float) -> bool:
    return isinstance(actual, float) and abs(actual - expected) <= tolerance
