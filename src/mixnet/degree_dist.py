"""Theoretical and empirical in-degree distributions.

The stationary pmf is one cumulative product of its ratio recurrence
P(k) / P(k-1) = (A k + B) / (A k + D) from the closed base case.  That ratio
makes P a Gosper-summable hypergeometric term, so the CCDF is the exact tail
sum P(k) (u k + v), with no summation and no cancellation.  The
Gamma-function solutions of the recurrence are kept as cross-check oracles
only, since their arguments grow with k and the uniform-attachment limit
degenerates them.  The finite-time pmf iterates the one-step expectation
recurrence of the growth model.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma as gammaln

import numpy as np

from .netmodel import ModelParams


class UnsupportedRegimeError(ValueError):
    """alpha = 1 with m_hat = 0: every node keeps in-degree 0 at arrival."""


def _check_regime(params: ModelParams) -> None:
    if params.alpha == 1.0 and params.m_hat == 0:
        raise UnsupportedRegimeError(
            "alpha=1 with m_hat=0 is not supported: the stationary "
            "distribution requires m_hat >= 1 under pure preferential attachment"
        )


def _ratio(params: ModelParams, k: np.ndarray | int):
    """P(k) / P(k-1) of the stationary recurrence, for k > m_hat.

    As (A (k - 1) + C) / (A k + C + m + m_hat), with A = alpha m and
    C = m (m + m_hat) (1 - alpha): C keeps (1 - alpha) as one factor, so the
    numerator m^2 (1 - alpha) at k = 1, m_hat = 0 does not cancel near alpha = 1.
    """
    m, mh, a = params.m, params.m_hat, params.alpha
    slope, c = a * m, m * (m + mh) * (1 - a)
    return (slope * (k - 1) + c) / (slope * k + (c + m + mh))


def _base_pmf(params: ModelParams) -> float:
    m, mh, a = params.m, params.m_hat, params.alpha
    return (m + mh) / (m * m + m * mh + m + mh - a * m * m)


@dataclass
class StationaryDistribution:
    """Long-run in-degree pmf and CCDF; support starts at k = m_hat."""

    params: ModelParams

    def __post_init__(self):
        _check_regime(self.params)

    def pmf_array(self, k_max: int) -> np.ndarray:
        """P(k) for k = m_hat .. k_max inclusive."""
        mh = self.params.m_hat
        if k_max < mh:
            raise ValueError(f"k={k_max} below support start {mh}")
        ratios = np.empty(k_max - mh + 1)
        ratios[0] = _base_pmf(self.params)
        ratios[1:] = _ratio(self.params, np.arange(mh + 1, k_max + 1))
        return np.cumprod(ratios)

    def pmf(self, k: int) -> float:
        return float(self.pmf_array(k)[-1])

    def ccdf_array(self, k_max: int) -> np.ndarray:
        """CCDF for k = m_hat .. k_max inclusive, by the closed tail sum.

        With the pmf ratio (A k + B) / (A k + D), the tail is exactly
        P(k) (u k + v) with u = A / (m + m_hat) and v = D (1 + u) / (D - B),
        where D - B = alpha m + m + m_hat > 0.
        """
        m, mh, a = self.params.m, self.params.m_hat, self.params.alpha
        d = a * (-m * m - m * mh) + m * m + m * mh + m + mh
        u = a * m / (m + mh)
        v = d * (1.0 + u) / (a * m + m + mh)
        out = self.pmf_array(k_max) * (u * np.arange(mh, k_max + 1) + v)
        out[0] = 1.0
        return out

    def support_for_mass(self, mass: float = 1.0 - 1e-6, k_cap: int = 10_000_000) -> int:
        """Smallest k whose CDF holds at least ``mass``: CCDF(k + 1) <= 1 - mass."""
        k_max = self.params.m_hat + 64
        while k_max <= k_cap:
            held = self.ccdf_array(k_max + 1)[1:] <= 1.0 - mass
            if held.any():
                return self.params.m_hat + int(np.argmax(held))
            k_max *= 2
        raise ValueError(f"support above {k_cap} needed to hold mass {mass}")

    def quantile(self, q: float) -> int:
        """Smallest k with CDF(k) >= q."""
        return self.support_for_mass(q)


def stationary_pmf_closed_form(params: ModelParams, k: int) -> float:
    """Gamma/geometric solution of the stationary recurrence (cross-check path).

    For alpha = 1 the literature's printed constant factor is inconsistent
    with the recurrence base case; the constant used here is the one that
    satisfies it (the k-dependence is unchanged).
    """
    _check_regime(params)
    m, mh, a = params.m, params.m_hat, params.alpha
    if k < mh:
        raise ValueError(f"k={k} below support start {mh}")
    if a == 0.0:
        return 1.0 / (m + 1) * (m / (m + 1)) ** (k - mh)
    if a == 1.0:
        # P(mh) * Gamma(k) Gamma(mh + 2 + mh/m) / (Gamma(mh) Gamma(k + 2 + mh/m))
        c = 2.0 + mh / m
        log_p = (
            np.log(_base_pmf(params))
            + gammaln(k) + gammaln(mh + c) - gammaln(mh) - gammaln(k + c)
        )
        return float(np.exp(log_p))
    s = (m + mh) * (1.0 - a) / a
    log_p = (
        np.log((m + mh) / (m * a))
        + gammaln((mh + m * (1 + m + mh - m * a)) / (m * a))
        + gammaln(k + s)
        - gammaln((m + mh - m * a) / a)
        - gammaln((mh + m * (m + mh + k * a - (m + mh) * a + a + 1)) / (m * a))
    )
    return float(np.exp(log_p))


def stationary_ccdf_closed_form(params: ModelParams, k: int) -> float:
    """Closed-form CCDF matching the recurrence (cross-check path).

    As with the pmf, the alpha = 1 branch uses the constant that makes the
    CCDF equal 1 at the support start.
    """
    _check_regime(params)
    m, mh, a = params.m, params.m_hat, params.alpha
    if k < mh:
        raise ValueError(f"k={k} below support start {mh}")
    if a == 0.0:
        return (m / (1.0 + m)) ** (k - mh)
    if k == mh:
        return 1.0
    if a == 1.0:
        c = (m + mh) / m
        log_f = gammaln(mh + c) + gammaln(k) - gammaln(mh) - gammaln(k + c)
        return float(np.exp(log_f))
    s = (m + mh) * (1.0 - a) / a
    log_f = (
        gammaln((mh + m * (1 + m + mh - a * m)) / (m * a))
        + gammaln(k + s)
        - gammaln((mh + m * (1 - a)) / a)
        - gammaln((mh + m * (m + mh + k * a - (m + mh) * a + 1)) / (m * a))
    )
    return float(np.exp(log_f))


#: finite_t_pmf drops a top bin's mass below this
TAIL_TOL = 1e-12


class SupportOverflowError(RuntimeError):
    """The finite-time iteration needs a wider support than allowed."""


def finite_t_pmf(
    params: ModelParams,
    seed_stats: tuple,
    steps: int,
    max_support: int = 1_000_000,
) -> np.ndarray:
    """Iterate the expected-in-degree recurrence for ``steps`` steps.

    ``seed_stats`` is (n0, e0, P0) with P0 the seed pmf as a mapping
    k -> probability.  Returns the pmf as an array indexed by k from 0.
    The support widens on demand; exceeding ``max_support`` raises with a
    diagnostic.  Mass is transferred between adjacent bins, so the total
    stays 1 up to rounding.
    """
    n0, e0, p0 = seed_stats
    if steps < 0:
        raise ValueError("steps must be >= 0")
    m, mh, a = params.m, params.m_hat, params.alpha

    k_top = max(max(p0) if p0 else 0, mh) + 8
    p = np.zeros(k_top + 1)
    for k, v in p0.items():
        if k < 0:
            raise ValueError(f"negative in-degree {k} in seed pmf")
        p[k] = v
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"seed pmf sums to {p.sum()}, expected 1")

    ks = np.arange(len(p), dtype=float)
    lost = 0.0
    for t in range(1, steps + 1):
        if p[-1] != 0.0:
            # top bin occupied: widen so the next transfer is not clipped
            grow = max(len(p) // 2, 64)
            if len(p) + grow > max_support:
                raise SupportOverflowError(
                    f"support of {len(p)} bins insufficient at step {t}; "
                    f"widening past max_support={max_support} refused"
                )
            p = np.concatenate([p, np.zeros(grow)])
            ks = np.arange(len(p), dtype=float)
        n_prev = n0 + t - 1
        e_prev = e0 + (m + mh) * (t - 1)
        out_rate = (m * a * n_prev / e_prev) * ks + m * (1.0 - a)
        flow = out_rate * p
        n_new = n_prev * p - flow
        n_new[1:] += flow[:-1]
        n_new[mh] += 1.0
        p = n_new / (n_prev + 1)
        # drop negligible boundary mass so the support tracks the bulk
        if 0.0 < p[-1] < TAIL_TOL:
            lost += p[-1]
            p[-1] = 0.0
            if lost > 1e-6:
                raise SupportOverflowError(
                    f"tail mass dropped in bins below {TAIL_TOL} exceeds 1e-6 by step {t}; "
                    "the pmf cannot be kept to that precision"
                )
    return p


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """TV distance between two pmfs indexed from 0 (padded to equal length)."""
    n = max(len(p), len(q))
    pp = np.zeros(n)
    qq = np.zeros(n)
    pp[: len(p)] = p
    qq[: len(q)] = q
    return 0.5 * float(np.abs(pp - qq).sum())


def ccdf_from_indegrees(in_degrees: np.ndarray, k_max: int) -> np.ndarray:
    """Empirical CCDF evaluated at k = 0 .. k_max as an array."""
    binc = np.bincount(in_degrees, minlength=k_max + 1)[: k_max + 1]
    n = len(in_degrees)
    tail_above = n - binc.sum()  # nodes with in-degree > k_max
    ccdf = (np.concatenate([binc[::-1].cumsum()[::-1], [0]]) + tail_above) / n
    return ccdf[: k_max + 1]
