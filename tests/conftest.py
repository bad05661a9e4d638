"""Shared fixtures and random-log helpers for the test suite."""

import math
import random

import mpmath
import numpy as np
import pytest

from mixnet import ModelParams, SampleLog, SeedSpec, grow_sequence, make_rng


def random_record(rng: random.Random, pool_bias: bool = False):
    """One valid (k, e_prev, n_prev) triple.

    With ``pool_bias`` the values come from a small pool so that repeated
    draws produce duplicate records (and hence root multiplicities).
    """
    if pool_bias:
        n = rng.choice([3, 4, 5])
        e = rng.choice([6, 8, 10, 12])
        k = rng.choice([0, 1, 2, 3])
    else:
        n = rng.randint(3, 50)
        e = rng.randint(n, 400)
        k = rng.randint(0, min(e, 30))
    return k, e, n


def random_log(rng: random.Random, max_records: int = 12, pool_bias: bool = False,
               require_positive_k: bool = True) -> SampleLog:
    n_rec = rng.randint(2, max_records)
    rows = [random_record(rng, pool_bias) for _ in range(n_rec)]
    if require_positive_k and not any(k > 0 for k, _, _ in rows):
        k, e, n = rows[0]
        rows[0] = (max(k, 1), max(e, 1), n)
    k, e, n = zip(*rows)
    steps = np.arange(1, n_rec + 1)
    return SampleLog(np.array(k), np.array(e), np.array(n), steps)


FIG3_PARAMS = ModelParams(m=5, m_hat=3, alpha=0.6)
FIG3_STEPS = 20000
FIG3_N_SEEDS = 10


@pytest.fixture(scope="session")
def fig3_runs():
    """Ten independent K3-seeded runs at (m=5, m_hat=3, alpha=0.6), T=20000."""
    seed_spec = SeedSpec.complete(3)
    runs = []
    for s in range(FIG3_N_SEEDS):
        with pytest.warns(UserWarning):
            _, log = grow_sequence(seed_spec, FIG3_PARAMS, FIG3_STEPS, make_rng(s))
        runs.append(log)
    return runs


def head_sum_ccdf(params: ModelParams, k_max: int) -> list:
    """Stationary CCDF for k = m_hat .. k_max as 1 - sum_{j<k} P(j) in mpmath.

    An oracle that does not use the closed tail sum: the pmf comes from its
    ratio recurrence, and the working precision is raised by the digits the
    head sum cancels.  Those are at most -log10 P(k_max), since CCDF >= pmf,
    and capped at 300: compare only where the CCDF exceeds 1e-300.
    """
    m, mh = params.m, params.m_hat

    def base(a):
        return (m + mh) / (m * m + m * mh + m + mh - a * m * m)

    def ratio(a, k):
        return ((a * (k * m - m * m - m * mh - m) + m * m + m * mh)
                / (a * (k * m - m * m - m * mh) + m * m + m * mh + m + mh))

    # a float estimate of the digits lost is enough to set the precision
    a = params.alpha
    log10_last = math.log10(base(a)) + math.fsum(
        math.log10(ratio(a, k)) for k in range(mh + 1, k_max + 1))
    with mpmath.workdps(30 + min(300, int(-log10_last))):
        a = mpmath.mpf(a)  # the float's exact value
        out, head, p = [], mpmath.mpf(0), base(a)
        for k in range(mh, k_max + 1):
            if k > mh:
                p *= ratio(a, k)
            out.append(1 - head)
            head += p
    return out
