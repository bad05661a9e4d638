"""Unit tests for the stationary and finite-time degree distributions."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixnet import (
    ModelParams,
    SeedSpec,
    StationaryDistribution,
    degree_dist,
    finite_t_pmf,
    grow_sequence,
    make_rng,
)
from mixnet.degree_dist import (
    SupportOverflowError,
    UnsupportedRegimeError,
    ccdf_from_indegrees,
    stationary_ccdf_closed_form,
    stationary_pmf_closed_form,
    total_variation,
)

from conftest import head_sum_ccdf

P536 = ModelParams(m=5, m_hat=3, alpha=0.6)

param_strategy = st.builds(
    ModelParams,
    m=st.integers(min_value=1, max_value=8),
    m_hat=st.integers(min_value=0, max_value=5),
    alpha=st.floats(min_value=0.0, max_value=0.9),
)


class TestStationaryPmf:
    def test_base_case_pinned(self):
        # (m + m_hat) / (m^2 + m*m_hat + m + m_hat - alpha*m^2) = 8/33
        assert StationaryDistribution(P536).pmf(3) == pytest.approx(8.0 / 33.0, abs=1e-15)

    def test_uniform_limit_is_geometric(self):
        params = ModelParams(m=5, m_hat=3, alpha=0.0)
        dist = StationaryDistribution(params)
        for k in range(3, 30):
            expect = (1.0 / 6.0) * (5.0 / 6.0) ** (k - 3)
            assert dist.pmf(k) == pytest.approx(expect, rel=1e-12)

    def test_below_support_rejected(self):
        with pytest.raises(ValueError):
            StationaryDistribution(P536).pmf(2)

    @given(params=param_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, params):
        dist = StationaryDistribution(params)
        k_max = dist.support_for_mass(1.0 - 1e-6)
        assert dist.pmf_array(k_max).sum() == pytest.approx(1.0, abs=1e-5)

    @given(params=param_strategy)
    @settings(max_examples=60, deadline=None)
    def test_pmf_positive(self, params):
        dist = StationaryDistribution(params)
        assert (dist.pmf_array(params.m_hat + 100) > 0).all()

    def test_unsupported_regime(self):
        with pytest.raises(UnsupportedRegimeError):
            StationaryDistribution(ModelParams(m=5, m_hat=0, alpha=1.0))
        with pytest.raises(UnsupportedRegimeError):
            stationary_pmf_closed_form(ModelParams(m=5, m_hat=0, alpha=1.0), 5)


class TestStationaryCcdf:
    def test_pinned_values(self):
        dist = StationaryDistribution(P536)
        assert dist.ccdf_array(3)[-1] == 1.0
        assert dist.ccdf_array(4)[-1] == pytest.approx(25.0 / 33.0, rel=1e-12)

    def test_uniform_limit(self):
        params = ModelParams(m=5, m_hat=3, alpha=0.0)
        dist = StationaryDistribution(params)
        assert dist.ccdf_array(5)[-1] == pytest.approx((5.0 / 6.0) ** 2, rel=1e-10)
        # deep tail: 1 - cumsum alone would lose all precision here
        assert dist.ccdf_array(203)[-1] == pytest.approx(
            (5.0 / 6.0) ** 200, rel=1e-6
        )

    @given(params=param_strategy)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_unit_interval(self, params):
        dist = StationaryDistribution(params)
        ccdf = dist.ccdf_array(params.m_hat + 150)
        assert ccdf[0] == 1.0
        assert (np.diff(ccdf) <= 1e-15).all()
        assert (ccdf >= 0).all() and (ccdf <= 1.0).all()

    def test_consistent_with_pmf(self):
        dist = StationaryDistribution(P536)
        pmf = dist.pmf_array(50)
        ccdf = dist.ccdf_array(51)
        np.testing.assert_allclose(-np.diff(ccdf), pmf, rtol=1e-9)


class TestClosedForms:
    CASES = [
        ModelParams(m=5, m_hat=3, alpha=0.0),
        ModelParams(m=5, m_hat=3, alpha=0.25),
        ModelParams(m=5, m_hat=3, alpha=0.6),
        ModelParams(m=5, m_hat=3, alpha=0.9),
        ModelParams(m=5, m_hat=1, alpha=1.0),
    ]

    @pytest.mark.parametrize("params", CASES, ids=lambda p: f"a{p.alpha}-mh{p.m_hat}")
    def test_pmf_matches_recurrence(self, params):
        dist = StationaryDistribution(params)
        ks = np.arange(params.m_hat, 201)
        pmf = dist.pmf_array(200)
        closed = np.array([stationary_pmf_closed_form(params, int(k)) for k in ks])
        np.testing.assert_allclose(pmf, closed, rtol=1e-8)

    @pytest.mark.parametrize("params", CASES, ids=lambda p: f"a{p.alpha}-mh{p.m_hat}")
    def test_ccdf_matches_recurrence(self, params):
        dist = StationaryDistribution(params)
        ks = np.arange(params.m_hat, 201)
        ccdf = dist.ccdf_array(200)
        closed = np.array([stationary_ccdf_closed_form(params, int(k)) for k in ks])
        np.testing.assert_allclose(ccdf, closed, rtol=1e-6)


class TestSupportAndQuantiles:
    def test_support_for_mass_is_minimal(self):
        dist = StationaryDistribution(P536)
        k = dist.support_for_mass(0.99)
        assert dist.pmf_array(k).sum() >= 0.99
        assert dist.pmf_array(k - 1).sum() < 0.99

    def test_quantile_monotone(self):
        dist = StationaryDistribution(P536)
        qs = [dist.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)
        assert qs[0] >= 3

    def test_support_cap(self):
        dist = StationaryDistribution(P536)
        with pytest.raises(ValueError, match="support above"):
            dist.support_for_mass(1.0 - 1e-9, k_cap=20)


def _oracle_cases():
    """(m, m_hat) rows of FIG3, a small m_hat and m_hat = 0 over the alpha grid."""
    for m, mh in ((5, 3), (3, 1), (2, 0)):
        for a in (0.0, 0.2, 0.6, 1.0 - 1e-8, 1.0):
            if not (a == 1.0 and mh == 0):
                yield pytest.param(ModelParams(m=m, m_hat=mh, alpha=a), id=f"m{m}-mh{mh}-a{a}")
    # m^2 (1 - alpha) at k = 1 cancels unless the ratio keeps (1 - alpha) whole
    yield pytest.param(ModelParams(m=5, m_hat=0, alpha=1.0 - 1e-8), id="m5-mh0-a0.99999999")


class TestCcdfOracle:
    @pytest.mark.parametrize("params", _oracle_cases())
    def test_matches_head_sum(self, params):
        k_max = 10_000
        ccdf = StationaryDistribution(params).ccdf_array(k_max)
        oracle = head_sum_ccdf(params, k_max)
        rel = [abs((mpmath.mpf(c) - o) / o) for c, o in zip(ccdf.tolist(), oracle)
               if o > 1e-300]
        assert len(rel) > 1000
        assert max(rel) <= 1e-12


def _exact_cdf(params: ModelParams):
    """Yield (k, CDF(k)) for k = m_hat, m_hat + 1, ... in exact arithmetic."""
    m, mh, a = params.m, params.m_hat, Fraction(params.alpha)
    p = Fraction(m + mh) / (m * m + m * mh + m + mh - a * m * m)
    cdf, k = p, mh
    while True:
        yield k, cdf
        k += 1
        p *= ((a * (k * m - m * m - m * mh - m) + m * m + m * mh)
              / (a * (k * m - m * m - m * mh) + m * m + m * mh + m + mh))
        cdf += p


class TestQuantileExact:
    @pytest.mark.parametrize("params", [
        ModelParams(m=5, m_hat=3, alpha=0.0),
        ModelParams(m=5, m_hat=3, alpha=0.25),
        ModelParams(m=5, m_hat=3, alpha=0.5),
        ModelParams(m=2, m_hat=0, alpha=0.5),
        ModelParams(m=3, m_hat=1, alpha=0.75),
        ModelParams(m=5, m_hat=1, alpha=1.0),
    ], ids=lambda p: f"m{p.m}-mh{p.m_hat}-a{p.alpha}")
    def test_matches_fraction_cdf(self, params):
        dist = StationaryDistribution(params)
        for q in (0.05, 0.1, 0.5, 0.9, 0.99, 0.999):
            prev, q_exact = Fraction(0), Fraction(q)
            for k, cdf in _exact_cdf(params):
                if cdf >= q_exact:
                    break
                prev = cdf
            # within 1e-12 of q the float CDF may fall on either side: no pinned tie
            allowed = {k}
            if cdf - q_exact <= 1e-12:
                allowed.add(k + 1)
            if q_exact - prev <= 1e-12 and k > params.m_hat:
                allowed.add(k - 1)
            assert dist.quantile(q) in allowed, (q, k)
            assert dist.support_for_mass(q) in allowed, (q, k)


class TestFiniteT:
    SEED_STATS = (3, 6, {2: 1.0})  # K3: every node has in-degree 2

    def test_zero_steps_returns_seed(self):
        p = finite_t_pmf(P536, self.SEED_STATS, 0)
        assert p[2] == 1.0
        assert p.sum() == pytest.approx(1.0)

    def test_mass_conserved(self):
        p = finite_t_pmf(P536, self.SEED_STATS, 2000)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_converges_toward_stationary(self):
        p1 = finite_t_pmf(P536, self.SEED_STATS, 500)
        p2 = finite_t_pmf(P536, self.SEED_STATS, 5000)
        dist = StationaryDistribution(P536)
        k_hi = max(len(p1), len(p2)) + 3
        theory = np.zeros(k_hi)
        theory[3:] = dist.pmf_array(k_hi - 1)[: k_hi - 3]
        assert total_variation(p2, theory) < total_variation(p1, theory)

    def test_support_overflow(self):
        with pytest.raises(SupportOverflowError, match="max_support"):
            finite_t_pmf(P536, self.SEED_STATS, 5000, max_support=50)

    def test_dropped_tail_mass_raises(self, monkeypatch):
        # a tolerance above the top bin's mass drops more than 1e-6 of it
        monkeypatch.setattr(degree_dist, "TAIL_TOL", 0.5)
        with pytest.raises(SupportOverflowError, match="tail mass dropped in bins below 0.5"):
            finite_t_pmf(P536, self.SEED_STATS, 2000)

    def test_bad_seed_pmf(self):
        with pytest.raises(ValueError, match="sums to"):
            finite_t_pmf(P536, (3, 6, {2: 0.5}), 10)
        with pytest.raises(ValueError, match="negative in-degree"):
            finite_t_pmf(P536, (3, 6, {-1: 1.0}), 10)


class TestTotalVariation:
    def test_basic(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_padding(self):
        assert total_variation(np.array([1.0]), np.array([0.5, 0.5])) == 0.5


class TestEmpirical:
    def test_counts_and_ccdf(self):
        net, _ = grow_sequence(
            SeedSpec.complete(4), ModelParams(m=2, m_hat=1, alpha=0.5),
            200, make_rng(0),
        )
        degrees = net.in_degree_array()
        ccdf = ccdf_from_indegrees(degrees, int(degrees.max()) + 1)
        assert ccdf[0] == 1.0
        assert (np.diff(ccdf) <= 0).all()
        assert ccdf[-1] == 0.0
        assert ccdf[-2] == np.count_nonzero(degrees == degrees.max()) / net.node_count

    def test_ccdf_pinned_small(self):
        # degrees [0, 1, 1, 3]: ccdf(1) = 3/4, ccdf(2) = 1/4, ccdf(4) = 0
        ccdf = ccdf_from_indegrees(np.array([0, 1, 1, 3]), 4)
        assert ccdf.tolist() == [1.0, 0.75, 0.25, 0.25, 0.0]

    def test_ccdf_from_indegrees_matches_dict(self):
        degrees = np.array([0, 1, 1, 3])
        arr = ccdf_from_indegrees(degrees, 4)
        np.testing.assert_allclose(arr, [1.0, 0.75, 0.25, 0.25, 0.0])

    def test_ccdf_from_indegrees_counts_tail_above_kmax(self):
        degrees = np.array([0, 10])
        arr = ccdf_from_indegrees(degrees, 3)
        np.testing.assert_allclose(arr, [1.0, 0.5, 0.5, 0.5])
