"""Unit tests for the likelihood, root profile, and MLE."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixnet import (
    AttachmentRecord,
    ModelParams,
    SampleLog,
    SeedSpec,
    check_theorem1,
    grow_sequence,
    log_likelihood,
    make_rng,
    mle_estimate,
    prefix_estimates,
    root_bracket,
    root_profile,
    snapshot_log_likelihood,
    step_estimates,
)
from mixnet.likelihood import (
    EvaluationError,
    NoInformationError,
    _derivative,
    _slope_intercept,
)

from conftest import random_log


def single_record_log(k, e, n):
    return SampleLog(np.array([k]), np.array([e]), np.array([n]), np.array([1]))


class TestLogLikelihood:
    def test_pinned_endpoints(self):
        log = single_record_log(3, 8, 4)
        assert log_likelihood(log, 0.0) == pytest.approx(math.log(0.25), abs=1e-15)
        assert log_likelihood(log, 1.0) == pytest.approx(math.log(0.375), abs=1e-15)

    def test_empty_log_is_zero(self):
        assert log_likelihood(SampleLog.empty(), 0.3) == 0.0

    def test_additive_over_concatenation(self):
        rng = random.Random(0)
        for _ in range(20):
            a = random_log(rng)
            b = random_log(rng)
            both = SampleLog(
                np.concatenate([a.k, b.k]),
                np.concatenate([a.e_prev, b.e_prev]),
                np.concatenate([a.n_prev, b.n_prev]),
                np.concatenate([a.step, a.step[-1] + b.step]),
            )
            alpha = rng.random()
            assert log_likelihood(both, alpha) == pytest.approx(
                log_likelihood(a, alpha) + log_likelihood(b, alpha), rel=1e-12
            )

    def test_nonpositive_factor_raises_with_index(self):
        # record (k=1, e=6, n=3) has root at alpha=2, so the factor is <= 0 there
        log = single_record_log(1, 6, 3)
        with pytest.raises(EvaluationError) as exc:
            log_likelihood(log, 3.0)
        assert exc.value.record_index == 0

    def test_snapshot_wrapper(self):
        records = [AttachmentRecord(3, 8, 4)]
        assert snapshot_log_likelihood(records, 0.0) == pytest.approx(math.log(0.25))
        assert snapshot_log_likelihood([], 0.7) == 0.0


class TestRootProfile:
    def test_pinned_roots(self):
        # (1,6,3) -> 6/(6-3) = 2 ; (3,6,4) -> 6/(6-12) = -1 ; (2,6,3) degenerate
        log = SampleLog(
            np.array([1, 3, 2]), np.array([6, 6, 6]), np.array([3, 4, 3]),
            np.array([1, 2, 3]),
        )
        profile = root_profile(log)
        assert profile.roots == [(-1.0, 1), (2.0, 1)]
        assert profile.degenerate_count == 1
        assert profile.min_positive == 2.0
        assert profile.max_negative == -1.0
        assert profile.degree == 2
        assert profile.positive_multiplicity_sum == 1

    def test_zero_indegree_gives_root_one(self):
        profile = root_profile(single_record_log(0, 10, 4))
        assert profile.roots == [(1.0, 1)]

    def test_multiplicity_merging_is_exact(self):
        # (1,6,3) -> 6/(6-3) = 2 and (2,16,4) -> 16/(16-8) = 2 merge exactly
        log = SampleLog(
            np.array([1, 2]), np.array([6, 16]), np.array([3, 4]), np.array([1, 2])
        )
        profile = root_profile(log)
        assert profile.roots == [(2.0, 2)]

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            root_profile(SampleLog.empty())

    def test_positive_roots_exceed_one(self):
        # any positive root e/(e-kn) with e > kn is > 1 unless k = 0
        rng = random.Random(3)
        for _ in range(50):
            profile = root_profile(random_log(rng))
            for v, _ in profile.positive_roots:
                assert v >= 1.0


class TestTheorem1:
    def test_ok_case(self):
        log = SampleLog(
            np.array([1, 3, 2]), np.array([6, 6, 16]), np.array([3, 4, 4]),
            np.array([1, 2, 3]),
        )
        # roots: 2, -1, 2 -> positive multiplicity 2 (even), both signs present
        ok, detail = check_theorem1(root_profile(log))
        assert ok and detail == "ok"

    def test_missing_negative(self):
        ok, detail = check_theorem1(root_profile(single_record_log(1, 6, 3)))
        assert not ok and "negative" in detail

    def test_missing_positive(self):
        ok, detail = check_theorem1(root_profile(single_record_log(3, 6, 4)))
        assert not ok and "positive" in detail

    def test_odd_parity(self):
        log = SampleLog(
            np.array([1, 3]), np.array([6, 6]), np.array([3, 4]), np.array([1, 2])
        )
        ok, detail = check_theorem1(root_profile(log))
        assert not ok and "odd" in detail


def with_degenerate_records(log: SampleLog, rng: random.Random) -> SampleLog:
    """Insert records with e = k*n (no root) at random positions."""
    rows = list(zip(log.k.tolist(), log.e_prev.tolist(), log.n_prev.tolist()))
    for _ in range(rng.randint(1, 3)):
        n, k = rng.randint(3, 20), rng.randint(1, 6)
        rows.insert(rng.randint(0, len(rows)), (k, k * n, n))
    k, e, n = zip(*rows)
    return SampleLog(np.array(k), np.array(e), np.array(n), np.arange(1, len(rows) + 1))


def bracket_oracle_logs():
    """Random logs with duplicates, k=0 and degenerate records, plus grown logs."""
    rng = random.Random(11)
    for trial in range(300):
        log = random_log(rng, max_records=15, pool_bias=trial % 2 == 0,
                         require_positive_k=False)
        yield with_degenerate_records(log, rng) if trial % 3 == 0 else log
    for alpha in (0.0, 1.0):
        for seed in range(3):
            _, log = grow_sequence(SeedSpec.complete(4), ModelParams(3, 1, alpha),
                                   40, make_rng(seed))
            yield log


class TestRootBracket:
    def test_matches_root_profile(self):
        for log in bracket_oracle_logs():
            profile = root_profile(log)
            bracket = root_bracket(log)
            assert bracket.max_negative == profile.max_negative
            assert bracket.min_positive == profile.min_positive
            assert bracket.positive_multiplicity_sum == profile.positive_multiplicity_sum
            assert bracket.degree == profile.degree
            assert check_theorem1(bracket) == check_theorem1(profile)

    def test_degenerate_only(self):
        bracket = root_bracket(single_record_log(2, 6, 3))
        assert bracket.degree == 0
        assert bracket.max_negative == -math.inf and bracket.min_positive == math.inf

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            root_bracket(SampleLog.empty())


def reference_prefix_trace(log, steps):
    return [repr(mle_estimate(log.prefix(t)).alpha_hat) for t in steps]


class TestPrefixEstimates:
    def test_matches_per_prefix_mle(self):
        rng = random.Random(7)
        for trial in range(40):
            log = random_log(rng, max_records=25, pool_bias=trial % 2 == 0)
            if trial % 3 == 0:
                log = with_degenerate_records(log, rng)
            steps = range(1, log.n_steps + 1)
            try:
                expected = reference_prefix_trace(log, steps)
            except NoInformationError:
                continue
            assert [repr(a) for a in prefix_estimates(log, steps)] == expected

    def test_grown_log(self):
        _, log = grow_sequence(SeedSpec.complete(4), ModelParams(3, 2, 0.6), 300,
                               make_rng(3))
        steps = range(25, 301, 25)
        got = [repr(a) for a in prefix_estimates(log, steps)]
        assert got == reference_prefix_trace(log, steps)

    def test_replay_style_empty_steps(self):
        # steps 2 and 4 have no records, as arrivals citing nothing do
        log = SampleLog(
            np.array([1, 0, 3, 2, 0, 1]), np.array([6, 6, 8, 10, 10, 12]),
            np.array([3, 3, 4, 5, 5, 6]), np.array([1, 1, 3, 5, 5, 6]),
        )
        steps = range(1, 7)
        got = [repr(a) for a in prefix_estimates(log, steps)]
        assert got == reference_prefix_trace(log, steps)

    def test_same_exceptions_as_mle(self):
        # step 1 empty; step 2 degenerate only; step 3 informative
        log = SampleLog(
            np.array([2, 1]), np.array([6, 6]), np.array([3, 3]), np.array([2, 3]),
        )
        for t, error in ((1, ValueError), (2, NoInformationError)):
            with pytest.raises(error) as expected:
                mle_estimate(log.prefix(t))
            with pytest.raises(error) as got:
                prefix_estimates(log, [t, 3])
            assert type(got.value) is type(expected.value)
        assert [repr(a) for a in prefix_estimates(log, [3])] == reference_prefix_trace(log, [3])
        assert prefix_estimates(log, []) == []


def reference_step_trace(log):
    """(t, repr(alpha_hat)) of mle_estimate on each informative step alone."""
    rows = []
    for t in range(1, log.n_steps + 1):
        records = log.step_records(t)
        try:
            rows.append((t, repr(mle_estimate(SampleLog.from_steps([records])).alpha_hat)))
        except NoInformationError:
            continue
        except ValueError:
            assert not records  # the empty-log error
    return rows


class TestStepEstimates:
    def test_matches_single_step_mle(self):
        _, log = grow_sequence(SeedSpec.complete(4), ModelParams(3, 2, 0.6), 200,
                               make_rng(4))
        expected = reference_step_trace(log)
        # the complete seed is regular (k*n = e for every node): step 1 has no roots
        assert expected[0][0] == 2
        assert [(t, repr(a)) for t, a in step_estimates(log)] == expected

    def test_skips_empty_and_degenerate_steps(self):
        # step 2 has no records; step 4 is degenerate (2*3 = 6)
        log = SampleLog(
            np.array([1, 3, 0, 2]), np.array([6, 6, 8, 6]), np.array([3, 4, 4, 3]),
            np.array([1, 1, 3, 4]),
        )
        assert [t for t, _ in step_estimates(log)] == [1, 3]
        assert [(t, repr(a)) for t, a in step_estimates(log)] == reference_step_trace(log)
        assert step_estimates(SampleLog.empty()) == []


class TestMle:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mle_estimate(SampleLog.empty())

    def test_all_degenerate_raises(self):
        # k*n = e for every record: likelihood is constant in alpha
        log = SampleLog(
            np.array([2, 3]), np.array([6, 9]), np.array([3, 3]), np.array([1, 2])
        )
        with pytest.raises(NoInformationError):
            mle_estimate(log)

    def test_permutation_invariance(self):
        rng = random.Random(1)
        for _ in range(20):
            log = random_log(rng, max_records=10)
            order = np.array(rng.sample(range(len(log)), len(log)))
            shuffled = SampleLog(
                log.k[order], log.e_prev[order], log.n_prev[order],
                np.arange(1, len(log) + 1),
            )
            try:
                a = mle_estimate(log).alpha_hat
            except NoInformationError:
                continue
            b = mle_estimate(shuffled).alpha_hat
            assert a == pytest.approx(b, abs=1e-9)

    def test_local_maximum(self):
        rng = random.Random(2)
        checked = 0
        for _ in range(50):
            log = random_log(rng, max_records=30)
            try:
                report = mle_estimate(log)
            except NoInformationError:
                continue
            a = report.alpha_hat
            eps = 1e-4
            lo = max(a - eps, 1e-12)
            hi = min(a + eps, 1.0 - 1e-12)
            center = log_likelihood(log, a)
            # interior maximizer: neighbors are no better (boundary cases skip one side)
            assert center >= log_likelihood(log, lo) - 1e-9 or a - eps < 0
            assert center >= log_likelihood(log, hi) - 1e-9 or a + eps > 1
            assert report.log_likelihood_at_max == pytest.approx(center)
            checked += 1
        assert checked > 30

    def test_derivative_matches_finite_difference(self):
        rng = random.Random(4)
        for _ in range(20):
            log = random_log(rng)
            d, c = _slope_intercept(log)
            alpha = 0.2 + 0.6 * rng.random()
            h = 1e-6
            fd = (log_likelihood(log, alpha + h) - log_likelihood(log, alpha - h)) / (2 * h)
            assert _derivative(d, c, alpha) == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_concave_inside_bracket(self):
        rng = random.Random(5)
        for _ in range(30):
            log = random_log(rng, max_records=20)
            profile = root_profile(log)
            if profile.degree == 0:
                continue
            lo = max(profile.max_negative, 0.0) + 1e-6
            hi = min(profile.min_positive, 1.0) - 1e-6
            if not lo < hi:
                continue
            x1, x2 = lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)
            mid = 0.5 * (x1 + x2)
            chord = 0.5 * (log_likelihood(log, x1) + log_likelihood(log, x2))
            assert log_likelihood(log, mid) >= chord - 1e-10

    def test_report_serialization(self):
        log = SampleLog(
            np.array([1, 3, 2]), np.array([6, 6, 16]), np.array([3, 4, 4]),
            np.array([1, 2, 3]),
        )
        report = mle_estimate(log)
        d = report.to_dict()
        assert set(d) == {"alpha_hat", "bracket", "theorem1_satisfied",
                          "positive_multiplicity_parity", "loglik"}
        assert d["bracket"] == [-1.0, 2.0]
        assert d["positive_multiplicity_parity"] == "even"
        assert report.to_json()

    def test_infinite_bracket_serializes_to_none(self):
        report = mle_estimate(single_record_log(1, 6, 3))
        assert report.to_dict()["bracket"] == [None, 2.0]


@given(alpha=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=30, deadline=None)
def test_loglik_finite_inside_unit_interval(alpha):
    # likelihood factors are positive for all alpha in (0, 1)
    rng = random.Random(int(alpha * 1e6))
    log = random_log(rng, max_records=15, require_positive_k=False)
    assert math.isfinite(log_likelihood(log, alpha))
