"""Unit tests for the likelihood, root profile, and MLE."""

import json
import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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
    step_estimates,
)
from mixnet.likelihood import (
    BISECTION_WIDTH,
    INTERIOR_MARGIN,
    EvaluationError,
    NoInformationError,
    RootBracket,
    _bisect,
    _bracket,
    _derivative,
    _maximize,
    _slope_intercept,
    _sum_log_factors,
)

from conftest import random_log, reference_lockstep_maximize


def single_record_log(k, e, n):
    return SampleLog(np.array([k]), np.array([e]), np.array([n]), np.array([1]))


def two_record_log(first, second):
    """One step of two (k, e_prev, n_prev) records."""
    k, e, n = map(np.array, zip(first, second))
    return SampleLog(k, e, n, np.array([1, 1]))


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

    @pytest.mark.parametrize("factors, index, kind", [
        ([0.5, np.nan, 0.2], 1, "non-finite"),
        ([0.5, 0.2, np.inf], 2, "non-finite"),
        ([0.5, np.inf, -1.0], 1, "non-finite"),
        ([0.5, 0.0, np.nan], 1, "non-positive"),
    ])
    def test_bad_factor_raises_with_index(self, factors, index, kind):
        log = SampleLog(np.ones(3, int), np.full(3, 6), np.full(3, 3), np.arange(1, 4))
        with pytest.raises(EvaluationError, match=f"^{kind} likelihood factor at alpha=0.3 "
                                                  f"for record {index} ") as exc:
            _sum_log_factors(log, np.array(factors), 0.3)
        assert exc.value.record_index == index

    def test_snapshot_wrapper(self):
        # one step's multiset; the empty multiset gives 0
        log = SampleLog.from_steps([[AttachmentRecord(3, 8, 4)]])
        assert log_likelihood(log, 0.0) == pytest.approx(math.log(0.25))
        assert log_likelihood(SampleLog.from_steps([[]]), 0.7) == 0.0


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
        assert json.loads(json.dumps(d)) == d

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


# --- the scalar solver every MLE solve used before the lockstep batch, kept
# verbatim as a differential oracle, with the per-solve bracket it bisected


def reference_signed_roots(log):
    den = log.e_prev - log.k * log.n_prev
    root = log.e_prev / np.where(den == 0, 1, den)
    return np.where(den < 0, root, -np.inf), np.where(den > 0, root, np.inf)


def reference_bracket(negative, positive):
    n_positive = int(np.count_nonzero(positive < np.inf))
    return RootBracket(
        max_negative=float(negative.max()),
        min_positive=float(positive.min()),
        positive_multiplicity_sum=n_positive,
        degree=n_positive + int(np.count_nonzero(negative > -np.inf)),
    )


def reference_derivative(d, c, alpha):
    return float((d / (d * alpha + c)).sum())


def reference_maximize(d, c, bracket):
    if bracket.degree == 0:
        raise NoInformationError("all records are degenerate; likelihood is flat in alpha")
    lo = max(bracket.max_negative, 0.0) + INTERIOR_MARGIN
    hi = min(bracket.min_positive, 1.0) - INTERIOR_MARGIN
    if not lo < hi:
        raise ValueError(f"empty maximization interval ({lo}, {hi})")

    if reference_derivative(d, c, lo) <= 0:
        return lo
    if reference_derivative(d, c, hi) >= 0:
        return hi
    left, right = lo, hi
    while right - left > BISECTION_WIDTH:
        mid = 0.5 * (left + right)
        if reference_derivative(d, c, mid) > 0:
            left = mid
        else:
            right = mid
    return 0.5 * (left + right)


def reference_mle(log):
    if len(log) == 0:
        raise ValueError("cannot estimate from an empty log")
    d, c = _slope_intercept(log)
    return reference_maximize(d, c, reference_bracket(*reference_signed_roots(log)))


def reference_prefix_estimates(log, steps):
    d, c = _slope_intercept(log)
    negative, positive = reference_signed_roots(log)
    estimates = []
    for stop in np.searchsorted(log.step, steps, side="right").tolist():
        if stop == 0:
            raise ValueError("cannot estimate from an empty log")
        bracket = reference_bracket(negative[:stop], positive[:stop])
        estimates.append(reference_maximize(d[:stop], c[:stop], bracket))
    return estimates


def reference_step_estimates(log):
    if len(log) == 0:
        return []
    d, c = _slope_intercept(log)
    negative, positive = reference_signed_roots(log)
    starts = (np.flatnonzero(np.diff(log.step)) + 1).tolist()
    estimates = []
    for start, stop in zip([0, *starts], [*starts, len(log)]):
        bracket = reference_bracket(negative[start:stop], positive[start:stop])
        if bracket.degree:
            estimates.append(
                (int(log.step[start]), reference_maximize(d[start:stop], c[start:stop], bracket))
            )
    return estimates


def outcome(estimator, *args):
    """repr of the result, or the type and message of the ValueError raised."""
    try:
        return repr(estimator(*args))
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def model_logs(draw):
    """Logs grown from a complete seed, at alpha in {0, 1} (boundary maxima) or inside."""
    alpha = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    params = ModelParams(draw(st.integers(1, 6)), draw(st.integers(1, 3)), alpha)
    seed = SeedSpec.complete(draw(st.integers(2, 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a seed below max(m, m_hat) warns
        _, log = grow_sequence(seed, params, draw(st.integers(1, 80)),
                               make_rng(draw(st.integers(0, 2**16))))
    return log


def cite_style_log(seed, steps, max_width, zero_share, degenerate_share):
    """Steps of mixed record counts, with empty steps, k = 0 and degenerate records."""
    rng = np.random.default_rng(seed)
    width = rng.integers(0, max_width + 1, steps)
    n = np.repeat(np.arange(10, 10 + steps), width)
    e = np.repeat(20 + 13 * np.arange(steps), width)
    k = rng.integers(0, 4 * e // n + 2)
    k[rng.random(len(k)) < zero_share] = 0
    degenerate = (rng.random(len(k)) < degenerate_share) & (e % n == 0)
    k[degenerate] = (e // n)[degenerate]
    return SampleLog(k, e, n, np.repeat(np.arange(1, steps + 1), width))


@st.composite
def cite_style_logs(draw):
    return cite_style_log(
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 60)),
        draw(st.sampled_from([1, 3, 8, 20, 140])),
        draw(st.sampled_from([0.0, 0.3, 1.0])), draw(st.sampled_from([0.0, 0.5, 1.0])),
    )


def one_step_log(records):
    """A single step of ``records`` records: one row of that width."""
    k = np.random.default_rng(records).integers(0, 30, records)
    full = np.full(records, 1)
    return SampleLog(k, 60_000 * full, 5_000 * full, full)


def degenerate_steps_log():
    """Steps 1 and 3 hold only records with e = k*n; step 2 has a root."""
    return SampleLog(np.array([2, 3, 1, 0, 2]), np.array([6, 9, 8, 8, 10]),
                     np.array([3, 3, 4, 4, 5]), np.array([1, 1, 2, 2, 3]))


class TestLockstepSolver:
    @settings(max_examples=60, deadline=None)
    @given(log=st.one_of(model_logs(), cite_style_logs()), first=st.integers(1, 80),
           stride=st.integers(1, 7))
    @example(log=one_step_log(10**5), first=1, stride=1)
    @example(log=cite_style_log(1, 3, 300, 0.0, 0.0), first=1, stride=1)
    @example(log=degenerate_steps_log(), first=1, stride=1)
    @example(log=degenerate_steps_log(), first=2, stride=2)
    @example(log=SampleLog.empty(), first=1, stride=1)
    def test_matches_reference_solver(self, log, first, stride):
        assert outcome(lambda: mle_estimate(log).alpha_hat) == outcome(reference_mle, log)
        steps = range(first, log.n_steps + 1, stride)
        assert (outcome(prefix_estimates, log, steps)
                == outcome(reference_prefix_estimates, log, steps))
        assert repr(step_estimates(log)) == repr(reference_step_estimates(log))

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 127, 128, 129, 4097])
    def test_row_sums_equal_1d_sums(self, width):
        # the solver's exactness rests on this: each row of a batch is
        # summed as its records alone would be
        rng = np.random.default_rng(width)
        x = rng.standard_normal((6, width)) * 10.0 ** rng.uniform(-8, 8, (6, width))
        rows = x.sum(axis=1)
        assert all(rows[i] == x[i].copy().sum() for i in range(len(x)))

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(
        st.one_of(
            st.tuples(st.integers(1, 10**6), st.integers(1, 10**9)).flatmap(
                lambda ne: st.tuples(st.integers(0, ne[1]), st.just(ne[1]), st.just(ne[0]))),
            st.tuples(st.integers(0, 10**4), st.integers(1, 10**4)).map(
                lambda kn: (kn[0], max(kn[0] * kn[1], 1), kn[1])),  # e = k*n where k > 0
        ),
        min_size=1, max_size=30,
    ))
    def test_roots_leave_unit_interval_free(self, records):
        # 0 < e - k*n <= e puts a positive root at 1 or above; e >= 1 puts a
        # negative one below 0, so every bracket contains (0, 1)
        k, e, n = map(np.array, zip(*records))
        bracket = root_bracket(SampleLog(k, e, n, np.arange(1, len(k) + 1)))
        assert bracket.min_positive >= 1.0
        assert bracket.max_negative < 0.0


@st.composite
def pool_logs(draw):
    """Small-pool logs: duplicate roots, degenerate and k = 0 records."""
    return random_log(random.Random(draw(st.integers(0, 2**32 - 1))), max_records=40,
                      pool_bias=True, require_positive_k=draw(st.booleans()))


def solver_logs():
    return st.one_of(model_logs(), cite_style_logs(), pool_logs())


def warm_maximize(d, c, guess):
    """``_maximize`` with Newton started at ``guess``, a float or one per row."""
    out = np.empty_like(d)

    def score(rows, x):
        return _derivative(d[rows], c[rows], x[:, None], out[:len(rows)])

    return _bisect(*_bracket(score, out, len(d), guess)[1:], score)


class TestWarmStartSolver:
    @settings(max_examples=150, deadline=None)
    @given(log=solver_logs(), guess=st.floats(0.0, 1.0))
    @example(log=single_record_log(1, 6, 3), guess=0.5)  # the maximum at lo
    @example(log=single_record_log(3, 6, 3), guess=0.5)  # the maximum at hi
    @example(log=two_record_log((1, 2, 4), (1, 30_000_001, 20_000_000)), guess=0.5)  # 1 - 1e-7
    @example(log=two_record_log((1, 2, 4), (1, 10_000_000, 1)), guess=0.5)  # 5e-8
    @example(log=one_step_log(10**5), guess=INTERIOR_MARGIN)
    @example(log=cite_style_log(1, 3, 300, 1.0, 0.0), guess=1.0)  # k = 0 records only
    @example(log=degenerate_steps_log(), guess=0.0)
    def test_matches_lockstep_oracle(self, log, guess):
        # bit for bit, from the ends, from the cold start and from anywhere
        if len(log) == 0:
            return
        d, c = _slope_intercept(log)
        expected = reference_lockstep_maximize(d[None], c[None]).tolist()
        for start in (INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN, 0.5, guess):
            assert warm_maximize(d[None], c[None], start).tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(log=cite_style_logs(), seed=st.integers(0, 2**32 - 1))
    def test_batches_match_lockstep_oracle(self, log, seed):
        # rows of one width, as step_estimates batches them, with a guess each
        d, c = _slope_intercept(log)
        starts = np.flatnonzero(np.diff(log.step, prepend=0))
        widths = np.diff(starts, append=len(log))
        guesses = np.random.default_rng(seed).random(len(starts))
        for width in np.unique(widths).tolist():
            group = np.flatnonzero(widths == width)
            rows = starts[group, None] + np.arange(width)
            expected = reference_lockstep_maximize(d[rows], c[rows]).tolist()
            assert warm_maximize(d[rows], c[rows], guesses[group]).tolist() == expected
            assert _maximize(d[rows], c[rows]).tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(log=solver_logs(), x=st.floats(INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN),
           y=st.floats(INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN))
    @example(log=cite_style_log(1, 3, 300, 0.3, 0.5), x=0.25, y=1.0 - INTERIOR_MARGIN)
    def test_score_never_increases(self, log, x, y):
        # the replay skips evaluations on this property of the float score
        # on one row shape: at two points, and at 32 neighbouring floats
        if len(log) == 0:
            return
        d, c = _slope_intercept(log)
        a, b = sorted((x, y))
        assert _derivative(d[None], c[None], a)[0] >= _derivative(d[None], c[None], b)[0]
        ulps = [a]
        for _ in range(32):
            ulps.append(float(np.nextafter(ulps[-1], 1.0)))
        scores = _derivative(np.tile(d, (len(ulps), 1)), np.tile(c, (len(ulps), 1)),
                             np.array(ulps)[:, None])
        assert (np.diff(scores) <= 0).all()

    @settings(max_examples=40, deadline=None)
    @given(log=solver_logs(), stride=st.integers(1, 7))
    def test_prefix_warm_chain_matches_reference(self, log, stride):
        # each prefix's Newton starts at the previous prefix's root
        steps = range(stride, log.n_steps + 1, stride)
        assert (outcome(prefix_estimates, log, steps)
                == outcome(reference_prefix_estimates, log, steps))


def mpmath_argmax(log):
    """argmax of sum(log(d*alpha + c)) over [INTERIOR_MARGIN, 1 - INTERIOR_MARGIN]
    at 40 digits, from the integer counts: the end where the score keeps one
    sign, else the score's root (the log-likelihood is concave there)."""
    with mpmath.workdps(40):
        rows = [(mpmath.mpf(k) / e - mpmath.mpf(1) / n, mpmath.mpf(1) / n)
                for k, e, n in zip(log.k.tolist(), log.e_prev.tolist(), log.n_prev.tolist())]

        def score(alpha):
            return mpmath.fsum(d / (d * alpha + c) for d, c in rows)

        lo, hi = mpmath.mpf(INTERIOR_MARGIN), mpmath.mpf(1.0 - INTERIOR_MARGIN)
        if score(lo) <= 0:
            return lo
        if score(hi) >= 0:
            return hi
        return mpmath.findroot(score, (lo, hi), solver="anderson")


class TestArgmaxOracle:
    def test_mle_matches_mpmath_argmax(self):
        # bracket_oracle_logs: random logs with pool duplicates, k = 0 and
        # degenerate records, and logs grown at alpha in {0, 1}; then one
        # record with k/e below 1/n and one above, maxima at either end
        logs = [*bracket_oracle_logs(), single_record_log(1, 6, 3), single_record_log(3, 6, 3)]
        ends = {"lo": 0, "hi": 0, "interior": 0}
        for log in logs:
            try:
                alpha_hat = mle_estimate(log).alpha_hat
            except NoInformationError:
                continue
            best = mpmath_argmax(log)
            assert abs(alpha_hat - float(best)) <= 1e-9, (log, alpha_hat, best)
            end = ("lo" if best == INTERIOR_MARGIN else
                   "hi" if best == 1.0 - INTERIOR_MARGIN else "interior")
            ends[end] += 1
        assert sum(ends.values()) >= 200
        assert min(ends.values()) >= 2, ends
