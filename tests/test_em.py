"""Unit tests for the EM estimator."""

import math
import random
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixnet import (
    AttachmentRecord,
    EmConfig,
    SampleLog,
    SeedSpec,
    ModelParams,
    em_estimate,
    grow_sequence,
    make_rng,
    mle_estimate,
)
import mixnet.em
from mixnet.cli import main
from mixnet.em import MONOTONICITY_SLACK, _mixture
from mixnet.likelihood import EvaluationError, NoInformationError, _sum_log_factors

import conftest
from conftest import random_log, reference_em_estimate, reference_em_step


def first_update(log: SampleLog, alpha: float, keep_zero_indegree: bool = False) -> float:
    """EM's first update from ``alpha``: the mean responsibility of the records."""
    cfg = EmConfig(alpha_init=alpha, max_iter=1, keep_zero_indegree=keep_zero_indegree)
    return em_estimate(log, cfg).iterations[1][0]


def own_update(record: AttachmentRecord, alpha: float) -> float:
    """``first_update`` of a one-record log; for a record with e = k*n, which EM
    refuses alone, the E-step's responsibility itself."""
    single = SampleLog.from_steps([[record]])
    if record.e_prev == record.k * record.n_prev:
        pref, total = _mixture(single.k / single.e_prev, single.n_prev.astype(float), alpha)
        return float(pref[0] / total[0])
    return first_update(single, alpha)


class TestResponsibility:
    def test_pinned_value(self):
        # pref = (2/6)*0.5 = 1/6, rand = 0.5/6 = 1/12 -> 2/3
        r = first_update(SampleLog.from_steps([[AttachmentRecord(2, 6, 6)]]), 0.5)
        assert r == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_indegree_gives_zero(self):
        log = SampleLog.from_steps([[AttachmentRecord(0, 10, 5)]])
        assert first_update(log, 0.7, keep_zero_indegree=True) == 0.0

    def test_extremes(self):
        ke, n_prev = np.array([2 / 6]), np.array([6.0])
        for alpha, expect in ((0.0, 0.0), (1.0, 1.0)):
            pref, total = _mixture(ke, n_prev, alpha)
            assert (pref / total).tolist() == [expect]

    def test_degenerate_density_raises(self):
        # at alpha = 1 a k = 0 record has mixture density 0, the factor EM logs
        cfg = EmConfig(max_iter=1, keep_zero_indegree=True)
        object.__setattr__(cfg, "alpha_init", 1.0)
        with pytest.raises(ValueError, match="non-positive likelihood factor at alpha=1.0"):
            em_estimate(SampleLog.from_steps([[AttachmentRecord(0, 10, 5)]]), cfg)


class TestSharedEStep:
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.6, 0.97])
    def test_update_is_bit_identical(self, alpha):
        # EM's update over a log is the mean of its records' own updates, bit
        # for bit: each record's responsibility comes from the one E-step
        rng = random.Random(int(alpha * 100))
        for _ in range(20):
            log = random_log(rng, max_records=40, require_positive_k=True)
            ones = [own_update(record, alpha) for record in log.drop_zero_indegree().records()]
            assert first_update(log, alpha) == float(np.mean(ones))


class TestEmStep:
    def test_pinned_mean(self):
        # responsibilities 2/3 and 1/2 -> mean 7/12
        log = SampleLog(
            np.array([2, 2]), np.array([6, 6]), np.array([6, 3]), np.array([1, 2])
        )
        assert first_update(log, 0.5) == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty log"):
            em_estimate(SampleLog.empty(), EmConfig(max_iter=1))

    def test_range(self):
        rng = random.Random(0)
        for _ in range(50):
            log = random_log(rng)
            alpha = 0.05 + 0.9 * rng.random()
            assert 0.0 <= first_update(log, alpha, keep_zero_indegree=True) <= 1.0


class TestEmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmConfig(alpha_init=0.0)
        with pytest.raises(ValueError):
            EmConfig(alpha_init=1.0)
        for epsilon in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                EmConfig(epsilon=epsilon)
        with pytest.raises(ValueError):
            EmConfig(max_iter=0)


class TestEmEstimate:
    def test_converges_to_fixed_point(self):
        rng = random.Random(1)
        for _ in range(20):
            log = random_log(rng, max_records=40)
            trace = em_estimate(log)
            assert trace.converged
            a = trace.final_alpha
            working = log.drop_zero_indegree()
            assert reference_em_step(working, a) == pytest.approx(a, abs=1e-6)

    def test_objective_never_decreases(self):
        rng = random.Random(2)
        for _ in range(20):
            log = random_log(rng, max_records=40)
            trace = em_estimate(log)
            logliks = [ll for _, ll in trace.iterations]
            assert all(b >= a - 1e-12 for a, b in zip(logliks, logliks[1:]))

    def test_drops_zero_indegree_by_default(self):
        # zeros force the estimate down only when kept
        log = SampleLog(
            np.array([2, 2, 0, 0]), np.array([6, 6, 6, 6]),
            np.array([6, 6, 6, 6]), np.array([1, 2, 3, 4]),
        )
        dropped = em_estimate(log).final_alpha
        kept = em_estimate(log, EmConfig(keep_zero_indegree=True)).final_alpha
        assert kept < dropped

    def test_all_zero_records_rejected(self):
        log = SampleLog(
            np.array([0, 0]), np.array([6, 6]), np.array([3, 3]), np.array([1, 2])
        )
        with pytest.raises(ValueError, match="only zero-in-degree"):
            em_estimate(log)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            em_estimate(SampleLog.empty())

    def test_no_information_rejected(self):
        # the one kept record has e = k*n, so every alpha is a fixed point: EM
        # raises, as the MLE does, instead of reporting alpha_init
        log = SampleLog(np.array([0, 1]), np.array([5, 4]), np.array([3, 4]), np.array([1, 2]))
        beside = mock.Mock()
        for call in (lambda: em_estimate(log), lambda: em_estimate(log, beside=beside)):
            with pytest.raises(NoInformationError, match="flat in alpha"):
                call()
        beside.assert_not_called()
        # kept, the k = 0 record informs the estimate
        assert em_estimate(log, EmConfig(keep_zero_indegree=True)).converged

    def test_init_independence(self):
        rng = random.Random(3)
        log = random_log(rng, max_records=60)
        a1 = em_estimate(log, EmConfig(alpha_init=0.1)).final_alpha
        a2 = em_estimate(log, EmConfig(alpha_init=0.9)).final_alpha
        assert a1 == pytest.approx(a2, abs=1e-6)

    def test_agrees_with_mle_on_simulated_log(self):
        seed = SeedSpec.complete(4)
        params = ModelParams(m=3, m_hat=2, alpha=0.55)
        _, log = grow_sequence(seed, params, 3000, make_rng(17))
        a_mle = mle_estimate(log).alpha_hat
        a_em = em_estimate(log).final_alpha
        assert a_em == pytest.approx(a_mle, abs=1e-3)

    def test_trace_csv(self, tmp_path):
        # the trace is written by estimate --method em, a row per iterate
        rng = random.Random(4)
        log = random_log(rng)
        log_path, out = tmp_path / "log.csv", tmp_path / "est"
        log.to_csv(log_path)
        assert main(["estimate", str(log_path), "--method", "em", "--out", str(out)]) == 0
        trace = em_estimate(SampleLog.from_csv(log_path))
        lines = (out / "em_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,alpha,loglik"
        assert len(lines) == len(trace.iterations) + 1


def _outcome(estimate, log, cfg):
    """The trace's bits, or the error's type and text."""
    try:
        trace = estimate(log, cfg)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return (np.array(trace.iterations).tobytes(), trace.converged,
            np.float64(trace.final_alpha).tobytes())


@st.composite
def em_inputs(draw):
    """(log, cfg): up to 40 records with k = 0 common, sometimes none at all;
    alpha_init sometimes outside (0, 1), set past ``EmConfig``'s check, so the
    objective can fail at a known record."""
    rows = draw(st.lists(st.tuples(st.just(0) | st.integers(0, 40), st.integers(1, 500),
                                   st.integers(1, 60)), max_size=40))
    k, e_prev, n_prev = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    log = SampleLog(np.minimum(k, e_prev), e_prev, n_prev, np.arange(1, len(rows) + 1))
    cfg = EmConfig(epsilon=draw(st.sampled_from([1e-8, 1e-3, 0.5, 1e-15])),
                   max_iter=draw(st.sampled_from([1, 2, 7, 10000])),
                   keep_zero_indegree=draw(st.booleans()))
    alpha = draw(st.sampled_from([0.5, 0.05, 0.97]) | st.floats(1e-6, 1 - 1e-6)
                 | st.sampled_from([0.0, 1.0, -0.5, 1.5, -40.0]))
    object.__setattr__(cfg, "alpha_init", alpha)
    return log, cfg


def _no_information(log, cfg) -> bool:
    """Whether the records EM keeps all have e = k*n, so every alpha is a fixed point."""
    kept = (log.k > 0) | cfg.keep_zero_indegree
    return bool(kept.any() and (log.e_prev == log.k * log.n_prev)[kept].all())


class TestSplitEmMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(inputs=em_inputs())
    def test_trace_bits_and_errors(self, inputs):
        log, cfg = inputs
        with np.errstate(all="ignore"):  # alpha outside [0, 1] divides by zero
            reference = _outcome(reference_em_estimate, log, cfg)
            if _no_information(log, cfg):
                # the oracle reports a trace that only restates alpha_init
                assert not isinstance(reference[0], type)
                reference = (NoInformationError,
                             "all records are degenerate; likelihood is flat in alpha")
            assert _outcome(em_estimate, log, cfg) == reference

    def test_failing_record_named_by_its_kept_index(self):
        # record 1 of the k > 0 records is record 2 of the log: the text names
        # index 1 and record 2's counts, as the k > 0 log's own message does
        log = SampleLog(np.array([3, 0, 5]), np.array([6, 6, 9]), np.array([4, 4, 7]),
                        np.array([1, 2, 3]))
        factors = np.array([0.5, -1.0])
        with pytest.raises(EvaluationError) as kept:
            _sum_log_factors(log.drop_zero_indegree(), factors, 0.3)
        with pytest.raises(EvaluationError) as mapped:
            _sum_log_factors(log, factors, 0.3, kept=log.k > 0)
        assert str(mapped.value) == str(kept.value)
        assert "record 1 (k=5, e_prev=9, n_prev=7)" in str(kept.value)
        assert mapped.value.record_index == kept.value.record_index == 1


class TestSplitSumIdentity:
    """``em_estimate`` without ``beside`` cuts the kept records at n2 = n//2 - (n//2) % 8
    and adds the two parts' sums: that is numpy's own first split of a pairwise
    sum, so the total has the bits of the whole array's ``sum``/``mean``.  A numpy
    whose pairwise kernel splits elsewhere fails here instead of changing EM's
    output silently."""

    LARGE = (5_001, 8_191, 8_192, 8_193, 65_537, 99_997, 100_000, 131_071, 1_000_003, 3_000_000)

    @staticmethod
    def split_sum(a):
        n2 = len(a) // 2 - len(a) // 2 % 8
        return a[:n2].sum() + a[n2:].sum()

    def check(self, lengths, rng):
        differs = 0
        for n in lengths:
            a = np.log(rng.random(n))  # log factors: every magnitude of rounding error
            total = self.split_sum(a)
            assert a.sum() == total, n
            assert a.mean() == total / n, n
            assert a.reshape(1, n).sum(axis=1)[0] == total, n
            differs += a[:n // 2].sum() + a[n // 2:].sum() != total
        return differs

    def test_lengths_129_to_5000(self):
        differs = self.check(range(129, 5001), np.random.default_rng(0))
        assert differs > 1000  # the data tells the two splits apart

    def test_large_and_used_lengths(self):
        # 99,997: the k > 0 records of the FIG3 log of perfbench's fig3 workload;
        # and those of the log test_cli's ``samplelog`` fixture simulates
        _, log = grow_sequence(SeedSpec.complete(4), ModelParams(3, 2, 0.6), 60, make_rng(1))
        self.check([*self.LARGE, int((log.k > 0).sum())], np.random.default_rng(1))


def _outcome_of(call):
    """``_outcome`` of ``call()``, with an EvaluationError's record index."""
    try:
        trace = call()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc), getattr(exc, "record_index", None)
    return (np.array(trace.iterations).tobytes(), trace.converged,
            np.float64(trace.final_alpha).tobytes())


def _outcome_and_parts(log, cfg, beside=None):
    """``_outcome_of`` ``em_estimate(log, cfg, beside)``, and for each of EM's
    steps the part it ran and whether it ran on the calling thread."""
    iterate, parts = mixnet.em._em_iterate, []

    def recorded(*args):
        parts.append((args[7], threading.current_thread() is threading.main_thread()))
        return iterate(*args)

    with mock.patch.object(mixnet.em, "_em_iterate", recorded):
        return _outcome_of(lambda: em_estimate(log, cfg, beside)), sorted(parts)


@st.composite
def split_inputs(draw):
    """(log, cfg, slack, bad): a log of 129-5,000 kept records and a case:
    ``plain`` (k = 0 records among them, kept or not), a factor that is bad at
    alpha_init in the first or the second part (``bad`` is the first such kept
    index), or a monotonicity slack below 0 that makes EM fail."""
    n = draw(st.integers(129, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_prev = rng.integers(1, 60, n)
    e_prev = n_prev + rng.integers(0, 400, n)
    k = np.minimum(rng.integers(1, 40, n), e_prev)
    cfg = EmConfig(alpha_init=draw(st.sampled_from([0.5, 0.05, 0.97]) | st.floats(0.01, 0.99)),
                   epsilon=draw(st.sampled_from([1e-8, 1e-3, 1e-12])),
                   max_iter=draw(st.sampled_from([1, 2, 7, 300])),
                   keep_zero_indegree=draw(st.booleans()))
    case = draw(st.sampled_from(["plain", "bad-first", "bad-second", "decrease"]))
    slack, bad = MONOTONICITY_SLACK, None
    if case == "plain":  # k = 0 records, dropped unless kept, still leave n kept records
        at = rng.integers(0, n + 1, draw(st.integers(0, n // 4)))
        k, e_prev, n_prev = (np.insert(x, at, v) for x, v in ((k, 0), (e_prev, 9), (n_prev, 4)))
    elif case == "decrease":
        slack = draw(st.sampled_from([-math.inf, -1e-3, -1e-7]))
    else:
        # at alpha_init -0.5, set past EmConfig's check, a factor is 1.5/n_prev - 0.5 k/e_prev:
        # positive with k = 1 and e_prev >= n_prev, negative with k = e_prev and n_prev >= 4
        object.__setattr__(cfg, "alpha_init", -0.5)
        k = np.ones(n, dtype=np.int64)
        n2 = n // 2 - n // 2 % 8
        bad = draw(st.integers(0, n2 - 1) if case == "bad-first" else st.integers(n2, n - 1))
        later = rng.integers(bad, n, draw(st.integers(0, 3)))
        for i in (bad, *later):
            n_prev[i], k[i] = max(n_prev[i], 4), e_prev[i]
    log = SampleLog(k, e_prev, n_prev, np.arange(1, len(k) + 1))
    return log, cfg, slack, bad


class TestTwoPartStep:
    @settings(max_examples=60, deadline=None)
    @given(inputs=split_inputs())
    def test_matches_oracle(self, inputs):
        log, cfg, slack, bad = inputs
        with mock.patch.object(mixnet.em, "MONOTONICITY_SLACK", slack), \
                mock.patch.object(conftest, "MONOTONICITY_SLACK", slack), \
                np.errstate(all="ignore"):
            reference = _outcome_of(lambda: reference_em_estimate(log, cfg))
            one, one_parts = _outcome_and_parts(log, cfg, beside=lambda: None)
            two, two_parts = _outcome_and_parts(log, cfg)
        assert two == one == reference
        # one part on the worker beside the caller's work; split, this thread takes the first
        assert one_parts == [(0, False)] and two_parts == [(0, True), (1, False)]
        if bad is not None:  # the same kept index and record as the one-part run
            assert one[0] is EvaluationError and one[2] == bad
            assert f"for record {bad} (k={log.k[bad]}," in one[1]
        elif slack == -math.inf:
            assert one[0] is RuntimeError and "EM objective decreased" in one[1]

    def test_short_log_keeps_one_part(self):
        # up to 128 kept records run inline, on the calling thread alone
        rng = random.Random(5)
        log = random_log(rng, max_records=128)
        _, parts = _outcome_and_parts(log, EmConfig(keep_zero_indegree=True))
        assert parts == [(0, True)]

    def test_stop_ends_a_running_step(self, monkeypatch):
        # the one-part step of cite and estimate --trace, each E-step slowed to
        # 10 ms, ends at its next iteration when the caller's work is interrupted;
        # 6,000 iterations bound the test at a minute if it did not
        mixture, calls = mixnet.em._mixture, []

        def slow(*args):
            calls.append(args)
            time.sleep(0.01)
            return mixture(*args)

        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(mixnet.em, "_mixture", slow)
        log = random_log(random.Random(6), max_records=40)
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            em_estimate(log, EmConfig(epsilon=1e-300, max_iter=6000), beside=interrupted)
        assert len(calls) <= 1
        assert set(threading.enumerate()) == before
