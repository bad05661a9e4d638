"""Unit tests for the growth model and sample log."""

import datetime
import hashlib
import math
import os
import random
import tempfile
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mixnet import (
    AttachmentRecord,
    GrowingNetwork,
    ModelParams,
    SampleLog,
    SeedSpec,
    grow_sequence,
    grow_step,
    make_rng,
)
from mixnet import ingest, netmodel
from mixnet.likelihood import _slope_intercept
from mixnet.netmodel import (
    _CSV_CHUNK,
    ParseError,
    StructuralError,
    _Draws,
    _grow,
    _is_space,
    _repeat_rank,
    _stable_order,
    read_seed_spec,
    write_edge_list,
)

from conftest import (
    read_pairs,
    reference_grow,
    reference_read_pairs,
    reference_to_csv,
    reference_write_edge_list,
)


def attachment_factors(ks, e_prev: int, n_prev: int, alpha: float) -> np.ndarray:
    """Probability that one attachment edge targets a node of in-degree k, for each
    k in ``ks``: the likelihood factors d*alpha + c that the estimators use."""
    d, c = _slope_intercept(SampleLog.from_steps([[AttachmentRecord(k, e_prev, n_prev)
                                                   for k in ks]]))
    return d * alpha + c


class TestAttachmentProbability:
    def test_pinned_value(self):
        # alpha*(k/e - 1/n) + 1/n with k/e = 1/n collapses to 1/n
        assert attachment_factors([2], 10, 5, 0.6)[0] == pytest.approx(0.2, abs=1e-15)

    def test_pure_random(self):
        assert attachment_factors([7], 100, 4, 0.0)[0] == pytest.approx(0.25, abs=1e-15)

    def test_pure_preferential(self):
        assert attachment_factors([7], 100, 4, 1.0)[0] == pytest.approx(0.07, abs=1e-15)

    @given(
        degrees=st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=30),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_sums_to_one_over_nodes(self, degrees, alpha):
        e = sum(degrees)
        if e == 0:
            return
        total = attachment_factors(degrees, e, len(degrees), alpha).sum()
        assert total == pytest.approx(1.0, abs=1e-12)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(m=0, m_hat=1, alpha=0.5)
        with pytest.raises(ValueError):
            ModelParams(m=1, m_hat=-1, alpha=0.5)
        with pytest.raises(ValueError):
            ModelParams(m=1, m_hat=0, alpha=1.01)

    def test_frozen(self):
        p = ModelParams(m=2, m_hat=1, alpha=0.3)
        with pytest.raises(AttributeError):
            p.m = 3


class TestSeedSpec:
    def test_complete_graph(self):
        seed = SeedSpec.complete(3)
        assert len(seed.nodes) == 3
        assert len(seed.edges) == 6
        assert all(u != v for u, v in seed.edges)

    def test_complete_too_small(self):
        with pytest.raises(ValueError):
            SeedSpec.complete(1)

    def test_small_seed_warns(self):
        seed = SeedSpec.complete(3)
        with pytest.warns(UserWarning, match="fewer than"):
            seed.validate(ModelParams(m=5, m_hat=3, alpha=0.6))

    def test_zero_indegree_warns(self):
        seed = SeedSpec.from_lists(["a", "b", "c"], [("a", "b"), ("b", "a"), ("c", "a")])
        with pytest.warns(UserWarning, match="in-degree 0"):
            seed.validate(ModelParams(m=1, m_hat=0, alpha=0.5))

    def test_warnings_point_at_the_caller(self):
        # the warnings name this file, whether validate is called directly
        # or from inside grow_sequence
        small = SeedSpec.complete(3)
        zero_in = SeedSpec.from_lists(["a", "b", "c"], [("a", "b"), ("b", "a"), ("c", "a")])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            small.validate(ModelParams(m=5, m_hat=3, alpha=0.6))
            zero_in.validate(ModelParams(m=1, m_hat=0, alpha=0.5))
            grow_sequence(small, ModelParams(m=5, m_hat=3, alpha=0.6), 5, make_rng(0))
            grow_sequence(zero_in, ModelParams(m=1, m_hat=0, alpha=0.5), 5, make_rng(0))
        messages = [str(w.message) for w in caught]
        assert sum("fewer than" in m for m in messages) == 2
        assert sum("in-degree 0" in m for m in messages) == 2
        assert {w.filename for w in caught} == {__file__}

    def test_rejects_self_loop(self):
        seed = SeedSpec.from_lists(["a", "b"], [("a", "a"), ("a", "b")])
        with pytest.raises(ValueError, match="self-loop"):
            seed.validate(ModelParams(m=1, m_hat=0, alpha=0.5))

    def test_rejects_duplicate_edge(self):
        seed = SeedSpec.from_lists(["a", "b"], [("a", "b"), ("a", "b")])
        with pytest.raises(ValueError, match="duplicate edge"):
            seed.validate(ModelParams(m=1, m_hat=0, alpha=0.5))

    def test_rejects_unknown_node(self):
        seed = SeedSpec.from_lists(["a", "b"], [("a", "z")])
        with pytest.raises(ValueError, match="unknown node"):
            seed.validate(ModelParams(m=1, m_hat=0, alpha=0.5))

    def test_rejects_empty_edges(self):
        seed = SeedSpec.from_lists(["a", "b"], [])
        with pytest.raises(ValueError, match="at least one edge"):
            seed.validate(ModelParams(m=1, m_hat=0, alpha=0.5))


class TestGrowStep:
    def params(self):
        return ModelParams(m=2, m_hat=1, alpha=0.5)

    def test_counts_and_records(self):
        net = GrowingNetwork.from_seed(SeedSpec.complete(4))
        n0, e0 = net.node_count, net.edge_count
        _, records = grow_step(net, self.params(), random.Random(0))
        assert net.node_count == n0 + 1
        assert net.edge_count == e0 + 3  # m=2 attachments + m_hat=1 response
        assert len(records) == 2
        for r in records:
            assert r.e_prev == e0 and r.n_prev == n0
            assert 0 <= r.k <= e0

    def test_targets_distinct(self):
        net = GrowingNetwork.from_seed(SeedSpec.complete(4), keep_edges=True)
        rng = random.Random(7)
        for _ in range(50):
            e_before = len(net.edges)
            new_id = net.node_count
            grow_step(net, self.params(), rng)
            out_edges = [(u, v) for u, v in net.edges[e_before:] if u == new_id]
            targets = [v for _, v in out_edges]
            assert len(targets) == len(set(targets)) == 2

    def test_warm_up_clipping(self):
        # with 3 nodes and m=5 the step attaches to all 3 existing nodes
        net = GrowingNetwork.from_seed(SeedSpec.complete(3))
        _, records = grow_step(net, ModelParams(m=5, m_hat=3, alpha=0.6), random.Random(1))
        assert len(records) == 3
        assert net.edge_count == 6 + 3 + 3

    def test_empty_network_rejected(self):
        with pytest.raises(StructuralError):
            grow_step(GrowingNetwork(), self.params(), random.Random(0))

    def test_response_edges_target_new_node(self):
        net = GrowingNetwork.from_seed(SeedSpec.complete(4), keep_edges=True)
        new_id = net.node_count
        grow_step(net, ModelParams(m=1, m_hat=2, alpha=0.5), random.Random(3))
        incoming = [(u, v) for u, v in net.edges if v == new_id]
        assert len(incoming) == 2
        assert len({u for u, _ in incoming}) == 2

    def test_pure_random_never_reads_edges(self):
        # alpha=0 draws must be uniform over nodes; run many steps and check
        # the new node (in-degree 0 pre-response) can be selected
        net = GrowingNetwork.from_seed(SeedSpec.complete(3), keep_edges=True)
        rng = random.Random(11)
        params = ModelParams(m=1, m_hat=0, alpha=0.0)
        hit_zero_indegree = False
        for _ in range(200):
            _, records = grow_step(net, params, rng)
            if records[0].k == 0:
                hit_zero_indegree = True
        assert hit_zero_indegree


class _NoGrowth(Exception):
    """Raised in place of sizing the growth arrays."""


class TestGrowSequence:
    @pytest.mark.parametrize("seed_nodes,m,m_hat", [(2, 5, 3), (6, 2, 0), (3, 1, 4)])
    def test_record_bound_checked_before_arrays(self, seed_nodes, m, m_hat):
        # past the warm-up a step adds m + m_hat edges and one node, so 20
        # real steps give the last record's counts at any larger step count
        seed, params = SeedSpec.complete(seed_nodes), ModelParams(m, m_hat, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, log = grow_sequence(seed, params, 20, make_rng(0))
        e20, n20 = int(log.e_prev[-1]), int(log.n_prev[-1])

        def fits(steps):
            return (e20 + (m + m_hat) * (steps - 20)) * (n20 + steps - 20) < 2**53

        last, above = 20, 2**53
        while above - last > 1:  # the most steps whose records fit
            mid = (last + above) // 2
            last, above = (mid, above) if fits(mid) else (last, mid)
        with mock.patch.object(netmodel, "_Growth", side_effect=_NoGrowth), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(_NoGrowth):
                grow_sequence(seed, params, last, make_rng(0))
            for steps in (last + 1, 10**15):
                with pytest.raises(ValueError, match=f"{steps} steps take e_prev"):
                    grow_sequence(seed, params, steps, make_rng(0))

    def test_deterministic(self):
        seed = SeedSpec.complete(4)
        params = ModelParams(m=2, m_hat=1, alpha=0.7)
        _, log1 = grow_sequence(seed, params, 300, make_rng(42))
        _, log2 = grow_sequence(seed, params, 300, make_rng(42))
        assert np.array_equal(log1.k, log2.k)
        assert np.array_equal(log1.e_prev, log2.e_prev)

    def test_streams_differ(self):
        seed = SeedSpec.complete(4)
        params = ModelParams(m=2, m_hat=1, alpha=0.7)
        _, log1 = grow_sequence(seed, params, 300, make_rng(42, 0))
        _, log2 = grow_sequence(seed, params, 300, make_rng(42, 1))
        assert not np.array_equal(log1.k, log2.k)

    def test_final_counts(self):
        seed = SeedSpec.complete(4)
        params = ModelParams(m=2, m_hat=1, alpha=0.7)
        net, log = grow_sequence(seed, params, 100, make_rng(0))
        assert net.node_count == 104
        assert net.edge_count == 12 + 100 * 3
        assert len(log) == 200
        assert log.n_steps == 100

    def test_k3_warmup_edge_budget(self):
        # m=5, m_hat=3 from K3: step 1 clips both to 3, later steps are full
        seed = SeedSpec.complete(3)
        params = ModelParams(m=5, m_hat=3, alpha=0.6)
        with pytest.warns(UserWarning):
            net, log = grow_sequence(seed, params, 10, make_rng(0))
        # edges: 6 + (3+3) + (4+3) + 8*8
        assert net.edge_count == 6 + 6 + 7 + 8 * 8
        assert len(log.step_records(1)) == 3
        assert len(log.step_records(2)) == 4
        assert len(log.step_records(3)) == 5

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            grow_sequence(SeedSpec.complete(4), ModelParams(m=1, m_hat=0, alpha=0.5),
                          -1, make_rng(0))

    def test_pinned_digest(self):
        # sha256 of k, e_prev and the final in-degrees as little-endian int64,
        # as the per-step implementation this kernel replaced (conftest's
        # reference_grow) gives them; re-pinned for edges in draw order
        with pytest.warns(UserWarning):
            net, log = grow_sequence(SeedSpec.complete(3), ModelParams(m=5, m_hat=3, alpha=0.6),
                                     2000, make_rng(0))
        h = hashlib.sha256()
        for a in (log.k, log.e_prev, net.in_degree_array()):
            h.update(a.astype("<i8").tobytes())
        assert h.hexdigest() == (
            "f82cc0eeb439f3968e9da707dc57209b626cd74220020fe520f3f180250a18f1")

    @pytest.mark.parametrize("alpha,m,m_hat", [
        (0.0, 5, 0), (0.0, 5, 3), (0.6, 5, 0), (0.6, 5, 3), (1.0, 3, 0), (1.0, 5, 3),
    ])
    def test_matches_repeated_grow_step(self, alpha, m, m_hat):
        # from K3 with m=5 (m_hat=3) the first steps clip to the existing nodes
        seed, params = SeedSpec.complete(3), ModelParams(m=m, m_hat=m_hat, alpha=alpha)
        rng = make_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            whole, log = grow_sequence(seed, params, 300, rng, keep_edges=True)
        stepped = GrowingNetwork.from_seed(seed, keep_edges=True)
        step_rng = make_rng(5)
        records = []
        for _ in range(300):
            records.extend(grow_step(stepped, params, step_rng)[1])
        assert records == list(log.records())
        assert stepped.in_degree.tolist() == whole.in_degree.tolist()
        assert stepped.in_degree.dtype == whole.in_degree.dtype == np.int64
        assert stepped.edges == whole.edges
        assert step_rng.getstate() == rng.getstate()

    def test_pure_preferential_without_responses_needs_enough_targets(self):
        # alpha=1, m_hat=0: the 3 seed nodes are the only ones ever drawable,
        # so m=5 would loop forever from step 2 on
        params = ModelParams(m=5, m_hat=0, alpha=1.0)
        with pytest.warns(UserWarning), pytest.raises(StructuralError, match="positive"):
            grow_sequence(SeedSpec.complete(3), params, 2, make_rng(0))
        with pytest.warns(UserWarning):
            net, log = grow_sequence(SeedSpec.complete(3), params, 1, make_rng(0))
        assert len(log) == 3


def _outcome(grow, net, params, steps, rng):
    """The records of one growth call, or the StructuralError it raised."""
    try:
        return list(grow(net, params, steps, rng).records())
    except StructuralError as exc:
        return repr(exc)


class TestGrowthKernel:
    """The windowed kernel against the per-attachment loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 6),
        m_hat=st.integers(0, 4),
        alpha=st.one_of(st.sampled_from([0.0, 1.0]),
                        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        seed_nodes=st.integers(2, 6),
        steps=st.integers(0, 400),
        keep_edges=st.booleans(),
        extra_steps=st.integers(0, 4),
        stream=st.integers(0, 1000),
        bulk=st.booleans(),
        records=st.booleans(),
    )
    def test_matches_reference_loop(self, m, m_hat, alpha, seed_nodes, steps, keep_edges,
                                    extra_steps, stream, bulk, records):
        # bulk: every call draws through numpy's MT19937, else through rng.random()
        # just below alpha = 1 without responses, a step short of nodes with
        # positive in-degree redraws about 1 / (1 - alpha) times, in either form
        # records=False: the kernel's call returns an empty log; the network,
        # the rng and the grow_step calls after it are the loop's
        assume(m_hat > 0 or alpha <= 0.99 or alpha == 1.0)
        seed, params = SeedSpec.complete(seed_nodes), ModelParams(m=m, m_hat=m_hat, alpha=alpha)
        nets, rngs, outcomes = [], [], []
        kernel = _grow if records else _without_records
        for first, then in [(kernel, _grow_one), (reference_grow, reference_grow)]:
            net, rng = GrowingNetwork.from_seed(seed, keep_edges=keep_edges), make_rng(stream)
            with mock.patch.object(netmodel, "_BULK_MIN", 0 if bulk else 2**62):
                logs = [_outcome(first, net, params, steps, rng)]
                logs += [_outcome(then, net, params, 1, rng) for _ in range(extra_steps)]
            nets.append(net)
            rngs.append(rng.getstate())
            outcomes.append(logs)
        kernel, loop = nets
        if not (records or isinstance(outcomes[1][0], str)):  # the loop's log, if it grew
            outcomes[1][0] = []
        assert outcomes[0] == outcomes[1]
        assert kernel.in_degree.tolist() == loop.in_degree.tolist()
        assert kernel._edge_targets.tolist() == loop._edge_targets.tolist()
        for a in (kernel.in_degree, kernel._edge_targets, loop.in_degree, loop._edge_targets):
            assert type(a) is np.ndarray and a.dtype == np.int64
        assert kernel.edges == loop.edges
        assert rngs[0] == rngs[1]

    def test_pure_preferential_error_unchanged(self):
        params = ModelParams(m=3, m_hat=0, alpha=1.0)
        errors = []
        for grow in (_grow, _without_records, reference_grow):
            net = GrowingNetwork.from_seed(SeedSpec.complete(2))
            errors.append(_outcome(grow, net, params, 5, make_rng(0)))
        assert errors[0] == errors[1] == errors[2]
        assert "alpha=1 with m_hat=0 needs 3 nodes" in errors[0]
        # without records, the redraw-bound error leaves net and rng untouched
        # (K2, m=3, m_hat=0: step 2 needs the new node, of in-degree 0)
        net, rng = GrowingNetwork.from_seed(SeedSpec.complete(2)), make_rng(0)
        entry = rng.getstate()
        with pytest.raises(StructuralError, match="step 2 drew"):
            _without_records(net, ModelParams(m=3, m_hat=0, alpha=1 - 1e-9), 2, rng)
        assert net.in_degree.tolist() == [1, 1] and net._edge_targets.tolist() == [1, 0]
        assert rng.getstate() == entry

    @pytest.mark.parametrize("steps", [2, 50])
    @pytest.mark.parametrize("bulk", [True, False])
    def test_redraws_bounded_near_pure_preferential(self, bulk, steps):
        # K2, m=3, m_hat=0: step 2 needs the new node, of in-degree 0, which a
        # draw reaches about once in 3e9 at this alpha; at steps=2 its redraws
        # run past every buffered draw, and each is drawn alone rather than
        # appended to the buffer
        params = ModelParams(m=3, m_hat=0, alpha=1 - 1e-9)
        net = GrowingNetwork.from_seed(SeedSpec.complete(2))
        rng = make_rng(0)
        entry = rng.getstate()
        start = time.perf_counter()
        with mock.patch.object(netmodel, "_BULK_MIN", 0 if bulk else 2**62), \
                mock.patch.object(np, "concatenate", wraps=np.concatenate) as concatenate, \
                pytest.raises(StructuralError, match="step 2 drew"):
            _grow(net, params, steps, rng)
        assert time.perf_counter() - start < 5
        assert concatenate.call_count < 10
        assert net.in_degree.tolist() == [1, 1] and net._edge_targets.tolist() == [1, 0]
        assert rng.getstate() == entry

    def test_state_stays_int64_arrays(self):
        params = ModelParams(m=3, m_hat=2, alpha=0.6)
        net = GrowingNetwork.from_seed(SeedSpec.complete(4), keep_edges=True)
        states = [(net.in_degree, net._edge_targets)]
        grow_step(net, params, make_rng(0))
        states.append((net.in_degree, net._edge_targets))
        net, _ = grow_sequence(SeedSpec.complete(4), params, 50, make_rng(0))
        states.append((net.in_degree, net._edge_targets))
        for arrays in states:
            for a in arrays:
                assert type(a) is np.ndarray and a.dtype == np.int64
        assert net.in_degree_array() is net.in_degree
        assert net.in_degree.sum() == net.edge_count
        assert np.bincount(net._edge_targets).tolist() == net.in_degree.tolist()
        assert net._edge_sources is None and net.edges is None
        # with edge storage each call replaces the source array, leaving the
        # old one as it was; edges equals the tuple list the loop builds
        seed = SeedSpec.complete(4)
        net, loop = (GrowingNetwork.from_seed(seed, keep_edges=True) for _ in range(2))
        rng, loop_rng = make_rng(1), make_rng(1)
        assert net.edges == list(seed.edges)  # K4's labels are its ids
        for grow, steps in [(_grow_one, 1), (_grow, 40), (_grow_one, 1), (_grow, 0)]:
            before = net._edge_sources
            kept = before.copy()
            grow(net, params, steps, rng)
            reference_grow(loop, params, steps, loop_rng)
            assert type(net._edge_sources) is np.ndarray and net._edge_sources.dtype == np.int64
            assert (net._edge_sources is not before) == (steps > 0)
            assert np.array_equal(before, kept)
            assert len(net._edge_sources) == net.edge_count
            assert net.edges == loop.edges
            assert all(type(u) is int and type(v) is int for u, v in net.edges)
        assert GrowingNetwork.from_seed(seed).edges is None

    def test_rejects_random_subclass(self):
        class Fixed(random.Random):
            def random(self):
                return 0.5

        params = ModelParams(m=2, m_hat=1, alpha=0.5)
        with pytest.raises(TypeError, match="random.Random"):
            grow_sequence(SeedSpec.complete(4), params, 10, Fixed(0))
        with pytest.raises(TypeError, match="random.Random"):
            grow_step(GrowingNetwork.from_seed(SeedSpec.complete(4)), params, Fixed(0))


def _without_records(net, params, steps, rng):
    """The kernel's call without records, which must return an empty log."""
    log = _grow(net, params, steps, rng, records=False)
    assert type(log) is SampleLog and not len(log)
    return log


def _grow_one(net, params, steps, rng):
    """One step through grow_step, shaped like a growth call's result."""
    assert steps == 1
    return SampleLog.from_steps([grow_step(net, params, rng)[1]])


class TestDrawStream:
    """The draw buffer behind the kernel, in bulk (numpy MT19937) and direct."""

    @pytest.mark.parametrize("bulk", [True, False])
    @pytest.mark.parametrize("consumed", [0, 1, 101, 311])
    def test_draws_and_state_equal_random(self, consumed, bulk):
        rng = random.Random(3)
        for _ in range(consumed):
            rng.random()
        assert (rng.getstate()[1][-1] == 624) == (consumed == 0)  # fresh or mid-block
        rng.gauss(0.0, 1.0)  # leaves gauss_next set
        mirror = random.Random()
        mirror.setstate(rng.getstate())
        # 2000 draws without redraws, fetched at most 700 ahead: the first take
        # fetches 700 and keeps 200 over, the second fetches only the 800 it
        # lacks, the third the last 500; the first next() consumes a buffered
        # draw, the other two are redraws past the buffer, drawn without a fetch
        with mock.patch.object(netmodel, "_BULK_MIN", 0 if bulk else 2**62), \
                mock.patch.object(netmodel, "_DRAW_CHUNK", 700):
            draws = _Draws(rng, 2000)
            got = []
            for used, buffered in [(500, 700), (999, 999), (500, 500)]:
                got += draws.take(used).tolist()
                assert len(draws.buf) - draws.i == buffered
                draws.i += used
                buf = draws.buf
                got.append(draws.next())
                assert draws.buf is buf and len(buf) - draws.i == max(buffered - used - 1, 0)
        assert got == [mirror.random() for _ in range(2002)]
        draws.write_back()
        assert rng.getstate() == mirror.getstate()
        assert rng.getstate()[2] is not None
        assert rng.random() == mirror.random()


@pytest.mark.parametrize("width", range(1, 41))
def test_set_order_matches_real_sets(width):
    # m = width from a seed of width + 1 nodes, so early rows repeat a target
    # almost surely and later windows resolve slots of every rank; each
    # step's stored targets and sources are a real set of its draws (no
    # repeat), in the order the per-attachment oracle first drew them
    params = ModelParams(m=width, m_hat=2, alpha=0.6)
    seed, steps = SeedSpec.complete(width + 1), 300
    kernel, loop = (GrowingNetwork.from_seed(seed, keep_edges=True) for _ in range(2))
    log = _grow(kernel, params, steps, make_rng(width))
    expect = reference_grow(loop, params, steps, make_rng(width))
    assert list(log.records()) == list(expect.records())
    edges = kernel.edges
    assert edges == loop.edges
    at = len(seed.edges)
    for n in range(width + 1, width + 1 + steps):
        outs, responses = edges[at:at + width], edges[at + width:at + width + 2]
        at += width + 2
        assert {u for u, _ in outs} == {n} and {v for _, v in responses} == {n}
        assert len({v for _, v in outs}) == width and len({u for u, _ in responses}) == 2
    assert at == kernel.edge_count


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=80), st.booleans())
@example([], False)
@example([], True)
@example([5], True)
@example([3] * 50, False)
@example([7] * 64, True)
def test_repeat_rank_matches_counter(offsets, near_bound):
    # near_bound puts the values just under the docstring's 2**(63 - shift)
    base = 2 ** (63 - len(offsets).bit_length()) - 8 if near_bound else 0
    value = np.array([base + v for v in offsets], dtype=np.int64)
    seen: dict = {}
    expect = []
    for v in value.tolist():
        expect.append(seen.get(v, 0))
        seen[v] = seen.get(v, 0) + 1
    rank, distinct, counts = _repeat_rank(value)
    assert rank.tolist() == expect
    assert distinct.tolist() == sorted(seen)
    assert counts.tolist() == [seen[v] for v in sorted(seen)]



@st.composite
def sort_keys(draw):
    """(keys, wide): 1 to 3 int64 keys of one length (0 to 60) with heavy ties.
    ``wide`` keys sit just above 2**50, so two of them and the row index
    overflow one 63-bit word and the order falls back to ``np.lexsort``."""
    count, total, wide = draw(st.integers(1, 3)), draw(st.integers(0, 60)), draw(st.booleans())
    keys = [np.array(draw(st.lists(st.integers(0, 3), min_size=total, max_size=total)),
                     dtype=np.int64) + (2**50 if wide else 0) for _ in range(count)]
    return keys, wide


@settings(max_examples=300, deadline=None)
@given(sort_keys())
@example(([np.zeros(0, dtype=np.int64)], False))
@example(([np.zeros(0, dtype=np.int64)] * 3, True))
@example(([np.array([7])], False))
@example(([np.array([2**50]), np.array([2**50 + 3])], True))
@example(([np.array([3, 1, 3, 1, 0]), np.array([2, 2, 1, 2, 2])], False))
def test_stable_order_matches_lexsort(case):
    keys, wide = case
    expect = np.lexsort(keys[::-1]).tolist()
    lexsort = np.lexsort
    with mock.patch.object(np, "lexsort", side_effect=lexsort) as lexsorts:
        order = _stable_order(*keys)
    assert order.dtype == np.int64
    assert order.tolist() == expect
    # one packed sort unless two wide keys overflow the word
    assert lexsorts.call_count == (wide and len(keys) > 1 and len(keys[0]) > 0)


def test_stable_order_bounds():
    # three rows take 2 index bits, which leaves 61 for the packed keys
    assert _stable_order(np.array([2**61 - 1, 0, 5])).tolist() == [1, 2, 0]
    assert _stable_order(np.array([2**62, 0, 5])).tolist() == [1, 2, 0]
    assert _stable_order(np.array([2**61 - 1, 0, 5]), np.array([2**61 - 1, 1, 1])).tolist() \
        == [1, 2, 0]
    for keys in ([np.array([1, -1, 0])], [np.array([1, 2, 3]), np.array([0, -5, 0])]):
        with pytest.raises(ValueError, match="non-negative"):
            _stable_order(*keys)

class TestSampleLog:
    def make_log(self):
        return SampleLog(
            np.array([1, 0, 2, 3]),
            np.array([6, 6, 9, 9]),
            np.array([3, 3, 4, 4]),
            np.array([1, 1, 2, 2]),
        )

    def test_round_trip_csv(self, tmp_path):
        log = self.make_log()
        path = tmp_path / "log.csv"
        log.to_csv(path)
        assert path.read_bytes() == (b"step,k,e_prev,n_prev\r\n1,1,6,3\r\n1,0,6,3\r\n"
                                     b"2,2,9,4\r\n2,3,9,4\r\n")
        back = SampleLog.from_csv(path)
        assert np.array_equal(back.k, log.k)
        assert np.array_equal(back.e_prev, log.e_prev)
        assert np.array_equal(back.n_prev, log.n_prev)
        assert np.array_equal(back.step, log.step)

    @settings(max_examples=40, deadline=None)
    @given(length=st.sampled_from([_CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 3 * _CSV_CHUNK + 7])
           | st.integers(0, 40),
           first_step=st.sampled_from([1, 9, 10, 10**18 - 1, 10**18, 2**63 - 1])
           | st.integers(1, 10**12),
           fixed=st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from([0, 9, 10, 2**53 - 1]),
                                    st.integers(0, 2)), max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @example(length=0, first_step=1, fixed=[], seed=0)
    @example(length=1, first_step=10**18, fixed=[(0, 2**53 - 1, 0)], seed=0)
    @example(length=_CSV_CHUNK - 1, first_step=9,
             fixed=[(0, 0, 0), (1, 9, 1), (2, 10, 2), (3, 2**53 - 1, 1)], seed=1)
    @example(length=_CSV_CHUNK, first_step=2**63 - 1, fixed=[(_CSV_CHUNK - 1, 2**53 - 1, 2)], seed=2)
    @example(length=_CSV_CHUNK + 1, first_step=10**18 - 1, fixed=[(_CSV_CHUNK, 10, 0)], seed=3)
    @example(length=3 * _CSV_CHUNK + 7, first_step=1, fixed=[(2 * _CSV_CHUNK, 9, 1)], seed=4)
    def test_to_csv_matches_reference_writer(self, length, first_step, fixed, seed):
        # random values of every digit count up to the 2**53 bound on k,
        # e_prev and n_prev, steps up to 2**63 - 1; then each (row, value,
        # column) of ``fixed`` sets k = e_prev = value (column 0), e_prev =
        # value (1) or n_prev = value (2) in that row, the others 0 or 1
        rng = np.random.default_rng(seed)

        def spread(high):  # in [0, high], the digit counts about even
            return rng.integers(0, np.minimum(high, 10 ** rng.integers(0, 17, length)) + 1)

        n_prev = 1 + spread(2**53 - 2)
        e_prev = 1 + spread((2**53 - 1) // n_prev - 1)
        k = spread(e_prev)
        step = first_step + np.minimum(np.cumsum(rng.integers(0, 3, length)), 2**63 - 1 - first_step)
        for row, value, column in fixed if length else ():
            row %= length
            n_prev[row], e_prev[row], k[row] = 1, max(value, 1), 0
            if column == 0:
                k[row] = value
            elif column == 2:
                n_prev[row], e_prev[row] = e_prev[row], 1
        log = SampleLog(k, e_prev, n_prev, step)
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = os.path.join(tmp, "ours.csv"), os.path.join(tmp, "theirs.csv")
            log.to_csv(ours)
            reference_to_csv(log, theirs)
            with open(ours, "rb") as a, open(theirs, "rb") as b:
                assert a.read() == b.read()

    def test_from_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ValueError, match="header"):
            SampleLog.from_csv(path)

    def test_from_csv_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,k,e_prev,n_prev\n1,x,3,4\n")
        with pytest.raises(ValueError, match="malformed"):
            SampleLog.from_csv(path)

    def test_from_csv_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("step,k,e_prev,n_prev\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = SampleLog.from_csv(path)
        assert len(log) == 0 and log.n_steps == 0

    @pytest.mark.parametrize("body,records", [
        (b"\n", 0), (b"\n\n\n", 0), (b"\r\n\r\n", 0), (b"\r\r", 0),
        (b"\n\n1,1,6,3\n", 1), (b"\r\n\r\n1,1,6,3\r\n2,0,9,4\r\n", 2),
    ])
    def test_from_csv_leading_blank_lines(self, tmp_path, body, records):
        # a body of blank lines is an empty log, without np.loadtxt's warning
        path = tmp_path / "blank.csv"
        path.write_bytes(b"step,k,e_prev,n_prev\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = SampleLog.from_csv(path)
        assert len(log) == records and log.n_steps == records

    def test_from_csv_skips_blank_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("step,k,e_prev,n_prev\n1,1,6,3\n\n2,0,9,4\n")
        log = SampleLog.from_csv(path)
        assert np.array_equal(log.k, [1, 0])
        assert np.array_equal(log.n_prev, [3, 4])

    @pytest.mark.parametrize("row", ["1,1,6", "1,1,6,3,9", " ", "1,1,99999999999999999999999,3",
                                     "1,1.5,6,3", "1,1,6,3 # note"])
    def test_from_csv_rejects_bad_columns_and_values(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"step,k,e_prev,n_prev\n{row}\n")
        with pytest.raises(ValueError, match="malformed row"):
            SampleLog.from_csv(path)

    @pytest.mark.parametrize("row", ["\U000eb7f6,1,6,3", "1,1,6,3\U0010ffff", "1,\xa01,6,3", "1,1,6,٣"])
    def test_from_csv_rejects_non_ascii(self, tmp_path, row):
        # np.loadtxt crashed the interpreter on the first two in about half
        # of the runs, and read the third as 1,1,6,3
        path = tmp_path / "bad.csv"
        path.write_text(f"step,k,e_prev,n_prev\n1,1,6,3\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed row: a sample log is ASCII text"):
            SampleLog.from_csv(path)

    @pytest.mark.parametrize("text", [
        "step,k,e_prev,n_prev\n" + "".join(f"{t},1,6,3\n" for t in range(1, 5001))
        + "5001,1,6,\U000eb7f6\n",
        "step,k,e_prev,n_prév\n1,1,6,3\n",
    ], ids=["after-5000-rows", "header"])
    def test_from_csv_rejects_non_ascii_anywhere(self, tmp_path, text):
        # a code point after 5,000 good rows, which np.loadtxt's own reading
        # decodes, and one in the header
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="malformed row: a sample log is ASCII text"):
            SampleLog.from_csv(path)

    def test_prefix(self):
        log = self.make_log()
        first = log.prefix(1)
        assert len(first) == 2
        assert np.array_equal(first.k, [1, 0])
        assert len(log.prefix(0)) == 0
        assert len(log.prefix(2)) == 4

    def test_step_records(self):
        log = self.make_log()
        assert log.step_records(2) == [
            AttachmentRecord(2, 9, 4), AttachmentRecord(3, 9, 4)
        ]

    def test_drop_zero_indegree(self):
        log = self.make_log().drop_zero_indegree()
        assert len(log) == 3
        assert (log.k > 0).all()

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="k > e_prev"):
            SampleLog(np.array([7]), np.array([6]), np.array([3]), np.array([1]))
        with pytest.raises(ValueError, match="step order"):
            SampleLog(np.array([1, 1]), np.array([6, 6]), np.array([3, 3]),
                      np.array([2, 1]))
        with pytest.raises(ValueError, match="equal length"):
            SampleLog(np.array([1]), np.array([6, 6]), np.array([3]), np.array([1]))
        with pytest.raises(ValueError, match="n_prev"):
            SampleLog(np.array([1, 1]), np.array([6, 6]), np.array([3, 0]),
                      np.array([1, 2]))
        with pytest.raises(ValueError, match="step below 1"):
            SampleLog(np.array([1, 1]), np.array([6, 6]), np.array([3, 3]),
                      np.array([0, 1]))
        with pytest.raises(ValueError, match=r"2\*\*53"):
            SampleLog(np.array([1]), np.array([2**27]), np.array([2**26]), np.array([1]))
        SampleLog(np.array([1]), np.array([2**27 - 1]), np.array([2**26]), np.array([1]))

    @pytest.mark.parametrize("e_prev, n_prev, ok", [
        ([2**53 - 1, 1], [1, 1], True),
        ([2**27, 1], [1, 2**26], True),  # the maxima sit on different records
        ([2**27, 1, 2**27], [1, 2**26, 2**26], False),
        ([2**26, 3], [2**27, 1], False),
    ])
    def test_count_bound_is_per_record(self, e_prev, n_prev, ok):
        # the product of the maxima screens the bound; past it, each record counts
        args = (np.zeros(len(e_prev), int), np.array(e_prev), np.array(n_prev),
                np.arange(1, len(e_prev) + 1))
        if ok:
            SampleLog(*args)
            with pytest.raises(ValueError, match="step order"):  # a later check still runs
                SampleLog(*args[:3], args[3][::-1])
        else:
            with pytest.raises(ValueError, match=r"2\*\*53"):
                SampleLog(*args)

    def test_from_steps(self):
        log = SampleLog.from_steps([
            [AttachmentRecord(1, 6, 3)], [AttachmentRecord(0, 8, 4)],
        ])
        assert np.array_equal(log.step, [1, 2])
        assert list(log.records()) == [AttachmentRecord(1, 6, 3), AttachmentRecord(0, 8, 4)]

    def test_empty(self):
        log = SampleLog.empty()
        assert len(log) == 0
        assert log.n_steps == 0


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        seed = SeedSpec.complete(3)
        net, _ = grow_sequence(seed, ModelParams(m=1, m_hat=0, alpha=0.5),
                               5, make_rng(0), keep_edges=True)
        path = tmp_path / "graph.edgelist"
        write_edge_list(net, path)
        back = read_seed_spec(path)
        assert len(back.edges) == net.edge_count

    def test_pinned_edge_list(self, tmp_path):
        # the bytes of reference_grow's network through the per-edge f-string
        # writer; re-pinned for edges in draw order
        self.check_pinned_edge_list(
            tmp_path, 0.6, "27ea34a63028153b4fc328f6b0cfd41eeaddf37ec81146f80574a5ddb66c1799")

    @pytest.mark.parametrize("alpha,digest", [
        (0, "a152a3f7b0ea461b744e2123133aef058f45c0c85881a64b5ba4244c40ec688a"),
        (1, "05b722d5fe10f9438d98a837e981c8b61faa4154770ac5b80d2a8fe708a4c5ff"),
    ])
    def test_pinned_edge_list_at_alpha_bounds(self, tmp_path, alpha, digest):
        # the bytes of reference_grow's network through the per-edge f-string
        # writer; re-pinned for edges in draw order
        self.check_pinned_edge_list(tmp_path, alpha, digest)

    @staticmethod
    def check_pinned_edge_list(tmp_path, alpha, digest):
        with pytest.warns(UserWarning):
            net, _ = grow_sequence(SeedSpec.complete(3), ModelParams(m=5, m_hat=3, alpha=alpha),
                                   500, make_rng(4), keep_edges=True)
        path = tmp_path / "graph.edgelist"
        write_edge_list(net, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    LABELED_SEED = "# string labels\nx y\ny z\nz x\nw x\nx w\ny w\n"

    @settings(max_examples=40, deadline=None)
    @given(seed_name=st.sampled_from(["K2", "K3", "K4", "K5", "K6", "labels"]),
           m=st.integers(1, 5), m_hat=st.integers(0, 3),
           alpha=st.sampled_from([0.0, 0.6, 1.0]),
           steps=st.integers(0, 600),
           later=st.lists(st.integers(1, 300), max_size=3),
           stream=st.integers(0, 1000))
    @example(seed_name="K3", m=5, m_hat=3, alpha=0.6, steps=600, later=[1, 1, 40], stream=0)
    @example(seed_name="labels", m=2, m_hat=1, alpha=0.0, steps=0, later=[1], stream=3)
    def test_write_matches_reference_writer(self, seed_name, m, m_hat, alpha, steps, later,
                                            stream):
        # one grow_sequence call, then up to three calls of the kernel (one
        # step: through grow_step); the first example crosses _CSV_CHUNK rows
        assume(m_hat > 0 or alpha < 1.0)
        params, rng = ModelParams(m=m, m_hat=m_hat, alpha=alpha), make_rng(stream)
        with tempfile.TemporaryDirectory() as tmp:
            if seed_name == "labels":
                seed = os.path.join(tmp, "seed.edgelist")
                with open(seed, "w") as fh:
                    fh.write(self.LABELED_SEED)
                seed = read_seed_spec(seed)
            else:
                seed = SeedSpec.complete(int(seed_name[1:]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                net, _ = grow_sequence(seed, params, steps, rng, keep_edges=True)
            for count in later:
                if count == 1:
                    grow_step(net, params, rng)
                else:
                    _grow(net, params, count, rng)
            ours, theirs = os.path.join(tmp, "ours"), os.path.join(tmp, "theirs")
            write_edge_list(net, ours)
            reference_write_edge_list(net, theirs)
            with open(ours, "rb") as a, open(theirs, "rb") as b:
                assert a.read() == b.read()

    def test_write_requires_edges(self):
        net, _ = grow_sequence(SeedSpec.complete(3), ModelParams(m=1, m_hat=0, alpha=0.5),
                               5, make_rng(0))
        with pytest.raises(ValueError, match="without edge storage"):
            write_edge_list(net, "/dev/null")

    def test_read_seed_spec_comments(self, tmp_path):
        path = tmp_path / "seed.edgelist"
        path.write_text("# comment\na b\nb a\n\nc a\n")
        seed = read_seed_spec(path)
        assert seed.nodes == ("a", "b", "c")
        assert len(seed.edges) == 3

    def test_read_seed_spec_malformed(self, tmp_path):
        path = tmp_path / "seed.edgelist"
        path.write_text("a b c\n")
        with pytest.raises(ValueError, match="expected 'src dst'"):
            read_seed_spec(path)

    def test_read_seed_spec_parse_error(self, tmp_path):
        # the seed reader is the citation reader, and raises its error type
        path = tmp_path / "seed.edgelist"
        path.write_text("# seed\r\na b\r\n\r\n  b\ta\r\nc\r\n")
        with pytest.raises(ParseError) as exc:
            read_seed_spec(path)
        assert str(exc.value) == f"{path}:5: expected 'src dst', got 'c'"
        assert ingest.ParseError is ParseError

    LINE_ENDS = ["\n", "\r\n", "\r"]
    LINES = st.one_of(
        st.tuples(st.sampled_from(["a", "b", "c", "d", "a#", "é", "10"]),
                  st.sampled_from([" ", "\t", "  \t", "\x0c"]),
                  st.sampled_from(["a", "b", "c", "d", "#b", "é", "10"]),
                  st.sampled_from(["", " ", "\t"])).map("".join),
        st.sampled_from(["#", "# src dst", "  # indented", "\t#\tdst", "", " ", "\t\t",
                         "a", "a b c", " a\tb\tc ", "\x00 a"]),
        st.text(max_size=12),
    )

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.tuples(LINES, st.sampled_from(LINE_ENDS)), max_size=25),
           final_end=st.booleans())
    @example(lines=[], final_end=False)
    @example(lines=[("# only a comment", "\r\n")], final_end=True)
    def test_read_seed_spec_matches_line_loop(self, lines, final_end):
        text = "".join(line + end for line, end in lines)
        if lines and not final_end:
            text = text[:-len(lines[-1][1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "seed.edgelist")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            outcomes = []
            for read in (read_seed_spec, reference_read_seed_spec):
                try:
                    outcomes.append(read(path))
                except ValueError as exc:
                    outcomes.append(("error", str(exc)))
        assert outcomes[0] == outcomes[1]


#: every code point that str.isspace accepts (none lies above U+3000, as
#: test_space_table_is_str_isspace shows), less the two that end lines
SEPARATORS = [c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\r\n"]


@st.composite
def pair_files(draw):
    """(text, dated) of a pair file: ids with NUL, '#', non-ASCII and astral
    characters, 1 to 23 characters long (so 1 to 10 key words) and often
    prefixes of one another; every separator; comments, blanks and bad lines."""
    chars = st.sampled_from(["a", "b", "z", "0", "9", "\x00", "#", "-", "\x7f", "é", "ÿ",
                             "Ā", "中", "\uffff", "𝔘", "\U0010fffd"])
    pool = draw(st.lists(st.text(chars, min_size=1, max_size=23), min_size=1, max_size=6))
    pool += [p[:draw(st.integers(1, len(p)))] for p in pool]
    dated = draw(st.booleans())
    if dated:
        second = st.sampled_from(["2000-01-01", "1999-12-31", "20000102"] * 6
                                 + ["2000-02-30", "not-a-date", "2000-01-01x"])
    else:
        second = st.sampled_from(pool)
    space = st.text(st.sampled_from(SEPARATORS), min_size=1, max_size=3)
    pad = st.text(st.sampled_from(SEPARATORS), max_size=2)
    pair = st.tuples(pad, st.sampled_from(pool), space, second, pad).map("".join)
    comment = st.tuples(pad, st.sampled_from(["#", "# x y", "#a b"]), pad).map("".join)
    skipped = st.one_of(pad, comment)
    lines = [draw(st.one_of(pair, pair, pair, skipped)) for _ in range(draw(st.integers(0, 40)))]
    wrong = st.one_of(st.tuples(st.sampled_from(pool), pad).map("".join), st.tuples(
        st.sampled_from(pool), space, second, space, st.sampled_from(pool)).map("".join))
    for _ in range(draw(st.sampled_from([0] * 7 + [1, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(wrong))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, dated


def _read_outcome(read, path, dated):
    try:
        return read(path, "x y", dated), None
    except ParseError as exc:
        cause = exc.__cause__
        return None, (str(exc), cause and (type(cause), str(cause)))


class TestPairReader:
    @settings(max_examples=300, deadline=None)
    @given(corpus=pair_files())
    @example(corpus=("a b\na\x00 a\nab\x00 a\x00\n", False))
    @example(corpus=("p 2000-01-01\r\n#c\r\nq 2000-02-30\r\nr s t\r\n", True))
    @example(corpus=("p 2000-01-01\n\nr s t\nq 2000-02-30\n", True))
    def test_matches_whole_file_reader(self, corpus):
        text, dated = corpus
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pairs.txt")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            expected, error = _read_outcome(reference_read_pairs, path, dated)
            got, new_error = _read_outcome(read_pairs, path, dated)
        assert new_error == error
        if error:
            return
        labels, codes = got
        assert codes.dtype == np.int64 and codes.shape == (2, len(expected[0]))
        first = [labels[c] for c in codes[0].tolist()]
        if dated:
            second = list(map(datetime.date.fromordinal, codes[1].tolist()))
            assert labels == sorted(set(expected[0]))
        else:
            second = [labels[c] for c in codes[1].tolist()]
            assert labels == sorted(set(expected[0]) | set(expected[1]))
        assert (first, second) == expected

    def test_space_table_is_str_isspace(self):
        everything = np.arange(0x110000, dtype=np.uint32)
        expected = np.array([chr(c).isspace() for c in range(0x110000)])
        assert np.array_equal(_is_space(everything), expected)
        ascii_ = np.arange(128, dtype=np.uint8)
        assert np.array_equal(_is_space(ascii_), expected[:128])


def reference_read_seed_spec(path) -> SeedSpec:
    """The line-at-a-time seed reader that ``read_seed_spec`` replaced, kept
    verbatim as the oracle of the shared pair reader."""
    edges = []
    nodes: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'src dst', got {line!r}")
            u, v = parts
            nodes.setdefault(u, None)
            nodes.setdefault(v, None)
            edges.append((u, v))
    return SeedSpec(tuple(nodes), tuple(edges))


def test_make_rng_reproducible():
    assert make_rng(5).random() == make_rng(5).random()
    assert make_rng(5, 1).random() != make_rng(5, 2).random()


def test_empirical_indegree_mean_matches_edge_budget():
    # long-run mean in-degree approaches m + m_hat
    seed = SeedSpec.complete(4)
    params = ModelParams(m=3, m_hat=2, alpha=0.4)
    net, _ = grow_sequence(seed, params, 2000, make_rng(9))
    mean = net.in_degree_array().mean()
    assert math.isclose(mean, 5.0, rel_tol=0.02)
