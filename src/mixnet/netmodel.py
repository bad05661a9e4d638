"""Directed network growth by mixed random/preferential attachment.

A new node arrives at each step with ``m`` outgoing edges whose targets are
drawn from a mixture of preferential (in-degree proportional) and uniform
attachment, plus ``m_hat`` incoming "response" edges from uniformly chosen
existing nodes.  Each step logs, for every attachment target, its in-degree
together with the pre-step edge and node counts; those records are the input
to the estimators in :mod:`mixnet.likelihood` and :mod:`mixnet.em`.

All growth runs through one kernel, ``_grow``, over an edge-target list (the
edge-list form of Batagelj & Brandes 2005): a uniform slot of that list is a
draw proportional to in-degree.  That list, the in-degrees and, when edges
are stored, the edge sources are the network's state, int64 arrays that each
growth call replaces.  The kernel reads ``random.Random.random()`` in bulk
from numpy's ``MT19937`` (the same generator, so the same doubles), never
ahead of the draws the call is sure to consume, and runs full steps in
windows that assume no target or source is drawn twice: every
target and source of a window comes from a few array operations, and the
window is committed up to its first step with a repeat.  That step, and each
warm-up step of a seed smaller than ``max(m, m_hat)``, is drawn one
attachment at a time with its redraws, up to a limit.  A step's out-edges
and response edges are stored in the order their targets and sources were
first drawn.  The records, the network and the generator state afterwards
are those of drawing one attachment at a time, and each step's out-edges in
the edge list are its records in order.  The in-degree ``k`` of each pick
is one gather of the entry in-degrees plus its rank among earlier picks, and
the pre-step counts ``e_prev`` and ``n_prev`` and the ``step`` column do not
depend on the draws.
"""

from __future__ import annotations

import datetime
import itertools
import random
import sys
import warnings
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np


_CSV_HEADER = ["step", "k", "e_prev", "n_prev"]
_CSV_CHUNK = 4096  # rows per write: bounds the numpy buffers of one chunk
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # a value's digits: 1 + powers <= it


def _warn(message: str) -> None:
    """Warn at the first caller outside this module."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class StructuralError(ValueError):
    """The growth step cannot be performed on the current network."""


class ParseError(ValueError):
    """A line of a pair-per-line input file is malformed."""


class AttachmentRecord(NamedTuple):
    k: int        # in-degree of the selected target, pre-step snapshot
    e_prev: int   # edge count just before the step
    n_prev: int   # node count just before the step


@dataclass(frozen=True)
class ModelParams:
    m: int
    m_hat: int
    alpha: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.m_hat < 0:
            raise ValueError(f"m_hat must be >= 0, got {self.m_hat}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class SeedSpec:
    """Initial graph: node labels and directed (source, target) edges."""

    nodes: tuple
    edges: tuple

    @classmethod
    def from_lists(cls, nodes: Sequence, edges: Sequence) -> "SeedSpec":
        return cls(tuple(nodes), tuple(tuple(e) for e in edges))

    @classmethod
    def complete(cls, n: int) -> "SeedSpec":
        """Complete directed graph on n nodes (both directions, no loops)."""
        if n < 2:
            raise ValueError("complete seed needs at least 2 nodes")
        nodes = tuple(range(n))
        edges = tuple((u, v) for u in nodes for v in nodes if u != v)
        return cls(nodes, edges)

    def validate(self, params: ModelParams) -> None:
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("seed has duplicate node labels")
        need = max(params.m, params.m_hat)
        if len(self.nodes) < need:
            # the model is only well-defined from max(m, m_hat) nodes, but the
            # canonical experiments start from K3 with m=5: warm-up steps clip
            # their edge counts to the available distinct nodes
            _warn(
                f"seed has {len(self.nodes)} nodes, fewer than max(m, m_hat) = {need}; "
                "early steps will attach to every existing node"
            )
        known = set(self.nodes)
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"seed contains self-loop at {u!r}")
            if u not in known or v not in known:
                raise ValueError(f"seed edge ({u!r}, {v!r}) references unknown node")
            if (u, v) in seen:
                raise ValueError(f"seed contains duplicate edge ({u!r}, {v!r})")
            seen.add((u, v))
        if len(self.edges) == 0:
            raise ValueError("seed must contain at least one edge")
        indeg = {v: 0 for v in self.nodes}
        for _, v in self.edges:
            indeg[v] += 1
        zeros = [v for v, d in indeg.items() if d == 0]
        if zeros:
            _warn(
                f"{len(zeros)} seed node(s) have in-degree 0; "
                "the minimum positive likelihood root will be 1"
            )


@dataclass
class GrowingNetwork:
    """Mutable growth state.

    Nodes are dense integer ids ``0..n-1``.  ``in_degree`` holds each node's
    in-degree and ``_edge_targets`` one entry per edge (its target), so a
    uniform index into the latter is a draw proportional to in-degree, and
    ``_edge_sources``, kept only when requested, each edge's source.  All are
    int64 arrays that growth replaces with new ones rather than writes into.
    """

    in_degree: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    _edge_targets: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    _edge_sources: np.ndarray | None = None

    @property
    def edges(self) -> list | None:
        """The (source, target) pairs in insertion order; None if not stored."""
        if self._edge_sources is not None:
            return list(zip(self._edge_sources.tolist(), self._edge_targets.tolist()))

    @property
    def node_count(self) -> int:
        return len(self.in_degree)

    @property
    def edge_count(self) -> int:
        return len(self._edge_targets)

    @classmethod
    def from_seed(cls, seed: SeedSpec, keep_edges: bool = False) -> "GrowingNetwork":
        index = {label: i for i, label in enumerate(seed.nodes)}
        sources = np.array([index[u] for u, _ in seed.edges], dtype=np.int64)
        targets = np.array([index[v] for _, v in seed.edges], dtype=np.int64)
        return cls(in_degree=np.bincount(targets, minlength=len(seed.nodes)),
                   _edge_targets=targets, _edge_sources=sources if keep_edges else None)

    def in_degree_array(self) -> np.ndarray:
        return self.in_degree


_DRAW_CHUNK = 1 << 16  # draws generated at a time: bounds the buffer for any T
_BULK_MIN = 1 << 13  # draws below which moving the generator state costs more
_MIN_WINDOW, _MAX_WINDOW = 16, 4096  # steps speculated at once
# draws a step may make beyond its 2m + m_hat: 0.1-0.15 s of redraws from
# rng.random(), 0.2-0.4 s from numpy's generator (tools/layers.py, redraw-*)
_REDRAW_LIMIT = 1 << 18


class _Draws:
    """The ``rng.random()`` stream, drawn ahead in chunks.

    ``Random.random`` is MT19937 read through ``genrand_res53``; numpy's
    ``MT19937`` loaded with the same key and position yields the same doubles
    from ``Generator.random``, in bulk.  Moving the state there and back
    costs about as much as ``_BULK_MIN`` single draws, so a call needing
    fewer draws takes them from ``rng.random()`` itself.  ``total`` counts
    the draws the growth makes without redraws, all of which it consumes;
    ``buf`` holds the draws fetched so far, the first ``i`` consumed.  A
    ``take`` short of draws fetches what it lacks or, if more, up to a chunk
    of the ``total`` not yet fetched.  It asks only for draws of steps still
    to come, so no fetch goes past the draws the growth consumes, and at the
    end the generator's state is the one to write back.  A redraw past the
    buffered draws is drawn alone.
    """

    def __init__(self, rng: random.Random, total: int):
        self._rng, self._bits, self._entry = rng, None, rng.getstate()
        self._one, self._unfetched = rng.random, total
        if total >= _BULK_MIN:
            internal = self._entry[1]
            self._bits = np.random.MT19937(0)
            self._bits.state = {"bit_generator": "MT19937", "state": {
                "key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]}}
            self._gen = np.random.Generator(self._bits)
            self._one = self._gen.random
        self.buf, self.i = np.empty(0), 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` draws, not yet consumed (callers advance ``i``)."""
        have = len(self.buf) - self.i
        if have < count:
            fetch = max(count - have, min(_DRAW_CHUNK, self._unfetched))
            self._unfetched -= fetch
            if self._bits is not None:
                fresh = self._gen.random(fetch)
            else:
                fresh = np.array([self._one() for _ in range(fetch)])
            self.buf, self.i = np.concatenate([self.buf[self.i:], fresh]), 0
        return self.buf[self.i:self.i + count]

    def next(self) -> float:
        """Consume one draw: the next buffered one, else a fresh one."""
        if self.i < len(self.buf):
            self.i += 1
            return float(self.buf[self.i - 1])
        return self._one()

    def write_back(self) -> None:
        """Leave ``rng`` as if it had made every draw consumed."""
        if self.i < len(self.buf):
            raise RuntimeError("growth drew past the draws it consumed")
        if self._bits is not None:
            version, _, gauss = self._entry
            state = self._bits.state["state"]
            self._rng.setstate((version, tuple(state["key"].tolist()) + (state["pos"],), gauss))

    def rewind(self) -> None:
        """Leave ``rng`` as it was before the first draw."""
        self._rng.setstate(self._entry)


def _repeat_rank(value: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per entry, the number of earlier entries of the same value; and the
    distinct values, ascending, with their counts.

    One sort of ``(value << shift) | index``, with ``shift`` the bit length of
    ``len(value)``; values must be non-negative and below ``2**(63 - shift)``.
    """
    total = len(value)
    shift = total.bit_length()
    keys = np.sort((value << shift) | np.arange(total))
    grouped = keys >> shift
    head = np.flatnonzero(np.diff(grouped, prepend=-1))
    counts = np.diff(head, append=total)
    rank = np.empty_like(value)
    rank[keys & ((1 << shift) - 1)] = np.arange(total) - np.repeat(head, counts)
    return rank, grouped[head], counts


def _stable_order(*keys: np.ndarray) -> np.ndarray:
    """``np.lexsort(keys[::-1])`` of non-negative int64 keys: the order by
    ``keys[0]``, then ``keys[1]``..., ties in input order.  Like ``_repeat_rank``
    it makes one sort of the keys packed above the row index when their bit
    widths and the index's fit in 63 bits, else it calls ``np.lexsort``.  A
    negative key raises ValueError.
    """
    shift = len(keys[0]).bit_length()
    if min(int(key.min(initial=0)) for key in keys) < 0:
        raise ValueError("sort keys must be non-negative")
    bits = [int(key.max(initial=0)).bit_length() for key in keys]
    if sum(bits) + shift > 63:
        return np.lexsort(keys[::-1])
    packed = keys[0]
    for key, width in zip(keys[1:], bits[1:]):
        packed = (packed << width) | key
    return np.sort((packed << shift) | np.arange(len(packed))) & ((1 << shift) - 1)


class _Growth:
    """One call's growth, written into preallocated arrays.

    ``targets`` is the whole edge-target list, the network's edges first,
    then per step its targets in draw order, one per record, and one entry
    of the new node per response; ``sources`` (kept only with edge storage)
    is the edge-source list in the same order, a step's response sources in
    draw order.
    """

    def __init__(self, net: GrowingNetwork, params: ModelParams, steps: int,
                 rng: random.Random):
        self.m, self.m_hat, self.alpha = params.m, params.m_hat, params.alpha
        self.n0, self.e0 = net.node_count, net.edge_count
        self.n_prev = np.arange(self.n0, self.n0 + steps, dtype=np.int64)
        self.per_step = np.minimum(self.m, self.n_prev)
        self.responses = np.minimum(self.m_hat, self.n_prev)
        added = self.per_step + self.responses
        self.e_prev = self.e0 + np.cumsum(added) - added
        self.warm_up = min(steps, max(0, self.m - self.n0, self.m_hat - self.n0))
        self.targets = np.empty(self.e0 + int(added.sum()), dtype=np.int64)
        self.targets[:self.e0] = net._edge_targets
        self.sources = None if net._edge_sources is None else np.empty_like(self.targets)
        if self.sources is not None:
            self.sources[:self.e0] = net._edge_sources
        # the draws of every step without redraws: 2 per target, 1 per source
        self.draws = _Draws(rng, int(2 * self.per_step.sum() + self.responses.sum()))

    def scalar_step(self, t: int) -> None:
        """Step t drawn one attachment at a time, redraws included; more than
        ``_REDRAW_LIMIT`` draws past its budget raise StructuralError."""
        n, e, alpha = self.n0 + t, int(self.e_prev[t]), self.alpha
        n_picks, n_sources = min(self.m, n), min(self.m_hat, n)
        budget = 2 * n_picks + n_sources  # a step takes at least its budget
        first = self.draws.take(budget).tolist()
        self.draws.i += budget
        redraws = iter(self.draws.next, None)
        draw = itertools.chain(first, itertools.islice(redraws, _REDRAW_LIMIT)).__next__
        targets = self.targets
        picks: list[int] = []
        sources: list[int] = []
        try:
            for _ in range(n_picks):
                while True:
                    if draw() < alpha:
                        v = int(targets[int(draw() * e)])
                    else:
                        v = int(draw() * n)
                    if v not in picks:
                        break
                picks.append(v)
            while len(sources) < n_sources:
                s = int(draw() * n)
                if s not in sources:
                    sources.append(s)
        except StopIteration:
            raise StructuralError(
                f"step {t + 1} drew {budget + _REDRAW_LIMIT} times without finding {n_picks} "
                f"distinct targets and {n_sources} distinct sources; near alpha=1 with "
                "m_hat=0, a node of in-degree 0 is almost never drawn") from None
        end = e + n_picks + n_sources
        targets[e:end] = picks + [n] * n_sources
        if self.sources is not None:
            self.sources[e:end] = [n] * n_picks + sources

    def window(self, t: int, size: int) -> tuple[int, int]:
        """Speculate up to ``size`` full steps from step t at 2m + m_hat draws
        each; commit those before the first with a repeated target or source.
        Return the steps committed and the steps speculated."""
        m = self.m
        width, fan = 2 * m + self.m_hat, m + self.m_hat
        u = self.draws.take(size * width).reshape(size, width)
        n, e, first_node = self.n_prev[t:t + size, None], int(self.e_prev[t]), self.n0 + t
        draw = u[:, 1:2 * m:2]
        picks = (draw * n).astype(np.int64)
        flat = picks.ravel()
        pref = (u[:, 0:2 * m:2] < self.alpha).ravel().nonzero()[0]
        late, at_flat = iter(()), None
        if len(pref):
            slots = (draw * self.e_prev[t:t + size, None]).astype(np.int64).ravel()[pref]
            flat[pref] = self.targets.take(slots)
            at = (slots >= e).nonzero()[0]  # slots added in this window
            if len(at):
                at_flat = pref[at]
                late = zip(at_flat.tolist(), slots[at].tolist())
        sources = (u[:, 2 * m:] * n).astype(np.int64)
        # one sort per row finds repeats: targets as their ids, sources above
        # them all, and a slot added in this window as its own negative
        # placeholder until resolved
        keys = np.empty((size, fan), dtype=np.int64)
        keys[:, :m] = picks
        keys[:, m:] = sources + (1 << 62)
        if at_flat is not None:
            keys[:, :m].flat[at_flat] = -1 - np.arange(len(at_flat))
        keys.sort(axis=1)
        stop = size
        if fan > 1:
            same = keys[:, 1:] == keys[:, :-1]
            first = int(same.argmax())
            if same.flat[first]:
                stop = first // (fan - 1)
        # one ascending pass resolves the slots added in this window, each in
        # an earlier row: a response slot holds its step's new node, an
        # out-slot the rank-th target its step drew.  A resolved row is
        # checked for a repeat, and rows from the first repeat on are dropped.
        for j, group in itertools.groupby(late, key=lambda ref: ref[0] // m):
            if j >= stop:
                break
            for at, slot in group:
                row, rank = divmod(slot - e, fan)
                flat[at] = first_node + row if rank >= m else flat[row * m + rank]
            if len(set(picks[j].tolist())) < m:
                stop = j
        if stop:
            block = self.targets[e:e + stop * fan].reshape(stop, fan)
            block[:, :m] = picks[:stop]
            block[:, m:] = self.n_prev[t:t + stop, None]
            if self.sources is not None:
                block = self.sources[e:e + stop * fan].reshape(stop, fan)
                block[:, :m] = self.n_prev[t:t + stop, None]
                block[:, m:] = sources[:stop]
            self.draws.i += stop * width
        return stop, size

    def finish(self, net: GrowingNetwork, steps: int, records: bool) -> "SampleLog":
        """Give the network its new edge arrays and in-degrees; return the
        records, or an empty log without them."""
        log = self.log(net.in_degree, steps) if records else SampleLog.empty()
        in_degree = np.bincount(self.targets[self.e0:], minlength=self.n0 + steps)
        in_degree[:self.n0] += net.in_degree
        net.in_degree, net._edge_targets, net._edge_sources = in_degree, self.targets, self.sources
        return log

    def log(self, entry: np.ndarray, steps: int) -> "SampleLog":
        """The records, given the in-degrees the call started from."""
        # the picks, one per record, are each step's first new slots; k =
        # entry in-degree + earlier picks of the same node (one per step), a
        # new node entering with its responses; the rank keys fit in int64
        # since SampleLog bounds n_prev * e_prev by 2**53
        records = np.arange(int(self.per_step.sum()))
        first = np.cumsum(self.per_step) - self.per_step  # each step's first record
        picks = self.targets[records + np.repeat(self.e_prev - first, self.per_step)]
        k = np.concatenate([entry, self.responses])[picks] + _repeat_rank(picks)[0]
        return SampleLog(k, np.repeat(self.e_prev, self.per_step),
                         np.repeat(self.n_prev, self.per_step),
                         np.repeat(np.arange(1, steps + 1), self.per_step))


def _grow(net: GrowingNetwork, params: ModelParams, steps: int,
          rng: random.Random, records: bool = True) -> "SampleLog":
    """Advance ``net`` by ``steps`` steps in place; return their records, or
    with ``records=False`` an empty log (the network and ``rng`` are the same).

    The result, ``net`` and the state of ``rng`` afterwards equal those of
    the model drawn one attachment at a time: each of a step's m targets
    takes two ``rng.random()`` draws (preferential if the first is below
    alpha, then a uniform slot of the edge-target list or a uniform node),
    redrawn while already chosen, and each of its m_hat sources one draw,
    redrawn while repeated.  Rejection from the full mixture conditioned on
    "not chosen yet" equals sequential renormalized draws without
    replacement.  With fewer than m (m_hat) nodes, a step attaches to all of
    them (warm-up clipping).

    The draws are made ahead in chunks, within the 2m + m_hat per step the
    call is sure to consume, and a redraw past them is drawn alone
    (:class:`_Draws`).  Full steps run in windows that assume no redraw, so
    each step takes exactly 2m + m_hat draws: all targets at once, existing
    slots by one gather, slots added inside the window by one ascending pass
    over earlier rows.  A window commits the steps before its first repeated
    target or source; that step and each warm-up step run through
    :meth:`_Growth.scalar_step`, which raises StructuralError after
    ``_REDRAW_LIMIT`` draws of redraws; ``net`` and ``rng`` are then as they
    were before the call.  A window spans 1.5 times a running mean of the
    steps from one repeat to the next (0.7 of the old mean, 0.3 of the new
    gap), a mean that doubles, up to ``_MAX_WINDOW``, each time a window
    commits whole.  Out-edges and response edges are stored in the order
    their targets and sources were first drawn; each ``k`` comes from ranks
    at the end (``_repeat_rank``).
    """
    if type(rng) is not random.Random:
        # a subclass may override random(), which the bulk stream would bypass
        raise TypeError(f"growth needs a random.Random, got {type(rng).__name__}")
    m, m_hat, alpha = params.m, params.m_hat, params.alpha
    n0, e0 = net.node_count, net.edge_count
    if n0 < 1:
        raise StructuralError("network has no candidate targets")
    if e0 < 1:
        raise StructuralError("network has no edges; attachment weights undefined")
    # at alpha=1 without response edges only nodes of positive in-degree can
    # be drawn, so a step needing more distinct targets would never end
    if steps and alpha == 1.0 and m_hat == 0:
        need, have = min(m, n0 + steps - 1), np.count_nonzero(net.in_degree)
        if need > have:
            raise StructuralError(f"alpha=1 with m_hat=0 needs {need} nodes of positive "
                                  f"in-degree, the network has {have}")
    if not steps:
        return SampleLog.empty()
    # SampleLog's 2**53 bound on n_prev * e_prev, checked before _Growth sizes arrays
    e_last = e0
    for cap in (m, m_hat):  # a step adds min(cap, n_prev) edges
        warm = min(steps - 1, max(0, cap - n0))  # of the steps before the last, n_prev < cap
        e_last += warm * n0 + warm * (warm - 1) // 2 + cap * (steps - 1 - warm)
    if e_last > (2**53 - 1) // (n0 + steps - 1):
        raise ValueError(f"{steps} steps take e_prev * n_prev past 2**53")

    growth = _Growth(net, params, steps, rng)
    # a window spans 1.5 times a running mean of the steps from one repeat
    # to the next: longer ones waste more rows past the repeat, shorter ones
    # pay the fixed cost of a window more often
    t, gap = 0, float(_MIN_WINDOW)
    try:
        while t < steps:
            if t < growth.warm_up:  # fewer than max(m, m_hat) nodes
                growth.scalar_step(t)
                t += 1
                continue
            size = min(_MAX_WINDOW, max(_MIN_WINDOW, int(1.5 * gap)), steps - t)
            done, tried = growth.window(t, size)
            t += done
            if done < tried:  # step t repeats a target or a source
                growth.scalar_step(t)
                t += 1
                gap = 0.7 * gap + 0.3 * (done + 1)
            else:
                gap = min(_MAX_WINDOW, 2 * gap)
    except StructuralError:  # the redraw bound: leave rng, like net, untouched
        growth.draws.rewind()
        raise
    growth.draws.write_back()
    return growth.finish(net, steps, records)


def grow_step(
    net: GrowingNetwork, params: ModelParams, rng: random.Random
) -> tuple[GrowingNetwork, list[AttachmentRecord]]:
    """Advance the network by one step, mutating ``net`` in place.

    Returns the network and the multiset of attachment records for the m
    targets (response edges are not logged).  Each call copies the
    network's arrays into new ones and pays the growth kernel's set-up: on
    a 20k-node network on a 2-core x86 box, 0.35-0.4 ms with glibc's malloc
    thresholds pinned and 0.6-0.9 ms with its dynamic ones, under which the
    new arrays' pages fault in; a loop should call :func:`grow_sequence`.
    """
    return net, list(_grow(net, params, 1, rng).records())


def _csv_rows(columns: Sequence[np.ndarray], sep: str, end: str) -> bytes:
    """Rows of non-negative int64 columns, as ``"%d<sep>...%d<end>"`` writes them.

    Each field is its digits and the field separator ``sep`` (one ASCII
    character), or the line end ``end`` (ASCII) after a row's last field.
    The digits go in least significant first, one pass per digit place over
    the fields that have one.
    """
    value = np.column_stack(columns).ravel()  # the fields in write order
    digits = np.searchsorted(_POW10, value, side="right") + 1
    last = slice(len(columns) - 1, None, len(columns))
    width = digits + 1
    width[last] += len(end) - 1
    ends = np.cumsum(width)
    buf = np.full(int(ends[-1]), ord(sep), dtype=np.uint8)
    buf[ends[last, None] + np.arange(-len(end), 0)] = np.frombuffer(end.encode(), dtype=np.uint8)
    # the longest fields first (a stable sort of int8 is a radix sort), so
    # each pass takes a prefix; pos is each field's next digit leftwards
    order = np.argsort(-digits.astype(np.int8), kind="stable")
    value, pos = value[order].astype(np.uint64), (ends - width + digits - 1)[order]
    for count in np.bincount(digits)[::-1].cumsum()[::-1][1:].tolist():
        value, pos = value[:count], pos[:count]
        quotient = value // 10
        buf[pos] = (value - quotient * 10 + ord("0")).astype(np.uint8)
        value, pos = quotient, pos - 1
    return buf.tobytes()


@dataclass
class SampleLog:
    """Per-step attachment records as flat parallel arrays.

    ``step`` is the 1-based step index of each record; records are stored
    in step order.  Model-generated logs have exactly m records per step;
    empirical replays may have a varying number (including zero).
    """

    k: np.ndarray
    e_prev: np.ndarray
    n_prev: np.ndarray
    step: np.ndarray

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.int64)
        self.e_prev = np.asarray(self.e_prev, dtype=np.int64)
        self.n_prev = np.asarray(self.n_prev, dtype=np.int64)
        self.step = np.asarray(self.step, dtype=np.int64)
        if not (len(self.k) == len(self.e_prev) == len(self.n_prev) == len(self.step)):
            raise ValueError("sample log arrays must have equal length")
        if len(self.k):
            if (self.k < 0).any():
                raise ValueError("negative in-degree in sample log")
            if (self.e_prev < 1).any():
                raise ValueError("non-positive e_prev in sample log")
            if (self.n_prev < 1).any():
                raise ValueError("non-positive n_prev in sample log")
            if (self.k > self.e_prev).any():
                raise ValueError("record with k > e_prev in sample log")
            # the root denominators e - k*n and the float roots e/(e - k*n)
            # are exact only while e*n (hence k*n) stays below 2**53
            # (the product of the maxima bounds every product; test it first)
            if (int(self.e_prev.max()) * int(self.n_prev.max()) > 2**53 - 1
                    and (self.e_prev > (2**53 - 1) // self.n_prev).any()):
                raise ValueError("record counts out of range: e_prev * n_prev must be below 2**53")
            if (np.diff(self.step) < 0).any():
                raise ValueError("sample log records not in step order")
            if self.step[0] < 1:
                raise ValueError("sample log step below 1")

    def __len__(self) -> int:
        return len(self.k)

    @property
    def n_steps(self) -> int:
        return int(self.step[-1]) if len(self.step) else 0

    @classmethod
    def empty(cls) -> "SampleLog":
        z = np.zeros(0, dtype=np.int64)
        return cls(z, z, z, z)

    @classmethod
    def from_steps(cls, steps: Sequence[Sequence[AttachmentRecord]]) -> "SampleLog":
        k, e, n, s = [], [], [], []
        for i, recs in enumerate(steps, start=1):
            for r in recs:
                k.append(r.k)
                e.append(r.e_prev)
                n.append(r.n_prev)
                s.append(i)
        return cls(np.array(k), np.array(e), np.array(n), np.array(s))

    def records(self) -> Iterator[AttachmentRecord]:
        for k, e, n in zip(self.k, self.e_prev, self.n_prev):
            yield AttachmentRecord(int(k), int(e), int(n))

    def step_records(self, t: int) -> list[AttachmentRecord]:
        mask = self.step == t
        return [
            AttachmentRecord(int(k), int(e), int(n))
            for k, e, n in zip(self.k[mask], self.e_prev[mask], self.n_prev[mask])
        ]

    def prefix(self, t: int) -> "SampleLog":
        """Records of steps 1..t (views into the underlying arrays)."""
        stop = int(np.searchsorted(self.step, t, side="right"))
        return SampleLog(self.k[:stop], self.e_prev[:stop], self.n_prev[:stop], self.step[:stop])

    def drop_zero_indegree(self) -> "SampleLog":
        mask = self.k > 0
        return SampleLog(self.k[mask], self.e_prev[mask], self.n_prev[mask], self.step[mask])

    def csv_bytes(self) -> bytearray:
        columns = (self.step, self.k, self.e_prev, self.n_prev)
        out = bytearray((",".join(_CSV_HEADER) + "\r\n").encode())  # grown in place
        for i in range(0, len(self), _CSV_CHUNK):
            out += _csv_rows([a[i:i + _CSV_CHUNK] for a in columns], ",", "\r\n")
        return out

    def to_csv(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.csv_bytes())

    @classmethod
    def from_csv(cls, path) -> "SampleLog":
        # numpy's parser can crash the interpreter on non-ASCII text (code
        # points from about U+50000 up), so it reads the file decoded as ASCII
        try:
            with open(path, encoding="ascii") as fh:
                header = fh.readline().rstrip("\n").split(",")
                if header != _CSV_HEADER:
                    raise ValueError(f"{path}: unexpected sample log header {header}")
                # np.loadtxt skips empty lines, but warns on a body of nothing else
                body = next((line for line in fh if line != "\n"), "")
            if not body:
                return cls.empty()
            try:
                # numpy parses a file it opens itself faster than an open one
                rows = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2, comments=None,
                                  skiprows=1, encoding="ascii")
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                raise ValueError(f"{path}: malformed row: {exc}") from exc
        except UnicodeDecodeError:
            raise ValueError(f"{path}: malformed row: a sample log is ASCII text") from None
        if rows.shape[1] != len(_CSV_HEADER):
            raise ValueError(f"{path}: malformed row: {rows.shape[1]} columns, "
                             f"expected {len(_CSV_HEADER)}")
        step, k, e_prev, n_prev = rows.T.copy()
        return cls(k, e_prev, n_prev, step)


def grow_sequence(
    seed: SeedSpec,
    params: ModelParams,
    steps: int,
    rng: random.Random,
    keep_edges: bool = False,
    records: bool = True,
) -> tuple[GrowingNetwork, SampleLog]:
    """Run ``steps`` growth steps from the seed; deterministic given rng state.
    With ``records=False`` the log is empty, and only the network is built."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    seed.validate(params)
    net = GrowingNetwork.from_seed(seed, keep_edges=keep_edges)
    return net, _grow(net, params, steps, rng, records)


def make_rng(seed: int, stream: int = 0) -> random.Random:
    """Seedable, splittable randomness: independent streams by index."""
    return random.Random(f"{seed}:{stream}")


def write_edge_list(net: GrowingNetwork, path) -> None:
    """Each edge as ``src dst`` (dense node ids) and LF, in insertion order."""
    if net._edge_sources is None:
        raise ValueError("network was grown without edge storage")
    columns = (net._edge_sources, net._edge_targets)
    with open(path, "wb") as fh:
        for i in range(0, net.edge_count, _CSV_CHUNK):
            fh.write(_csv_rows([a[i:i + _CSV_CHUNK] for a in columns], " ", "\n"))


#: the code points for which ``str.isspace`` is true, as inclusive ranges
_SPACES = ((0x09, 0x0D), (0x1C, 0x20), (0x85, 0x85), (0xA0, 0xA0), (0x1680, 0x1680),
           (0x2000, 0x200A), (0x2028, 0x2029), (0x202F, 0x202F), (0x205F, 0x205F),
           (0x3000, 0x3000))
#: ``_KEEP[b]`` keeps the high ``b`` bytes of a uint64
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * b)) for b in range(8)], dtype=np.uint64)


def _is_space(cp: np.ndarray) -> np.ndarray:
    """``str.isspace`` of each code point of an unsigned array, by comparisons
    (a lookup table would build an 8-byte index per character)."""
    space = np.zeros(len(cp), dtype=bool)
    top = cp.max(initial=0)
    for lo, hi in _SPACES:
        if lo > top:
            break
        space |= cp - cp.dtype.type(lo) <= hi - lo  # wraps below lo
    return space


def _byte_keys(units: list, width: int, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """(words, n) uint64 keys that sort the byte strings ``units[start:end]``,
    ``units`` the listed (code points, bytes) uint8 arrays joined, each row's
    bytes big-endian and right-aligned in ``width``, as ``bytes`` sort.

    Each word holds 7 of a string's bytes, big-endian, above a low byte that
    counts how many of the 7 are the string's, so a string sorts before its
    extensions (``b"a"`` before ``b"a\\x00"``); words past the end are 0.
    """
    rows = np.cumsum([0, *map(len, units)]).tolist()
    buf = np.zeros(rows[-1] * width + 8, dtype=np.uint8)
    for unit, row in zip(units, rows):
        buf[:-8].reshape(-1, width)[row:row + len(unit), width - unit.shape[1]:] = unit
    # the 8 bytes from each offset, as one big-endian word
    window = np.ndarray((len(buf) - 7,), dtype=">u8", buffer=buf, strides=(1,))
    size = (end - start) * width
    keys = np.empty((max(-(-int(size.max(initial=0)) // 7), 1), len(start)), dtype=np.uint64)
    for w, key in enumerate(keys):
        at = start * width + 7 * w
        key[:] = window[np.minimum(at, len(buf) - 8, out=at)]
        count = np.clip(size - 7 * w, 0, 7)
        key &= _KEEP[count]
        key |= count.view(np.uint64)
    return keys


def _intern(*files) -> tuple[list, np.ndarray]:
    """The distinct fields of ``files`` in ``str`` order, and each field's index
    among them, file after file.  A file is ``(text, cp, start, end)``: its code
    points (uint8 if ASCII, else uint32) and fields ``text[start:end]``.  Each
    code point becomes as many big-endian bytes as the widest needs, so one sort
    of the fields' byte keys groups equal fields in ``str`` order: an argsort of
    a one-word key, else a lexsort, the first word most significant.
    """
    texts, cps, starts, ends = zip(*files)
    width = max(1, (max(int(cp.max(initial=0)) for cp in cps).bit_length() + 7) // 8)
    units = [cp[:, None] if cp.itemsize == 1 else  # a uint32's bytes, low byte first
             cp.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)[:, width - 1::-1]
             for cp in cps]
    at = np.cumsum([0, *map(len, texts)])  # each file's first code point in the join
    start = np.concatenate([s + a for s, a in zip(starts, at)])
    end = np.concatenate([e + a for e, a in zip(ends, at)])
    keys = _byte_keys(units, width, start, end)
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    keys = keys[:, order]
    head = np.ones(len(order), dtype=bool)
    np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=head[1:])
    codes = np.empty(len(order), dtype=np.int64)
    codes[order] = np.cumsum(head) - 1
    first = order[head]
    file = np.searchsorted(at, start[first], side="right") - 1
    lo, hi = (start[first] - at[file]).tolist(), (end[first] - at[file]).tolist()
    return [texts[f][i:j] for f, i, j in zip(file.tolist(), lo, hi)], codes


def _pair_fields(path, expected: str, dated: bool = False) -> tuple[tuple, np.ndarray | None]:
    """``(text, cp, start, end)`` for ``_intern`` of a two-field file: the
    first field of each data line (not blank, not '#'), then, unless ``dated``,
    the second; and if ``dated``, each second field as ``date.toordinal()``,
    each distinct date string parsed once.  The first line without two fields,
    or (if ``dated``) whose second field is not an ISO date, raises ParseError.

    The text is read as usual (locale decoding, universal newlines) and held
    as code points; fields are the runs that ``str.isspace`` rejects, lines end
    at LF, and each line's first field is found by ``searchsorted``.
    """
    with open(path) as fh:
        text = fh.read()
    cp = (np.frombuffer(text.encode("ascii"), dtype=np.uint8) if text.isascii() else
          np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32))
    bounds = np.flatnonzero(np.diff(~_is_space(cp), prepend=False, append=False))
    start, end = bounds[0::2], bounds[1::2]
    newlines = np.flatnonzero(cp == ord("\n"))
    # each line's first field: a distinct first field after the start or an LF
    heads = np.append(0, np.searchsorted(start, newlines))
    heads = heads[np.diff(heads, append=len(start)) > 0]
    data = cp[start[heads]] != ord("#")
    wrong = np.diff(heads, append=len(start))[data] != 2
    heads = heads[data]
    bad = int(np.argmax(wrong)) if wrong.any() else len(heads)
    first = heads[:bad]

    def fail(row: int, error: str | None = None, cause=None):
        number = int(np.searchsorted(newlines, start[heads[row]]))  # LFs before the line
        if error is None:
            lo = int(newlines[number - 1]) + 1 if number else 0
            hi = int(newlines[number]) if number < len(newlines) else len(text)
            error = f"expected '{expected}', got {text[lo:hi].strip()!r}"
        raise ParseError(f"{path}:{number + 1}: {error}") from cause

    if dated:
        days, day_code = _intern((text, cp, start[first + 1], end[first + 1]))
        ordinal, causes = np.zeros(len(days), dtype=np.int64), {}
        for i, day in enumerate(days):
            try:
                ordinal[i] = datetime.date.fromisoformat(day).toordinal()
            except ValueError as exc:
                causes[i] = exc
        if causes:
            broken = np.zeros(len(days), dtype=bool)
            broken[list(causes)] = True
            row = int(np.argmax(broken[day_code]))
            fail(row, f"bad date {days[day_code[row]]!r}", causes[int(day_code[row])])
    if bad < len(heads):
        fail(bad)
    if dated:
        return (text, cp, start[first], end[first]), ordinal[day_code]
    fields = np.concatenate([first, first + 1])
    return (text, cp, start[fields], end[fields]), None


def _read_pairs(path, expected: str) -> tuple[list, np.ndarray]:
    """``_pair_fields`` interned: the distinct fields in ``str`` order and a
    (2, lines) int64 array of each line's two fields as indices into them."""
    labels, codes = _intern(_pair_fields(path, expected)[0])
    return labels, codes.reshape(2, -1)


def read_seed_spec(path) -> SeedSpec:
    """Seed from an edge-list file: 'src dst' pairs in the citation files' grammar.

    Nodes come in order of first appearance, ``src`` before ``dst``.
    """
    labels, pairs = _read_pairs(path, "src dst")
    # each label's first appearance, as a src or then a dst
    nodes = np.argsort(np.unique(pairs.T.ravel(), return_index=True)[1])
    name = labels.__getitem__
    return SeedSpec(tuple(map(name, nodes.tolist())),
                    tuple(zip(map(name, pairs[0].tolist()), map(name, pairs[1].tolist()))))
