"""Directed network growth by mixed random/preferential attachment.

A new node arrives at each step with ``m`` outgoing edges whose targets are
drawn from a mixture of preferential (in-degree proportional) and uniform
attachment, plus ``m_hat`` incoming "response" edges from uniformly chosen
existing nodes.  Each step logs, for every attachment target, its in-degree
together with the pre-step edge and node counts; those records are the input
to the estimators in :mod:`mixnet.likelihood` and :mod:`mixnet.em`.

All growth runs through one loop over an edge-target list (the edge-list
form of Batagelj & Brandes 2005) that records only the in-degree ``k`` of
each drawn target; the pre-step counts ``e_prev`` and ``n_prev`` and the
``step`` column do not depend on the draws and are derived after the loop.
"""

from __future__ import annotations

import random
import sys
import warnings
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np


_CSV_HEADER = ["step", "k", "e_prev", "n_prev"]
_CSV_CHUNK = 4096  # rows per write: bounds the Python objects alive at once


def _warn(message: str) -> None:
    """Warn at the first caller outside this module."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class StructuralError(ValueError):
    """The growth step cannot be performed on the current network."""


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

    Nodes are dense integer ids ``0..n-1``.  ``_edge_targets`` holds one
    entry per edge (its target), so a uniform index into it is a draw
    proportional to in-degree.  ``edges`` is kept only when requested.
    """

    in_degree: list = field(default_factory=list)
    edges: list | None = None
    _edge_targets: list = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.in_degree)

    @property
    def edge_count(self) -> int:
        return len(self._edge_targets)

    @classmethod
    def from_seed(cls, seed: SeedSpec, keep_edges: bool = False) -> "GrowingNetwork":
        index = {label: i for i, label in enumerate(seed.nodes)}
        pairs = [(index[u], index[v]) for u, v in seed.edges]
        in_degree = [0] * len(seed.nodes)
        for _, v in pairs:
            in_degree[v] += 1
        return cls(in_degree=in_degree, edges=pairs if keep_edges else None,
                   _edge_targets=[v for _, v in pairs])

    def in_degree_array(self) -> np.ndarray:
        return np.asarray(self.in_degree, dtype=np.int64)


def attachment_probability(k: int, e_prev: int, n_prev: int, alpha: float) -> float:
    """Probability that a single attachment edge targets a node of in-degree k."""
    if e_prev <= 0 or n_prev <= 0:
        raise ValueError("e_prev and n_prev must be positive")
    if not 0 <= k <= e_prev:
        raise ValueError(f"in-degree {k} outside [0, {e_prev}]")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * (k / e_prev - 1 / n_prev) + 1 / n_prev


def _grow(net: GrowingNetwork, params: ModelParams, steps: int,
          rng: random.Random) -> "SampleLog":
    """Advance ``net`` by ``steps`` steps in place; return their records.

    Rejection from the full mixture conditioned on "not chosen yet" equals
    sequential renormalized draws without replacement.  With fewer than m
    (m_hat) nodes, a step attaches to all of them (warm-up clipping).
    """
    m, m_hat, alpha = params.m, params.m_hat, params.alpha
    n0, e0 = net.node_count, net.edge_count
    if n0 < 1:
        raise StructuralError("network has no candidate targets")
    if e0 < 1:
        raise StructuralError("network has no edges; attachment weights undefined")
    # at alpha=1 without response edges only nodes of positive in-degree can
    # be drawn, so a step needing more distinct targets would never end
    if steps and alpha == 1.0 and m_hat == 0:
        need, have = min(m, n0 + steps - 1), sum(d > 0 for d in net.in_degree)
        if need > have:
            raise StructuralError(f"alpha=1 with m_hat=0 needs {need} nodes of positive "
                                  f"in-degree, the network has {have}")

    in_degree = net.in_degree
    targets = net._edge_targets
    edges = net.edges
    draw = rng.random
    ks: list[int] = []
    record = ks.append
    for n_prev in range(n0, n0 + steps):
        e_prev = len(targets)
        chosen: set[int] = set()
        for _ in range(min(m, n_prev)):
            while True:
                if draw() < alpha:
                    v = targets[int(draw() * e_prev)]
                else:
                    v = int(draw() * n_prev)
                if v not in chosen:
                    break
            chosen.add(v)
            record(in_degree[v])
        sources: set[int] = set()
        n_sources = min(m_hat, n_prev)
        while len(sources) < n_sources:
            sources.add(int(draw() * n_prev))

        # the new node's id is n_prev; its out-edges precede its response edges
        for v in chosen:
            in_degree[v] += 1
        in_degree.append(n_sources)
        targets.extend(chosen)
        targets.extend([n_prev] * n_sources)
        if edges is not None:
            edges.extend([(n_prev, v) for v in chosen])
            edges.extend([(s, n_prev) for s in sources])

    n_prev = np.arange(n0, n0 + steps, dtype=np.int64)
    per_step = np.minimum(m, n_prev)
    added = per_step + np.minimum(m_hat, n_prev)
    e_prev = e0 + np.cumsum(added) - added
    if len(in_degree) != n0 + steps or len(targets) != e0 + added.sum():
        raise RuntimeError("growth loop broke the per-step node or edge budget")
    return SampleLog(
        ks,
        np.repeat(e_prev, per_step),
        np.repeat(n_prev, per_step),
        np.repeat(np.arange(1, steps + 1), per_step),
    )


def grow_step(
    net: GrowingNetwork, params: ModelParams, rng: random.Random
) -> tuple[GrowingNetwork, list[AttachmentRecord]]:
    """Advance the network by one step, mutating ``net`` in place.

    Returns the network and the multiset of attachment records for the m
    targets (response edges are not logged).
    """
    return net, list(_grow(net, params, 1, rng).records())


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
            if (self.e_prev > (2**53 - 1) // self.n_prev).any():
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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(_CSV_HEADER) + "\r\n")
            for i in range(0, len(self), _CSV_CHUNK):
                cols = [a[i:i + _CSV_CHUNK].tolist()
                        for a in (self.step, self.k, self.e_prev, self.n_prev)]
                fh.write("".join(map("%d,%d,%d,%d\r\n".__mod__, zip(*cols))))

    @classmethod
    def from_csv(cls, path) -> "SampleLog":
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != _CSV_HEADER:
                raise ValueError(f"{path}: unexpected sample log header {header}")
            body = fh.tell()
            if not fh.read(1):
                return cls.empty()  # header only, which np.loadtxt would warn about
            fh.seek(body)
            try:
                rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
            except ValueError as exc:
                raise ValueError(f"{path}: malformed row: {exc}") from exc
        if rows.size == 0:  # blank lines only
            return cls.empty()
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
) -> tuple[GrowingNetwork, SampleLog]:
    """Run ``steps`` growth steps from the seed; deterministic given rng state."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    seed.validate(params)
    net = GrowingNetwork.from_seed(seed, keep_edges=keep_edges)
    return net, _grow(net, params, steps, rng)


def make_rng(seed: int, stream: int = 0) -> random.Random:
    """Seedable, splittable randomness: independent streams by index."""
    return random.Random(f"{seed}:{stream}")


def write_edge_list(net: GrowingNetwork, path) -> None:
    if net.edges is None:
        raise ValueError("network was grown without edge storage")
    with open(path, "w") as fh:
        for u, v in net.edges:
            fh.write(f"{u} {v}\n")


def read_seed_spec(path) -> SeedSpec:
    """Seed from an edge-list file: one 'src dst' pair per line, '#' comments."""
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
