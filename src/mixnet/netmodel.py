"""Directed network growth by mixed random/preferential attachment.

A new node arrives at each step with ``m`` outgoing edges whose targets are
drawn from a mixture of preferential (in-degree proportional) and uniform
attachment, plus ``m_hat`` incoming "response" edges from uniformly chosen
existing nodes.  Each step logs, for every attachment target, its in-degree
together with the pre-step edge and node counts; those records are the input
to the estimators in :mod:`mixnet.likelihood` and :mod:`mixnet.em`.
"""

from __future__ import annotations

import csv
import random
import warnings
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np


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
            warnings.warn(
                f"seed has {len(self.nodes)} nodes, fewer than max(m, m_hat) = {need}; "
                "early steps will attach to every existing node",
                stacklevel=2,
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
            warnings.warn(
                f"{len(zeros)} seed node(s) have in-degree 0; "
                "the minimum positive likelihood root will be 1",
                stacklevel=2,
            )


@dataclass
class GrowingNetwork:
    """Mutable growth state.

    Nodes are dense integer ids ``0..n-1``.  ``_edge_targets`` holds one
    entry per edge (its target), so a uniform index into it is a draw
    proportional to in-degree.  ``edges`` is kept only when requested.
    """

    in_degree: list = field(default_factory=list)
    edge_count: int = 0
    time: int = 0
    edges: list | None = None
    labels: list = field(default_factory=list)
    _edge_targets: list = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.in_degree)

    @classmethod
    def from_seed(cls, seed: SeedSpec, keep_edges: bool = False) -> "GrowingNetwork":
        index = {label: i for i, label in enumerate(seed.nodes)}
        net = cls(
            in_degree=[0] * len(seed.nodes),
            edges=[] if keep_edges else None,
            labels=list(seed.nodes),
        )
        for u, v in seed.edges:
            net._add_edge(index[u], index[v])
        return net

    def _add_edge(self, src: int, dst: int) -> None:
        self.in_degree[dst] += 1
        self._edge_targets.append(dst)
        self.edge_count += 1
        if self.edges is not None:
            self.edges.append((src, dst))

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


def grow_step(
    net: GrowingNetwork, params: ModelParams, rng: random.Random
) -> tuple[GrowingNetwork, list[AttachmentRecord]]:
    """Advance the network by one step, mutating ``net`` in place.

    Returns the network and the multiset of attachment records for the m
    targets (response edges are not logged).  Target draws use the pre-step
    snapshot throughout; rejection from the full mixture conditioned on
    "not chosen yet" equals sequential renormalized draws without
    replacement.
    """
    m, m_hat, alpha = params.m, params.m_hat, params.alpha
    n_prev = net.node_count
    e_prev = net.edge_count
    if n_prev < 1:
        raise StructuralError("network has no candidate targets")
    if e_prev < 1:
        raise StructuralError("network has no edges; attachment weights undefined")
    # warm-up clipping: with fewer than m (m_hat) nodes, attach to all of them
    m = min(m, n_prev)
    m_hat = min(m_hat, n_prev)

    in_degree = net.in_degree
    edge_targets = net._edge_targets
    chosen: set[int] = set()
    records = []
    for _ in range(m):
        while True:
            if rng.random() < alpha:
                v = edge_targets[int(rng.random() * e_prev)]
            else:
                v = int(rng.random() * n_prev)
            if v not in chosen:
                break
        chosen.add(v)
        records.append(AttachmentRecord(in_degree[v], e_prev, n_prev))

    sources: set[int] = set()
    while len(sources) < m_hat:
        sources.add(int(rng.random() * n_prev))

    new_id = n_prev
    net.in_degree.append(0)
    net.labels.append(f"t{net.time + 1}")
    for v in chosen:
        net._add_edge(new_id, v)
    for s in sources:
        net._add_edge(s, new_id)
    net.time += 1
    return net, records


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
            writer = csv.writer(fh)
            writer.writerow(["step", "k", "e_prev", "n_prev"])
            for s, k, e, n in zip(self.step, self.k, self.e_prev, self.n_prev):
                writer.writerow([int(s), int(k), int(e), int(n)])

    @classmethod
    def from_csv(cls, path) -> "SampleLog":
        k, e, n, s = [], [], [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["step", "k", "e_prev", "n_prev"]:
                raise ValueError(f"{path}: unexpected sample log header {header}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    s.append(int(row[0]))
                    k.append(int(row[1]))
                    e.append(int(row[2]))
                    n.append(int(row[3]))
                except (ValueError, IndexError) as exc:
                    raise ValueError(f"{path}:{lineno}: malformed row {row}") from exc
        return cls(np.array(k, dtype=np.int64), np.array(e, dtype=np.int64),
                   np.array(n, dtype=np.int64), np.array(s, dtype=np.int64))


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
    n0 = net.node_count
    expected_edges = net.edge_count
    per_step = []
    for t in range(1, steps + 1):
        n_prev = net.node_count
        _, records = grow_step(net, params, rng)
        per_step.append(records)
        expected_edges += min(params.m, n_prev) + min(params.m_hat, n_prev)
        assert net.node_count == n0 + t
        assert net.edge_count == expected_edges
    return net, SampleLog.from_steps(per_step)


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
