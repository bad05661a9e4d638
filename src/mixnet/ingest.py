"""Replay a timestamped citation dataset as a growth sequence.

The dataset is a SNAP-style edge file (citing cited) plus a dates file
(id<TAB>YYYY-MM-DD), read like seed edge lists (``netmodel._pair_fields``).
Papers dated up to a cutoff, together with the papers they cite, form the
seed; the remaining dated papers arrive one per step in (date, id) order and
their citations become attachment records against the pre-arrival snapshot.

The loader interns both files' ids in one pass (``netmodel._intern``): each
id gets one code, in string order, from one sort of packed byte keys, and
each distinct date string is parsed once.  Cleaning and ordering are masks,
counts and stable sorts of codes packed above the row index
(``netmodel._stable_order``); a repeated pair keeps the first row of its run
in that order, its first line.  A record's k is the target's seed in-degree
plus its earlier citations, ranked by the same sort as the growth kernel's k
(``netmodel._repeat_rank``); ``n_prev`` at step t counts the nodes whose
entry step is below t (0 for seed nodes, else the earlier of the node's
arrival and its first citation).
"""

from __future__ import annotations

import datetime
import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .netmodel import (ParseError, SampleLog, SeedSpec, _intern, _pair_fields, _repeat_rank,
                       _stable_order)

log = logging.getLogger(__name__)


@dataclass
class CitationDataset:
    labels: list  # paper ids in string order; a paper's code is its index
    day: np.ndarray  # date ordinal per code, -1 when undated
    citing: np.ndarray  # cleaned citation pairs as codes, in file order
    cited: np.ndarray
    duplicate_edges_dropped: int = 0
    self_citations_dropped: int = 0
    undated_citing_dropped: int = 0

    @cached_property
    def edges(self) -> list:
        """(citing, cited) id pairs, cleaned, in file order."""
        ids = self.labels
        return [(ids[u], ids[v]) for u, v in zip(self.citing.tolist(), self.cited.tolist())]

    @cached_property
    def dates(self) -> dict:
        """paper id -> datetime.date, in id order."""
        ids, dated = self.labels, np.flatnonzero(self.day >= 0)
        return dict(zip(map(ids.__getitem__, dated.tolist()),
                        map(datetime.date.fromordinal, self.day[dated].tolist())))

    @property
    def paper_count(self) -> int:
        return len(np.union1d(self.citing, self.cited))

    @property
    def citation_count(self) -> int:
        return len(self.citing)


def load_dataset(edge_path, dates_path) -> CitationDataset:
    """Parse edge and date files ('#' lines are comments) and clean the pairs.

    Self-citations, citations from undated papers (which cannot be placed in
    the sequence) and repeated pairs are dropped, with counts and warnings.
    """
    dated, ordinal = _pair_fields(dates_path, "id date", dated=True)
    labels, codes = _intern(dated, _pair_fields(edge_path, "citing cited")[0])
    paper, (u, v) = codes[:len(ordinal)], codes[len(ordinal):].reshape(2, -1)
    # a paper dated twice keeps its last date, as in a dict
    last = np.zeros(len(labels), dtype=np.int64)
    np.maximum.at(last, paper, np.arange(len(paper)))
    day = np.full(len(labels), -1, dtype=np.int64)
    day[paper] = ordinal[last[paper]]
    # self-citations first, then every pair from an undated paper, then repeats
    selfcite = u == v
    undated = ~selfcite & (day[u] < 0)
    candidates = np.flatnonzero(~selfcite & ~undated)
    order = candidates[_stable_order(u[candidates], v[candidates])]
    # the first row of each run of equal pairs in that order is the pair's first line
    keep = np.zeros(len(u), dtype=bool)
    keep[order[(np.diff(u[order], prepend=-1) != 0) | (np.diff(v[order], prepend=-1) != 0)]] = True
    kept = np.flatnonzero(keep)
    dup, selfcite, undated = len(candidates) - len(kept), int(selfcite.sum()), int(undated.sum())
    for count, what in ((dup, "duplicate citation pairs"), (selfcite, "self-citations"),
                        (undated, "citations from papers without a date")):
        if count:
            log.warning("dropped %d %s", count, what)
    return CitationDataset(labels, day, u[kept], v[kept], dup, selfcite, undated)


@dataclass
class ReplaySequence:
    labels: list  # the dataset's paper ids, indexed by code
    seed_nodes: np.ndarray  # codes, ascending
    seed_citing: np.ndarray  # seed edges, by citing code, then in file order
    seed_cited: np.ndarray
    arrival_papers: np.ndarray  # codes in arrival order; paper i arrives at step i+1
    step: np.ndarray  # arrival step of each arrival citation, ascending
    cited: np.ndarray  # the cited code; file order within a step

    @cached_property
    def seed(self) -> SeedSpec:
        ids = self.labels
        return SeedSpec(tuple(ids[p] for p in self.seed_nodes.tolist()), tuple(
            (ids[u], ids[v]) for u, v in zip(self.seed_citing.tolist(), self.seed_cited.tolist())))

    @cached_property
    def arrivals(self) -> list:
        """(paper id, [cited ids]) in arrival order."""
        ids, steps = self.labels, np.arange(2, len(self.arrival_papers) + 1)
        groups = np.split(self.cited, np.searchsorted(self.step, steps))
        return [(ids[p], [ids[v] for v in c.tolist()])
                for p, c in zip(self.arrival_papers.tolist(), groups)]


def build_replay(ds: CitationDataset, seed_cutoff: datetime.date) -> ReplaySequence:
    """Split the dataset into a seed network and a dated arrival sequence.

    Seed nodes are the papers dated at or before the cutoff plus everything
    they cite; seed edges are the citations among them made by those dated
    papers.  Arrivals are the remaining dated papers that appear in the edge
    list, ascending by (date, id): the id tie-break makes the order unique.
    """
    n = len(ds.labels)
    dated = (ds.day >= 0) & (np.bincount(np.concatenate([ds.citing, ds.cited]), minlength=n) > 0)
    seed_paper = dated & (ds.day <= seed_cutoff.toordinal())
    if not seed_paper.any():
        raise ValueError(f"no papers dated at or before {seed_cutoff}")
    from_seed = np.flatnonzero(seed_paper[ds.citing])
    from_seed = from_seed[_stable_order(ds.citing[from_seed])]
    seed_node = seed_paper.copy()
    seed_node[ds.cited[from_seed]] = True
    arrival_papers = np.flatnonzero(dated & ~seed_node)
    # ascending codes, so a stable sort by day gives the (date, id) order
    arrival_papers = arrival_papers[_stable_order(ds.day[arrival_papers])]
    step_of = np.zeros(n, dtype=np.int64)
    step_of[arrival_papers] = np.arange(1, len(arrival_papers) + 1)
    step = step_of[ds.citing]
    replayed = np.flatnonzero(step)
    replayed = replayed[_stable_order(step[replayed])]
    return ReplaySequence(ds.labels, np.flatnonzero(seed_node), ds.citing[from_seed],
                          ds.cited[from_seed], arrival_papers, step[replayed], ds.cited[replayed])


@dataclass
class ReplayResult:
    sample_log: SampleLog
    in_degrees: np.ndarray  # final in-degree per node
    manifest: dict
    citations_per_step: np.ndarray  # citation count of each arrival


def replay_to_samplelog(seq: ReplaySequence) -> ReplayResult:
    """Play the arrivals forward, emitting one record per citation.

    Each record holds the cited paper's in-degree and the network's edge and
    node counts just before the arriving paper's nodes and edges are added;
    papers cited for the first time enter with in-degree 0 at that step.
    """
    n, steps, step, cited = len(seq.labels), len(seq.arrival_papers), seq.step, seq.cited
    seed_in, replay_in = np.bincount(seq.seed_cited, minlength=n), np.bincount(cited, minlength=n)
    # pairs are unique, so a target's earlier citations come from earlier steps
    earlier, _, _ = _repeat_rank(cited)
    per_step = np.bincount(step, minlength=steps + 1)[1:]
    e_prev = len(seq.seed_cited) + np.cumsum(per_step) - per_step
    entry = np.full(n, steps + 1, dtype=np.int64)
    entry[seq.arrival_papers] = np.arange(1, steps + 1)
    np.minimum.at(entry, cited, step)
    entry[seq.seed_nodes] = 0
    entered = entry <= steps
    n_prev = np.cumsum(np.bincount(entry[entered], minlength=steps + 1))
    return ReplayResult(
        sample_log=SampleLog(seed_in[cited] + earlier, e_prev[step - 1], n_prev[step - 1], step),
        in_degrees=np.sort((seed_in + replay_in)[entered]),
        manifest={"seed_nodes": len(seq.seed_nodes), "seed_edges": len(seq.seed_cited),
                  "arrivals": steps, "final_nodes": int(entered.sum()),
                  "final_edges": len(seq.seed_cited) + len(cited)},
        citations_per_step=per_step,
    )
