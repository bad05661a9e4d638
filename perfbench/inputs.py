"""Benchmark inputs, generated from the workload seed.

Nothing here imports mixnet.  The growth model and the citation replay are
re-implemented from their documented semantics, so the inputs (and the
expected values the checks compare against) stay the same when a change
alters mixnet's random draw order, and a defect in mixnet cannot hide
itself by also corrupting the expected values.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass

import numpy as np

#: citation model: preferential share, mean citations per paper, papers a day
CITE_ALPHA, MEAN_CITES, PAPERS_PER_DAY = 0.5, 12, 10


@dataclass
class Records:
    """Attachment records (k, e_prev, n_prev) with their 1-based step."""

    step: np.ndarray
    k: np.ndarray
    e_prev: np.ndarray
    n_prev: np.ndarray

    def write_csv(self, path) -> None:
        """Write in mixnet's sample-log layout: header step,k,e_prev,n_prev."""
        rows = np.column_stack([self.step, self.k, self.e_prev, self.n_prev])
        with open(path, "w") as fh:
            fh.write("step,k,e_prev,n_prev\n")
            fh.write("\n".join(f"{s},{k},{e},{n}" for s, k, e, n in rows.tolist()))
            fh.write("\n")


def _columns(step, k, e, n) -> Records:
    return Records(*(np.asarray(col, dtype=np.int64) for col in (step, k, e, n)))


def growth_log(seed: int, steps: int, m: int, m_hat: int, alpha: float,
               seed_nodes: int) -> Records:
    """Sample log of the mixed attachment model grown from a complete seed.

    Each step a new node attaches to min(m, n) distinct existing nodes, each
    draw preferential (proportional to in-degree) with probability alpha and
    uniform otherwise, redrawn when it repeats a target; then min(m_hat, n)
    distinct uniform existing nodes link back to it.  One record per target.
    """
    rng = random.Random(f"perfbench-growth:{seed}")
    in_degree = [seed_nodes - 1] * seed_nodes
    # one entry per edge, holding its target: a uniform pick is preferential
    edge_targets = [v for v in range(seed_nodes) for _ in range(seed_nodes - 1)]
    step_col, k_col, e_col, n_col = [], [], [], []
    for t in range(1, steps + 1):
        n_prev, e_prev = len(in_degree), len(edge_targets)
        chosen: list[int] = []
        while len(chosen) < min(m, n_prev):
            if rng.random() < alpha:
                v = edge_targets[rng.randrange(e_prev)]
            else:
                v = rng.randrange(n_prev)
            if v not in chosen:
                chosen.append(v)
        for v in chosen:
            step_col.append(t)
            k_col.append(in_degree[v])
            e_col.append(e_prev)
            n_col.append(n_prev)
        responders = rng.sample(range(n_prev), min(m_hat, n_prev))
        for v in chosen:
            in_degree[v] += 1
            edge_targets.append(v)
        in_degree.append(len(responders))
        edge_targets.extend([n_prev] * len(responders))
    return _columns(step_col, k_col, e_col, n_col)


@dataclass
class CitationData:
    """A synthetic SNAP-format citation dataset and what replaying it gives."""

    cutoff: str       # ISO date of the first day: the seed cutoff
    manifest: dict    # expected replay_manifest.json
    records: Records  # expected replay sample log


def citation_data(seed: int, papers: int, edges_path, dates_path) -> CitationData:
    """Write a citation network grown like the model and replay it.

    Papers appear in date order, several per day, and cite earlier papers
    (preferential with probability CITE_ALPHA, else uniform).  Ids are
    fixed-width numbers that increase with arrival, so the (date, id) order
    of a replay is the order of generation; both files are written shuffled,
    so that order has to come from sorting.  A small fixed share of duplicate
    pairs, self-citations and citations from undated papers exercises each
    cleaning branch of the loader; the replay's counts show whether each
    was dropped.
    """
    rng = random.Random(f"perfbench-cite:{seed}")
    ids = [str(1_000_000 + i) for i in range(papers)]
    start = datetime.date(1992, 1, 1)

    # the first day holds enough papers to give the seed network edges
    day, left, days = 0, 2 * PAPERS_PER_DAY, []
    for _ in range(papers):
        if left == 0:
            day += rng.randint(1, 2)
            left = rng.randint(1, 2 * PAPERS_PER_DAY - 1)
        days.append(day)
        left -= 1

    cites: list[list[int]] = []
    edge_targets: list[int] = []
    for i in range(papers):
        want = min(i, rng.randint(MEAN_CITES // 2, MEAN_CITES + MEAN_CITES // 2))
        chosen: list[int] = []
        while len(chosen) < want:
            if edge_targets and rng.random() < CITE_ALPHA:
                v = edge_targets[rng.randrange(len(edge_targets))]
            else:
                v = rng.randrange(i)
            if v not in chosen:
                chosen.append(v)
        cites.append(chosen)
        edge_targets.extend(chosen)

    clean = [(ids[u], ids[v]) for u, vs in enumerate(cites) for v in vs]
    duplicates = rng.sample(clean, len(clean) // 100)
    self_cites = [(ids[u], ids[u]) for u in rng.sample(range(papers), papers // 500 + 1)]
    undated = []
    for j in range(papers // 1000 + 1):
        for v in rng.sample(range(papers), min(5, papers)):
            undated.append((str(9_000_000 + j), ids[v]))
    lines = [f"{u}\t{v}" for u, v in clean + duplicates + self_cites + undated]
    rng.shuffle(lines)
    with open(edges_path, "w") as fh:
        fh.write("# Directed graph: synthetic citation network\n")
        fh.write(f"# Nodes: {papers} Edges: {len(lines)}\n")
        fh.write("# FromNodeId\tToNodeId\n")
        fh.write("\n".join(lines) + "\n")

    date_lines = [f"{ids[i]}\t{(start + datetime.timedelta(days=d)).isoformat()}"
                  for i, d in enumerate(days)]
    rng.shuffle(date_lines)
    with open(dates_path, "w") as fh:
        fh.write("# Paper\tDate\n")
        fh.write("\n".join(date_lines) + "\n")

    manifest, records = _replay(cites, days)
    return CitationData(start.isoformat(), manifest, records)


def _replay(cites: list[list[int]], days: list[int]) -> tuple[dict, Records]:
    """Replay papers 0..N-1 (already in (date, id) order) with day 0 as seed.

    Nodes are the papers that cite or are cited.  The seed holds the nodes
    dated on the cutoff day plus everything they cite, with their citations;
    every later node arrives in order and logs (in-degree, edges, nodes) of
    each paper it cites against the network just before it arrives.
    """
    cited = {v for vs in cites for v in vs}
    nodes = [p for p in range(len(cites)) if cites[p] or p in cited]
    seed_papers = [p for p in nodes if days[p] == 0]
    seed_nodes = set(seed_papers)
    for p in seed_papers:
        seed_nodes.update(cites[p])
    in_degree = {p: 0 for p in seed_nodes}
    seed_edges = 0
    for p in seed_papers:
        for v in cites[p]:
            in_degree[v] += 1
            seed_edges += 1
    edges = seed_edges
    arrivals = [p for p in nodes if p not in seed_nodes]
    step_col, k_col, e_col, n_col = [], [], [], []
    for t, p in enumerate(arrivals, start=1):
        n_prev = len(in_degree)
        for v in cites[p]:
            step_col.append(t)
            k_col.append(in_degree.get(v, 0))
            e_col.append(edges)
            n_col.append(n_prev)
        in_degree.setdefault(p, 0)
        for v in cites[p]:
            in_degree[v] = in_degree.get(v, 0) + 1
            edges += 1
    manifest = {
        "seed_nodes": len(seed_nodes),
        "seed_edges": seed_edges,
        "arrivals": len(arrivals),
        "final_nodes": len(in_degree),
        "final_edges": edges,
    }
    return manifest, _columns(step_col, k_col, e_col, n_col)
