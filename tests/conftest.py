"""Shared fixtures and random-log helpers for the test suite."""

import csv
import datetime
import math
import random

import mpmath
import numpy as np
import pytest

from mixnet import GrowingNetwork, ModelParams, SampleLog, SeedSpec, grow_sequence, make_rng
from mixnet.em import MONOTONICITY_SLACK, EmConfig, EmTrace, _mixture
from mixnet.likelihood import (BISECTION_WIDTH, INTERIOR_MARGIN, _derivative,
                               _slope_intercept, _sum_log_factors)
from mixnet.netmodel import (_CSV_CHUNK, _CSV_HEADER, ParseError, StructuralError, _intern,
                             _pair_fields)


def random_record(rng: random.Random, pool_bias: bool = False):
    """One valid (k, e_prev, n_prev) triple.

    With ``pool_bias`` the values come from a small pool so that repeated
    draws produce duplicate records (and hence root multiplicities).
    """
    if pool_bias:
        n = rng.choice([3, 4, 5])
        e = rng.choice([6, 8, 10, 12])
        k = rng.choice([0, 1, 2, 3])
    else:
        n = rng.randint(3, 50)
        e = rng.randint(n, 400)
        k = rng.randint(0, min(e, 30))
    return k, e, n


def random_log(rng: random.Random, max_records: int = 12, pool_bias: bool = False,
               require_positive_k: bool = True) -> SampleLog:
    n_rec = rng.randint(2, max_records)
    rows = [random_record(rng, pool_bias) for _ in range(n_rec)]
    if require_positive_k and not any(k > 0 for k, _, _ in rows):
        k, e, n = rows[0]
        rows[0] = (max(k, 1), max(e, 1), n)
    k, e, n = zip(*rows)
    steps = np.arange(1, n_rec + 1)
    return SampleLog(np.array(k), np.array(e), np.array(n), steps)


FIG3_PARAMS = ModelParams(m=5, m_hat=3, alpha=0.6)
FIG3_STEPS = 20000
FIG3_N_SEEDS = 10


@pytest.fixture(scope="session")
def fig3_runs():
    """Ten independent K3-seeded runs at (m=5, m_hat=3, alpha=0.6), T=20000."""
    seed_spec = SeedSpec.complete(3)
    runs = []
    for s in range(FIG3_N_SEEDS):
        with pytest.warns(UserWarning):
            _, log = grow_sequence(seed_spec, FIG3_PARAMS, FIG3_STEPS, make_rng(s))
        runs.append(log)
    return runs


def head_sum_ccdf(params: ModelParams, k_max: int) -> list:
    """Stationary CCDF for k = m_hat .. k_max as 1 - sum_{j<k} P(j) in mpmath.

    An oracle that does not use the closed tail sum: the pmf comes from its
    ratio recurrence, and the working precision is raised by the digits the
    head sum cancels.  Those are at most -log10 P(k_max), since CCDF >= pmf,
    and capped at 300: compare only where the CCDF exceeds 1e-300.
    """
    m, mh = params.m, params.m_hat

    def base(a):
        return (m + mh) / (m * m + m * mh + m + mh - a * m * m)

    def ratio(a, k):
        return ((a * (k * m - m * m - m * mh - m) + m * m + m * mh)
                / (a * (k * m - m * m - m * mh) + m * m + m * mh + m + mh))

    # a float estimate of the digits lost is enough to set the precision
    a = params.alpha
    log10_last = math.log10(base(a)) + math.fsum(
        math.log10(ratio(a, k)) for k in range(mh + 1, k_max + 1))
    with mpmath.workdps(30 + min(300, int(-log10_last))):
        a = mpmath.mpf(a)  # the float's exact value
        out, head, p = [], mpmath.mpf(0), base(a)
        for k in range(mh, k_max + 1):
            if k > mh:
                p *= ratio(a, k)
            out.append(1 - head)
            head += p
    return out


def reference_to_csv(log: SampleLog, path) -> None:
    """``SampleLog.to_csv`` as one ``%d`` format per row, the writer the
    numpy formatter replaced, kept verbatim as its differential oracle."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        for i in range(0, len(log), _CSV_CHUNK):
            cols = [a[i:i + _CSV_CHUNK].tolist()
                    for a in (log.step, log.k, log.e_prev, log.n_prev)]
            fh.write("".join(map("%d,%d,%d,%d\r\n".__mod__, zip(*cols))))


def reference_grow(net: GrowingNetwork, params: ModelParams, steps: int,
                   rng: random.Random) -> SampleLog:
    """Advance ``net`` by ``steps`` steps in place; return their records.

    The per-attachment loop that ``netmodel._grow`` replaced, kept as the
    differential oracle for the windowed kernel; it runs on lists taken from
    the network's int64 arrays (the edges as (source, target) tuples, if
    stored) and writes arrays back.  A step's out-edges and response edges
    are stored in the order their targets and sources were first drawn.

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

    in_degree = net.in_degree.tolist()
    targets = net._edge_targets.tolist()
    edges = net.edges
    draw = rng.random
    ks: list[int] = []
    record = ks.append
    for n_prev in range(n0, n0 + steps):
        e_prev = len(targets)
        picks: list[int] = []
        for _ in range(min(m, n_prev)):
            while True:
                if draw() < alpha:
                    v = targets[int(draw() * e_prev)]
                else:
                    v = int(draw() * n_prev)
                if v not in picks:
                    break
            picks.append(v)
            record(in_degree[v])
        sources: list[int] = []
        n_sources = min(m_hat, n_prev)
        while len(sources) < n_sources:
            s = int(draw() * n_prev)
            if s not in sources:
                sources.append(s)

        # the new node's id is n_prev; its out-edges precede its response edges
        for v in picks:
            in_degree[v] += 1
        in_degree.append(n_sources)
        targets.extend(picks)
        targets.extend([n_prev] * n_sources)
        if edges is not None:
            edges.extend([(n_prev, v) for v in picks])
            edges.extend([(s, n_prev) for s in sources])

    n_prev = np.arange(n0, n0 + steps, dtype=np.int64)
    per_step = np.minimum(m, n_prev)
    added = per_step + np.minimum(m_hat, n_prev)
    e_prev = e0 + np.cumsum(added) - added
    if len(in_degree) != n0 + steps or len(targets) != e0 + added.sum():
        raise RuntimeError("growth loop broke the per-step node or edge budget")
    net.in_degree = np.array(in_degree, dtype=np.int64)
    net._edge_targets = np.array(targets, dtype=np.int64)
    if edges is not None:
        net._edge_sources = np.array([u for u, _ in edges], dtype=np.int64)
    return SampleLog(
        ks,
        np.repeat(e_prev, per_step),
        np.repeat(n_prev, per_step),
        np.repeat(np.arange(1, steps + 1), per_step),
    )


def reference_write_edge_list(net: GrowingNetwork, path) -> None:
    """``write_edge_list`` as one f-string per edge, the writer that
    ``_csv_rows`` replaced, kept verbatim as its differential oracle."""
    if net.edges is None:
        raise ValueError("network was grown without edge storage")
    with open(path, "w") as fh:
        for u, v in net.edges:
            fh.write(f"{u} {v}\n")


def reference_em_trace_csv(trace, path) -> None:
    """``EmTrace.to_csv``, the writer of ``em_trace.csv`` that ``estimate``
    replaced with its own float-table writer, kept verbatim as its oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "alpha", "loglik"])
        for i, (alpha, loglik) in enumerate(trace.iterations):
            writer.writerow([i, repr(alpha), repr(loglik)])


def reference_read_pairs(path, expected: str, dated: bool = False) -> tuple[list, list]:
    """The whole-file pair reader that the interned ``netmodel._read_pairs``
    replaced, kept verbatim as its oracle: the two fields of each data line
    (not blank, not '#'), as two lists.

    The first line without two fields, or (if ``dated``) whose second field
    is not an ISO date, raises ParseError; the second fields become dates.
    """
    with open(path) as fh:
        lines = [line.strip() for line in fh.read().split("\n")]
    rows = [line for line in lines if line and line[0] != "#"]
    counts = np.fromiter(map(len, map(str.split, rows)), dtype=np.int64, count=len(rows))
    bad = min(np.flatnonzero(counts != 2).tolist(), default=len(rows))
    fields = " ".join(rows[:bad]).split()
    first, second = fields[0::2], fields[1::2]
    error, cause = (f"expected '{expected}', got {rows[bad]!r}" if bad < len(rows) else None), None
    for j, text in enumerate(second if dated else ()):
        try:
            second[j] = datetime.date.fromisoformat(text)
        except ValueError as exc:
            bad, error, cause = j, f"bad date {text!r}", exc
            break
    if error is not None:
        number = [i for i, line in enumerate(lines, start=1) if line and line[0] != "#"][bad]
        raise ParseError(f"{path}:{number}: {error}") from cause
    return first, second


def read_pairs(path, expected: str, dated: bool = False) -> tuple[list, np.ndarray]:
    """``netmodel._pair_fields`` interned by ``netmodel._intern``, the pair
    reader the oracle above checks: the distinct fields in ``str`` order and a
    (2, lines) int64 array of each line's two fields as indices into them, or,
    if ``dated``, of its first field's index and its date ordinal."""
    fields, ordinal = _pair_fields(path, expected, dated)
    labels, codes = _intern(fields)
    return labels, np.stack([codes, ordinal]) if dated else codes.reshape(2, -1)


def reference_em_step(log: SampleLog, alpha: float) -> float:
    """``em.em_step`` before its deletion: one EM update, the mean responsibility
    over all records.  Kept verbatim as the fixed-point oracle of ``em_estimate``."""
    if len(log) == 0:
        raise ValueError("EM step on an empty log")
    pref, total = _mixture(log.k / log.e_prev, log.n_prev, alpha)
    if (total <= 0).any():
        i = int(np.argmax(total <= 0))
        raise ValueError(
            f"zero mixture density at alpha={alpha} for record {i} "
            f"(k={log.k[i]}, e_prev={log.e_prev[i]}, n_prev={log.n_prev[i]})"
        )
    return float((pref / total).mean())


def reference_em_estimate(log: SampleLog, cfg: EmConfig = EmConfig()) -> EmTrace:
    """``em.em_estimate`` before its split into a set-up and an iteration step
    that writes into two buffers, kept verbatim as the split's oracle."""
    if len(log) == 0:
        raise ValueError("cannot estimate from an empty log")
    if not cfg.keep_zero_indegree:
        log = log.drop_zero_indegree()
        if len(log) == 0:
            raise ValueError("log contains only zero-in-degree records")

    ke = log.k / log.e_prev
    n_prev = log.n_prev.astype(np.float64)
    d, c = _slope_intercept(log)
    trace = EmTrace()
    alpha = cfg.alpha_init
    prev_loglik = _sum_log_factors(log, d * alpha + c, alpha)
    trace.iterations.append((alpha, prev_loglik))
    for _ in range(cfg.max_iter):
        # the mixture densities are the factors the objective at alpha checked
        pref, total = _mixture(ke, n_prev, alpha)
        new_alpha = float((pref / total).mean())
        loglik = _sum_log_factors(log, d * new_alpha + c, new_alpha)
        if loglik < prev_loglik - MONOTONICITY_SLACK:
            raise RuntimeError(
                f"EM objective decreased from {prev_loglik} to {loglik}; "
                "this violates EM monotonicity and indicates a bug"
            )
        trace.iterations.append((new_alpha, loglik))
        delta = abs(new_alpha - alpha)
        alpha, prev_loglik = new_alpha, loglik
        if delta < cfg.epsilon:
            trace.converged = True
            break
    trace.final_alpha = alpha
    return trace


def reference_lockstep_maximize(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``likelihood._maximize`` before its warm start: every row bisects from
    the interval's ends, one score pass per step.  Kept verbatim as the
    differential oracle of the warm-started solver."""
    lo, hi = INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN
    out = np.empty_like(d)
    at_lo = _derivative(d, c, lo, out) <= 0
    at_hi = _derivative(d, c, hi, out) >= 0
    alpha = np.where(at_lo, lo, hi)
    rows = np.flatnonzero(~(at_lo | at_hi))
    if len(rows) < len(d):
        d, c = d[rows], c[rows]
    left, right = np.full(len(rows), lo), np.full(len(rows), hi)
    while len(rows):
        mid = 0.5 * (left + right)
        up = _derivative(d, c, mid[:, None], out[:len(rows)]) > 0
        left, right = np.where(up, mid, left), np.where(up, right, mid)
        done = right - left <= BISECTION_WIDTH
        if done.any():
            alpha[rows[done]] = 0.5 * (left[done] + right[done])
            rows, d, c, left, right = (a[~done] for a in (rows, d, c, left, right))
    return alpha
