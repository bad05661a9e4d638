"""Unit tests for citation-dataset parsing and replay."""

import datetime
import logging
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixnet import SampleLog, SeedSpec
from mixnet.cli import main
from mixnet.ingest import (
    ParseError,
    build_replay,
    load_dataset,
    replay_to_samplelog,
)


@pytest.fixture
def fixture_paths(tmp_path):
    """Small citation corpus with one self-cite, one duplicate, one undated."""
    edges = tmp_path / "edges.txt"
    edges.write_text(
        "# citing cited\n"
        "A Z\n"
        "B A\n"
        "B A\n"      # duplicate
        "C C\n"      # self-citation
        "C A\n"
        "C B\n"
        "X A\n"      # citing paper has no date
        "D C\n"
        "D A\n"
    )
    dates = tmp_path / "dates.txt"
    dates.write_text(
        "# id date\n"
        "A\t2000-01-01\n"
        "B\t2000-02-01\n"
        "C\t2000-03-01\n"
        "D\t2000-04-01\n"
    )
    return edges, dates


class TestLoadDataset:
    def test_clean_counts(self, fixture_paths):
        edges, dates = fixture_paths
        ds = load_dataset(edges, dates)
        assert ds.citation_count == 6
        assert ds.duplicate_edges_dropped == 1
        assert ds.self_citations_dropped == 1
        assert ds.undated_citing_dropped == 1
        assert ds.paper_count == 5  # A B C D plus cited-only Z; X was dropped
        assert ds.dates["A"] == datetime.date(2000, 1, 1)

    def test_bad_date(self, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("A B\n")
        dates = tmp_path / "d.txt"
        dates.write_text("A not-a-date\n")
        with pytest.raises(ParseError, match="bad date"):
            load_dataset(edges, dates)

    def test_bad_edge_row(self, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("A B C\n")
        dates = tmp_path / "d.txt"
        dates.write_text("A\t2000-01-01\n")
        with pytest.raises(ParseError, match="citing cited"):
            load_dataset(edges, dates)

    def test_bad_date_row(self, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("A B\n")
        dates = tmp_path / "d.txt"
        dates.write_text("A 2000-01-01 extra\n")
        with pytest.raises(ParseError, match="id date"):
            load_dataset(edges, dates)

    @pytest.mark.parametrize("rows, message", [
        ("A 2000-01-01\r\n# c\r\nB 2000-02-30\r\nC x y\r\n", r"d.txt:3: bad date '2000-02-30'"),
        ("A 2000-01-01\n\nC x y\nB 2000-02-30\n", r"d.txt:3: expected 'id date', got 'C x y'"),
    ])
    def test_first_bad_date_line_wins(self, tmp_path, rows, message):
        edges = tmp_path / "e.txt"
        edges.write_text("A B\n")
        dates = tmp_path / "d.txt"
        dates.write_bytes(rows.encode())
        with pytest.raises(ParseError, match=message):
            load_dataset(edges, dates)

    def test_bad_edge_line_number_counts_comments(self, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_bytes(b"# c\r\n\r\nA B\r\n  # x\r\nB\tA extra\r\n")
        dates = tmp_path / "d.txt"
        dates.write_text("A\t2000-01-01\n")
        with pytest.raises(ParseError, match=r"e.txt:5: expected 'citing cited', got 'B\\tA extra'"):
            load_dataset(edges, dates)


class TestBuildReplay:
    def test_seed_and_arrivals(self, fixture_paths):
        ds = load_dataset(*fixture_paths)
        seq = build_replay(ds, datetime.date(2000, 1, 31))
        # seed: A (dated before cutoff) plus its citee Z, with the edge A->Z
        assert set(seq.seed.nodes) == {"A", "Z"}
        assert seq.seed.edges == (("A", "Z"),)
        assert [p for p, _ in seq.arrivals] == ["B", "C", "D"]
        assert dict(seq.arrivals)["C"] == ["A", "B"]

    def test_date_then_id_tie_break(self, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("A Z\nC A\nB A\n")
        dates = tmp_path / "d.txt"
        dates.write_text("A\t2000-01-01\nB\t2000-02-01\nC\t2000-02-01\n")
        seq = build_replay(load_dataset(edges, dates), datetime.date(2000, 1, 15))
        assert [p for p, _ in seq.arrivals] == ["B", "C"]

    def test_empty_seed_rejected(self, fixture_paths):
        ds = load_dataset(*fixture_paths)
        with pytest.raises(ValueError, match="no papers dated"):
            build_replay(ds, datetime.date(1990, 1, 1))


class TestReplayToSamplelog:
    def test_records_pinned(self, fixture_paths):
        ds = load_dataset(*fixture_paths)
        seq = build_replay(ds, datetime.date(2000, 1, 31))
        result = replay_to_samplelog(seq)
        log = result.sample_log
        # B cites A (k=0, e=1, n=2); C cites A (k=1) and B (k=0) at e=2, n=3;
        # D cites C (k=0) and A (k=2) at e=4, n=4
        assert np.array_equal(log.k, [0, 1, 0, 0, 2])
        assert np.array_equal(log.e_prev, [1, 2, 2, 4, 4])
        assert np.array_equal(log.n_prev, [2, 3, 3, 4, 4])
        assert np.array_equal(log.step, [1, 2, 2, 3, 3])

    def test_manifest_and_degrees(self, fixture_paths):
        ds = load_dataset(*fixture_paths)
        seq = build_replay(ds, datetime.date(2000, 1, 31))
        result = replay_to_samplelog(seq)
        assert result.manifest == {
            "seed_nodes": 2, "seed_edges": 1, "arrivals": 3,
            "final_nodes": 5, "final_edges": 6,
        }
        # final in-degrees: A=3, Z=1, B=1, C=1, D=0 (sorted)
        assert np.array_equal(result.in_degrees, [0, 1, 1, 1, 3])


# --- the dict-based replay, kept as an independent oracle -----------------------

def oracle_load(edge_path, dates_path):
    """Line-by-line parse and clean: (edges, dates, duplicates, self-cites, undated)."""
    dates = {}
    with open(dates_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{dates_path}:{lineno}: expected 'id date', got {line!r}")
            pid, datestr = parts
            try:
                date = datetime.date.fromisoformat(datestr)
            except ValueError as exc:
                raise ParseError(f"{dates_path}:{lineno}: bad date {datestr!r}") from exc
            dates[pid] = date
    edges, seen = [], set()
    dup = selfcite = undated = 0
    with open(edge_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{edge_path}:{lineno}: expected 'citing cited', got {line!r}")
            u, v = parts
            if u == v:
                selfcite += 1
            elif (u, v) in seen:
                dup += 1
            elif u not in dates:
                undated += 1
            else:
                seen.add((u, v))
                edges.append((u, v))
    return edges, dates, dup, selfcite, undated


def oracle_build(edges, dates, cutoff):
    """(seed, arrivals) from cleaned id pairs, by sets, dicts and sorted()."""
    cites, papers = {}, set()
    for u, v in edges:
        cites.setdefault(u, []).append(v)
        papers.update((u, v))
    seed_papers = {p for p in papers if p in dates and dates[p] <= cutoff}
    if not seed_papers:
        raise ValueError(f"no papers dated at or before {cutoff}")
    seed_nodes = set(seed_papers)
    for p in seed_papers:
        seed_nodes.update(cites.get(p, []))
    seed_edges = [(u, v) for u in sorted(seed_papers) for v in cites.get(u, [])]
    arrivals = sorted((p for p in papers if p in dates and p not in seed_nodes),
                      key=lambda p: (dates[p], p))
    return (SeedSpec(tuple(sorted(seed_nodes)), tuple(seed_edges)),
            [(p, cites.get(p, [])) for p in arrivals])


def oracle_replay(seed, arrivals):
    """(k, e_prev, n_prev, step columns, sorted final in-degrees, manifest)."""
    in_degree = {v: 0 for v in seed.nodes}
    for _, v in seed.edges:
        in_degree[v] += 1
    e_count = len(seed.edges)
    columns = []
    for t, (paper, cited) in enumerate(arrivals, start=1):
        n_prev = len(in_degree)
        columns += [(in_degree.get(v, 0), e_count, n_prev, t) for v in cited]
        in_degree.setdefault(paper, 0)
        for v in cited:
            in_degree[v] = in_degree.get(v, 0) + 1
        e_count += len(cited)
    manifest = {"seed_nodes": len(seed.nodes), "seed_edges": len(seed.edges),
                "arrivals": len(arrivals), "final_nodes": len(in_degree),
                "final_edges": e_count}
    return [list(c) for c in zip(*columns)] or [[]] * 4, sorted(in_degree.values()), manifest


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, f"{type(exc).__name__}: {exc}"


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


IDS = ["a", "b", "c", "d", "e", "p#1", "x#", "10", "9", "Z"]
DAYS = [datetime.date(2000, 1, d) for d in (1, 1, 2, 3, 3, 4)]


@st.composite
def corpora(draw):
    """(edge text, dates text, cutoff) mixing every cleaning and ordering case."""
    pair = st.tuples(st.sampled_from(IDS), st.sampled_from(IDS))
    pairs = draw(st.lists(pair, min_size=4, max_size=40))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))
    # most ids dated, a few twice (the last date wins), some never
    dated = [p for p in IDS if draw(st.integers(0, 4))]
    dated += draw(st.lists(st.sampled_from(IDS), max_size=2))
    date_rows = [f"{p}\t{draw(st.sampled_from(DAYS)).isoformat()}" for p in dated]
    # str.split() whitespace that is no line break when a file is read
    separators = st.sampled_from([" ", "\t", " \t ", "\x0c", "\x1c", "\x85", "\u2028"])
    indents = st.sampled_from(["", "", " ", "\t "])
    lines = [f"{draw(indents)}{u}{draw(separators)}{v}" for u, v in pairs]
    for rows in (lines, date_rows):
        for _ in range(draw(st.integers(0, 3))):
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(
                ["# comment", "", "  ", "#x y", "  # indented"])))
        for _ in range(draw(st.sampled_from([0] * 7 + [1, 1, 2]))):  # lines to reject
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(
                ["a", "a b c", "a 2000-13-01", "b not-a-date"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    cutoff = draw(st.sampled_from(DAYS[:4]))
    return newline.join(lines) + newline, newline.join(date_rows) + newline, cutoff


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(corpus=corpora())
    def test_replay_matches_oracle(self, corpus):
        edge_text, dates_text, cutoff = corpus
        handler = _Records()
        logging.getLogger("mixnet.ingest").addHandler(handler)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                edges, dates = os.path.join(tmp, "e.txt"), os.path.join(tmp, "d.txt")
                for path, text in ((edges, edge_text), (dates, dates_text)):
                    with open(path, "w", encoding="utf-8", newline="") as fh:
                        fh.write(text)
                expected, error = _outcome(oracle_load, edges, dates)
                ds, new_error = _outcome(load_dataset, edges, dates)
        finally:
            logging.getLogger("mixnet.ingest").removeHandler(handler)
        assert new_error == error
        if error:
            return
        pairs, dated, dup, selfcite, undated = expected
        assert (ds.edges, ds.dates) == (pairs, dated)
        assert (ds.duplicate_edges_dropped, ds.self_citations_dropped,
                ds.undated_citing_dropped) == (dup, selfcite, undated)
        assert ds.citation_count == len(pairs)
        assert ds.paper_count == len({p for pair in pairs for p in pair})
        assert handler.messages == [
            f"dropped {count} {what}" for count, what in (
                (dup, "duplicate citation pairs"), (selfcite, "self-citations"),
                (undated, "citations from papers without a date")) if count]

        built, error = _outcome(oracle_build, pairs, dated, cutoff)
        seq, new_error = _outcome(build_replay, ds, cutoff)
        assert new_error == error
        if error:
            return
        assert (seq.seed, seq.arrivals) == built

        columns, in_degrees, manifest = oracle_replay(*built)
        expected_log, error = _outcome(SampleLog, *map(np.array, columns))
        result, new_error = _outcome(replay_to_samplelog, seq)
        assert new_error == error
        if error:
            return
        log = result.sample_log
        for name in ("k", "e_prev", "n_prev", "step"):
            assert np.array_equal(getattr(log, name), getattr(expected_log, name)), name
            assert getattr(log, name).dtype == np.int64
        assert result.in_degrees.tolist() == in_degrees
        assert result.manifest == manifest
        assert result.citations_per_step.tolist() == [len(c) for _, c in built[1]]



ASCII_IDS = ["a", "b", "ab", "b\x7f", "10", "9"]
#: ids with 1-, 2- and 3-byte code points, some extending an ASCII id
WIDE_IDS = ["é", "aé", "中", "a中", "𝔘", "b𝔘"]


class TestMixedWidths:
    """Both files' ids are interned in one pass, so an ASCII file's code units
    are widened to the other file's before their keys are compared."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), wide=st.sampled_from(["edges", "dates"]))
    def test_one_non_ascii_file_matches_oracle(self, data, wide):
        def ids(name):
            return st.sampled_from(ASCII_IDS + WIDE_IDS if name == wide else ASCII_IDS)

        pairs = data.draw(st.lists(st.tuples(ids("edges"), ids("edges")), max_size=30))
        dated = data.draw(st.lists(ids("dates"), max_size=15))
        # the wide file holds at least one non-ASCII id
        forced = data.draw(st.sampled_from(WIDE_IDS))
        if wide == "edges":
            pairs.append((forced, data.draw(ids("dates"))))
        else:
            dated.append(forced)
        days = data.draw(st.lists(st.sampled_from(DAYS), min_size=len(dated),
                                  max_size=len(dated)))
        with tempfile.TemporaryDirectory() as tmp:
            edges, dates = os.path.join(tmp, "e.txt"), os.path.join(tmp, "d.txt")
            for path, rows in ((edges, [f"{u} {v}" for u, v in pairs]),
                               (dates, [f"{p}\t{d.isoformat()}" for p, d in zip(dated, days)])):
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write("".join(row + "\n" for row in rows))
            with open(edges, encoding="utf-8") as e, open(dates, encoding="utf-8") as d:
                assert [e.read().isascii(), d.read().isascii()] == [wide == "dates",
                                                                     wide == "edges"]
            want_edges, want_dates, *counts = oracle_load(edges, dates)
            ds = load_dataset(edges, dates)
        assert (ds.edges, ds.dates) == (want_edges, want_dates)
        assert [ds.duplicate_edges_dropped, ds.self_citations_dropped,
                ds.undated_citing_dropped] == counts
        assert ds.labels == sorted({p for pair in pairs for p in pair} | set(dated))

class TestCiteFuzz:
    FRAGMENTS = ["a", "b", "c", "#", " ", "\t", "\n", "\r\n", "2000-01-01", "2000-01-02",
                 "2000-02-30", "x", "é", "\x00", "\x0c", " "]

    @settings(max_examples=150, deadline=None)
    @given(
        edge_text=st.one_of(st.text(max_size=80),
                            st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)),
        dates_text=st.one_of(st.text(max_size=80),
                             st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)),
    )
    def test_exits_0_1_or_2(self, edge_text, dates_text):
        with tempfile.TemporaryDirectory() as tmp:
            edges, dates = os.path.join(tmp, "e.txt"), os.path.join(tmp, "d.txt")
            for path, text in ((edges, edge_text), (dates, dates_text)):
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(["cite", edges, dates, "--cutoff", "2000-01-01", "--m", "2",
                             "--out", os.path.join(tmp, "out")])
        assert code in (0, 1, 2)
