"""End-to-end tests of the command-line pipelines."""

import datetime
import hashlib
import importlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixnet
from mixnet import (ModelParams, SampleLog, degree_dist, em_estimate, likelihood,
                    mle_estimate, netmodel)
from mixnet.cli import build_parser, main
from mixnet.likelihood import NoInformationError

from conftest import head_sum_ccdf, random_log, reference_em_trace_csv


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def run(argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_log_and_manifest(self, tmp_path, capsys):
        code = run(["simulate", "complete:4", "--m", 2, "--m-hat", 1,
                    "--alpha", 0.5, "--steps", 50, "--rng-seed", 3,
                    "--out", tmp_path])
        assert code == 0
        assert "rng seed: 3" in capsys.readouterr().out
        lines = (tmp_path / "samplelog.csv").read_text().strip().splitlines()
        assert lines[0] == "step,k,e_prev,n_prev"
        assert len(lines) == 1 + 50 * 2
        manifest = read_manifest(tmp_path)
        assert manifest["subcommand"] == "simulate"
        assert manifest["params"]["nodes"] == 54
        assert manifest["params"]["edges"] == 12 + 50 * 3

    @pytest.mark.parametrize("alpha,digest", [
        (0, "6b4ae8c6223128fd27587a45d2e237ae8392d4cfeb8427afcf08bea827cbbc81"),
        (0.6, "8fd4cd547de0b9fff4a3890d612b8ad5a0243eedeccb57088008a5ad7e856afd"),
        (1, "07b12a2264313243d1a4ea58f5f54a72ae3f378d3f5e53bb7713dec196b1a5c4"),
    ])
    def test_pinned_samplelog(self, tmp_path, alpha, digest):
        # digests of the samplelog.csv that conftest's reference_grow and the
        # per-row %d writer give; 0.6 and 1 re-pinned for edges in draw order
        # (at 0 no draw reads a slot)
        assert run(["simulate", "complete:3", "--m", 5, "--m-hat", 3, "--alpha", alpha,
                    "--steps", 2000, "--rng-seed", 1, "--out", tmp_path]) == 0
        assert hashlib.sha256((tmp_path / "samplelog.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("alpha", [0.6, 1])
    def test_edge_list_replays_samplelog_k(self, tmp_path, alpha):
        # each step's out-edges are its records in order, so replaying the
        # edge list from the seed gives every record's in-degree k
        steps, m, m_hat = 2000, 5, 3
        assert run(["simulate", "complete:3", "--m", m, "--m-hat", m_hat, "--alpha", alpha,
                    "--steps", steps, "--rng-seed", 1, "--export-graph", "--out", tmp_path]) == 0
        edges = [tuple(map(int, line.split()))
                 for line in (tmp_path / "graph.edgelist").read_text().splitlines()]
        in_degree = [2, 2, 2]  # K3
        at, ks = 6, []
        for node in range(3, 3 + steps):
            outs = edges[at:at + min(m, node)]
            responses = edges[at + len(outs):at + len(outs) + min(m_hat, node)]
            at += len(outs) + len(responses)
            assert {u for u, _ in outs} == {node} and {v for _, v in responses} == {node}
            ks += [in_degree[v] for _, v in outs]
            for _, v in outs:
                in_degree[v] += 1
            in_degree.append(len(responses))
        assert at == len(edges)
        log = SampleLog.from_csv(tmp_path / "samplelog.csv")
        assert ks == log.k.tolist()

    def test_export_graph(self, tmp_path):
        run(["simulate", "complete:4", "--m", 1, "--steps", 10,
             "--export-graph", "--out", tmp_path])
        lines = (tmp_path / "graph.edgelist").read_text().strip().splitlines()
        assert len(lines) == 12 + 10
        assert "seed_labels" not in read_manifest(tmp_path)["params"]  # ids are the labels

    def test_export_graph_names_file_seed_nodes(self, tmp_path):
        seed = tmp_path / "seed.edgelist"
        seed.write_text("paperB paperA\npaperC paperA\npaperC paperB\npaperA paperC\n")
        out = tmp_path / "out"
        assert run(["simulate", seed, "--m", 2, "--m-hat", 1, "--steps", 5,
                    "--export-graph", "--out", out]) == 0
        labels = read_manifest(out)["params"]["seed_labels"]
        assert labels == ["paperB", "paperA", "paperC"]
        edges = [line.split() for line in (out / "graph.edgelist").read_text().splitlines()]
        named = [(labels[int(u)], labels[int(v)]) for u, v in edges[:4]]
        assert named == [("paperB", "paperA"), ("paperC", "paperA"), ("paperC", "paperB"),
                         ("paperA", "paperC")]

    def test_invalid_alpha_exits_1(self, tmp_path, capsys):
        code = run(["simulate", "complete:4", "--alpha", 1.5, "--out", tmp_path])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_seed_file_exits_2(self, tmp_path, capsys):
        code = run(["simulate", tmp_path / "nope.edgelist", "--out", tmp_path])
        assert code == 2

    def test_steps_past_record_bound_exit_1_before_growing(self, tmp_path, capsys):
        # 10**9 steps of 8 edges take e_prev * n_prev past 2**53; the arrays
        # sized by steps would need tens of gigabytes
        out = tmp_path / "out"
        with mock.patch.object(netmodel, "_Growth", side_effect=AssertionError("grew")):
            assert run(["simulate", "complete:5", "--m", 5, "--m-hat", 3,
                        "--steps", 10**9, "--out", out]) == 1
        assert "1000000000 steps take e_prev * n_prev past 2**53" in capsys.readouterr().err
        assert not out.exists()


class TestEstimate:
    @pytest.fixture
    def sim_dir(self, tmp_path):
        out = tmp_path / "sim"
        run(["simulate", "complete:4", "--m", 3, "--m-hat", 2, "--alpha", 0.6,
             "--steps", 400, "--rng-seed", 1, "--out", out])
        return out

    def test_both_methods(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "est"
        code = run(["estimate", sim_dir / "samplelog.csv", "--out", out])
        assert code == 0
        result = json.loads((out / "estimate.json").read_text())
        assert 0.0 < result["mle"]["alpha_hat"] < 1.0
        assert result["em"]["converged"]
        assert abs(result["mle"]["alpha_hat"] - result["em"]["alpha_hat"]) < 0.05
        assert (out / "em_trace.csv").exists()
        printed = json.loads(capsys.readouterr().out)
        assert printed == result

    @pytest.mark.parametrize("source", ["random", "simulated"])
    def test_em_trace_matches_reference_writer(self, sim_dir, tmp_path, source):
        # em_trace.csv holds the bytes EmTrace.to_csv wrote for em_estimate
        # of the same log, a row per iterate from alpha_init on
        log_path = sim_dir / "samplelog.csv"
        if source == "random":
            log_path = tmp_path / "random.csv"
            random_log(random.Random(4)).to_csv(log_path)
        out, expected = tmp_path / "est", tmp_path / "expected.csv"
        assert run(["estimate", log_path, "--method", "em", "--out", out]) == 0
        trace = em_estimate(SampleLog.from_csv(log_path))
        reference_em_trace_csv(trace, expected)
        written = (out / "em_trace.csv").read_bytes()
        assert written == expected.read_bytes()
        lines = written.decode().strip().splitlines()
        assert lines[0] == "iter,alpha,loglik"
        assert len(lines) == len(trace.iterations) + 1

    def test_mle_only(self, sim_dir, tmp_path):
        out = tmp_path / "est"
        run(["estimate", sim_dir / "samplelog.csv", "--method", "mle", "--out", out])
        result = json.loads((out / "estimate.json").read_text())
        assert "em" not in result
        assert not (out / "em_trace.csv").exists()

    def test_prefix_trace(self, sim_dir, tmp_path):
        out = tmp_path / "est"
        run(["estimate", sim_dir / "samplelog.csv", "--method", "mle",
             "--trace", "--stride", 100, "--out", out])
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,alpha_hat"
        assert len(lines) == 1 + 4  # t = 100, 200, 300, 400

    def test_snapshot_trace(self, sim_dir, tmp_path):
        out = tmp_path / "est"
        assert run(["estimate", sim_dir / "samplelog.csv", "--method", "mle",
                    "--trace", "--snapshot-mode", "--out", out]) == 0
        log = SampleLog.from_csv(sim_dir / "samplelog.csv")
        expected = ["t,alpha_hat"]
        for t in range(1, log.n_steps + 1):
            single = SampleLog.from_steps([log.step_records(t)])
            try:
                expected.append(f"{t},{mle_estimate(single).alpha_hat!r}")
            except NoInformationError:
                continue  # step 1 from the complete seed: every k*n = e
        assert len(expected) == 1 + 399
        assert (out / "trace.csv").read_text().splitlines() == expected

    def test_missing_log_exits_2(self, tmp_path):
        assert run(["estimate", tmp_path / "nope.csv", "--out", tmp_path]) == 2

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_1_exits_1(self, sim_dir, tmp_path, capsys, stride):
        out = tmp_path / "est"
        assert run(["estimate", sim_dir / "samplelog.csv", "--trace", "--stride", stride,
                    "--out", out]) == 1
        assert "stride must be >= 1" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("method", ["em", "both"])
    def test_em_without_information_exits_1(self, tmp_path, capsys, method):
        # EM drops the k = 0 record, and the other has e = k*n: no alpha is
        # better than another, so nothing is written rather than alpha_init
        log_path, out = tmp_path / "flat.csv", tmp_path / "est"
        log_path.write_text("step,k,e_prev,n_prev\n1,0,5,3\n2,1,4,4\n")
        assert run(["estimate", log_path, "--method", method, "--out", out]) == 1
        assert capsys.readouterr().err == \
            "mixnet: error: all records are degenerate; likelihood is flat in alpha\n"
        assert not out.exists()
        assert run(["estimate", log_path, "--keep-zero-indegree", "--out", out]) == 0

    @pytest.mark.parametrize("row,message", [
        ("1,3000000000,4000000000,4000000000", "2**53"),
        ("1,1,99999999999999999999999,3", "malformed row"),
    ])
    def test_out_of_range_counts_exit_1(self, tmp_path, capsys, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"step,k,e_prev,n_prev\n{row}\n")
        assert run(["estimate", bad, "--out", tmp_path / "est"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mixnet: error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stride,ts", [(1, [2, 3]), (2, [2]), (3, [3]), (4, [])])
    def test_prefix_trace_starts_at_first_logged_step(self, tmp_path, stride, ts):
        # the first arrival cites nothing, so the replayed log starts at step 2
        edges, dates, cite = tmp_path / "e.txt", tmp_path / "d.txt", tmp_path / "cite"
        edges.write_text("A Z\nC A\nC B\nD A\nD C\n")
        dates.write_text("A\t2000-01-01\nB\t2000-02-01\nC\t2000-03-01\nD\t2000-04-01\n")
        assert run(["cite", edges, dates, "--cutoff", "2000-01-15", "--m", 2,
                    "--out", cite]) == 0
        log = SampleLog.from_csv(cite / "samplelog.csv")
        assert (log.step[0], log.n_steps) == (2, 3)
        out = tmp_path / "est"
        assert run(["estimate", cite / "samplelog.csv", "--trace", "--stride", stride,
                    "--out", out]) == 0
        rows = [line.split(",") for line in (out / "trace.csv").read_text().split()[1:]]
        assert [int(t) for t, _ in rows] == ts
        assert [float(a) for _, a in rows] == [mle_estimate(log.prefix(t)).alpha_hat
                                               for t in ts]

    @pytest.mark.parametrize("method", ["both", "mle", "em"])
    def test_trace_without_information_exits_1_before_writing(self, tmp_path, capsys, method):
        # step 1 from a complete seed has k*n = e in every record: the prefix
        # at t = 1 is flat in alpha
        sim, out = tmp_path / "sim", tmp_path / "est"
        assert run(["simulate", "complete:3", "--m", 5, "--m-hat", 3, "--alpha", 0.6,
                    "--steps", 2000, "--rng-seed", 1, "--out", sim]) == 0
        assert run(["estimate", sim / "samplelog.csv", "--trace", "--stride", 1,
                    "--method", method, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mixnet: error:")
        assert "all records are degenerate; likelihood is flat in alpha" in err
        assert not out.exists()

    def test_blank_body_exits_1_without_warning(self, tmp_path, capsys):
        blank = tmp_path / "blank.csv"
        blank.write_text("step,k,e_prev,n_prev\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["estimate", blank, "--out", tmp_path / "est"]) == 1
        assert capsys.readouterr().err == "mixnet: error: cannot estimate from an empty log\n"

    def test_zero_n_prev_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,k,e_prev,n_prev\n1,1,6,3\n2,0,6,0\n")
        assert run(["estimate", bad, "--out", tmp_path / "est"]) == 1
        assert "n_prev" in capsys.readouterr().err
        assert not (tmp_path / "est" / "estimate.json").exists()


class TestDist:
    def test_theory_only(self, tmp_path):
        code = run(["dist", "--m", 5, "--m-hat", 3, "--alpha", 0.6,
                    "--k-max", 30, "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "theory.csv").read_text().strip().splitlines()
        assert lines[0] == "k,pmf,ccdf"
        assert len(lines) == 1 + 28  # k = 3 .. 30
        k, pmf, ccdf = lines[1].split(",")
        assert k == "3"
        assert float(pmf) == pytest.approx(8.0 / 33.0, rel=1e-12)
        assert float(ccdf) == 1.0
        assert not (tmp_path / "empirical.csv").exists()

    def test_ensemble(self, tmp_path):
        code = run(["dist", "--m", 2, "--m-hat", 1, "--alpha", 0.5,
                    "--k-max", 20, "--ensemble", 3, "--steps", 200,
                    "--seed-spec", "complete:3", "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "empirical.csv").read_text().strip().splitlines()
        assert lines[0] == "k,ccdf_empirical"
        assert len(lines) == 1 + 21
        assert float(lines[1].split(",")[1]) == 1.0

    @pytest.mark.parametrize("ensemble,workers,pools", [(2, 64, [2]), (1, 8, []), (3, 2, [2])])
    def test_pool_capped_at_ensemble_size(self, tmp_path, monkeypatch, ensemble, workers,
                                          pools):
        import concurrent.futures

        seen = []

        class SerialPool:
            """Records its worker count and runs the jobs in this process."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        assert run(["dist", "--m", 2, "--m-hat", 1, "--alpha", 0.5, "--k-max", 10,
                    "--ensemble", ensemble, "--workers", workers, "--steps", 30,
                    "--out", tmp_path]) == 0
        assert seen == pools
        assert read_manifest(tmp_path)["params"]["workers"] == workers

    @pytest.mark.parametrize("alpha", [0, 0.6, 1])
    def test_pool_matches_serial(self, tmp_path, alpha):
        outputs = []
        for workers in (2, 1):
            out = tmp_path / f"w{workers}"
            assert run(["dist", "--m", 5, "--m-hat", 3, "--alpha", alpha, "--k-max", 30,
                        "--ensemble", 3, "--steps", 300, "--workers", workers,
                        "--out", out]) == 0
            outputs.append((out / "empirical.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_k_max_below_support_exits_1(self, tmp_path):
        assert run(["dist", "--m", 5, "--m-hat", 3, "--alpha", 0.6,
                    "--k-max", 2, "--out", tmp_path]) == 1

    def test_deep_tail_at_fig3(self, tmp_path):
        # the CCDF falls below 1e-8 here, where a tail summation used to give up
        assert run(["dist", "--m", 5, "--m-hat", 3, "--alpha", 0.6,
                    "--k-max", 10000, "--out", tmp_path]) == 0
        last = (tmp_path / "theory.csv").read_text().strip().splitlines()[-1]
        k, _, ccdf = last.split(",")
        assert k == "10000"
        expect = head_sum_ccdf(ModelParams(m=5, m_hat=3, alpha=0.6), 10000)[-1]
        assert float(ccdf) == pytest.approx(float(expect), rel=1e-12)


class TestCite:
    @pytest.fixture
    def dataset(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("A Z\nB A\nC A\nC B\nD C\nD A\nE A\nE B\nE C\n")
        dates = tmp_path / "dates.txt"
        dates.write_text(
            "A\t2000-01-01\nB\t2000-02-01\nC\t2000-03-01\n"
            "D\t2000-04-01\nE\t2000-05-01\n"
        )
        return edges, dates

    def test_pipeline(self, dataset, tmp_path, capsys):
        edges, dates = dataset
        out = tmp_path / "cite"
        code = run(["cite", edges, dates, "--cutoff", "2000-01-31",
                    "--m", 2, "--m-hat", 0, "--out", out])
        assert code == 0
        replay = json.loads((out / "replay_manifest.json").read_text())
        assert replay["seed_nodes"] == 2
        assert replay["arrivals"] == 4
        estimates = json.loads((out / "estimates.json").read_text())
        assert "alpha_hat" in estimates["mle"]
        assert "alpha_hat" in estimates["em"]
        assert estimates["mean_citations_per_arrival"] == pytest.approx(8 / 4)
        ccdf_lines = (out / "ccdf.csv").read_text().strip().splitlines()
        assert ccdf_lines[0] == "k,ccdf_empirical,ccdf_theory_mle,ccdf_theory_em"
        printed = json.loads(capsys.readouterr().out)
        assert printed["final_nodes"] == replay["final_nodes"]

    def test_estimate_near_alpha_1(self, tmp_path):
        # the corpus of test_ingest.py: EM puts alpha within 1e-7 of 1 at m_hat = 0
        edges, dates, out = tmp_path / "e.txt", tmp_path / "d.txt", tmp_path / "out"
        edges.write_text("# citing cited\nA Z\nB A\nB A\nC C\nC A\nC B\nX A\nD C\nD A\n")
        dates.write_text("# id date\nA\t2000-01-01\nB\t2000-02-01\nC\t2000-03-01\n"
                         "D\t2000-04-01\n")
        assert run(["cite", edges, dates, "--cutoff", "2000-01-31", "--m", 2,
                    "--out", out]) == 0
        assert json.loads((out / "estimates.json").read_text())["em"]["alpha_hat"] > 1 - 1e-7
        rows = [line.split(",") for line in (out / "ccdf.csv").read_text().split()[1:]]
        theory_em = [float(r[3]) for r in rows]
        assert theory_em[0] == 1.0 and all(0.0 < f < 1.0 for f in theory_em[1:])

    def test_missing_dataset_exits_2(self, tmp_path):
        assert run(["cite", tmp_path / "no-e.txt", tmp_path / "no-d.txt",
                    "--cutoff", "2000-01-01", "--out", tmp_path]) == 2

    def test_negative_k_max_exits_1_before_writing(self, dataset, tmp_path, capsys):
        edges, dates = dataset
        out = tmp_path / "cite"
        code = run(["cite", edges, dates, "--cutoff", "2000-01-31", "--k-max", -3,
                    "--out", out])
        assert code == 1
        assert "k-max must be >= 0 (0: data max)" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @staticmethod
    def pinned_corpus():
        """Edge and date file text of a 60-paper corpus with every cleaning branch.

        It has duplicate pairs (one from an undated paper), self-citations,
        an undated citing and an undated cited-only paper, dated papers that
        cite nothing (empty steps), citations of later papers, three papers
        a day, a dated id without citations, an id with '#', comments and
        blank lines in the middle, stray whitespace and CRLF line endings.
        """
        rng = random.Random(20240601)
        ids = [f"p{i}" for i in range(60)]
        ids[17] = "x#17"
        start = datetime.date(2000, 1, 1)
        lines = ["# citing\tcited"]
        for i in range(1, 60):
            if i % 7 == 0:
                continue
            for j in rng.sample(range(i), min(i, rng.randint(1, 4))):
                lines.append(f"{ids[i]}\t{ids[j]}")
            if i % 9 == 0 and i + 3 < 60:
                lines.append(f"{ids[i]} {ids[i + 3]}")
            if i % 11 == 0:
                lines.append(lines[-1])
                lines.append(f"{ids[i]} {ids[i]}")
                lines.append("# a comment in the middle")
                lines.append("")
        lines += ["u1 p3", "u1 p4", "u1 p3", "p20 u2", "p21 u2", "  p22\tu2  "]
        dates = [f"{ids[i]}\t{(start + datetime.timedelta(days=i // 3)).isoformat()}"
                 for i in range(60)]
        dates.insert(10, "# dates may carry comments")
        dates.append("ghost\t2000-01-05")
        return "\r\n".join(lines) + "\r\n", "\n".join(dates) + "\n"

    def test_pinned_outputs(self, tmp_path):
        # digests of the outputs of the dict-based replay this one replaced, except
        # ccdf.csv, whose theory columns now come from the closed tail sum over a
        # pmf ratio that keeps (1 - alpha) as one factor
        edge_text, dates_text = self.pinned_corpus()
        edges, dates, out = tmp_path / "e.txt", tmp_path / "d.txt", tmp_path / "out"
        edges.write_bytes(edge_text.encode())
        dates.write_bytes(dates_text.encode())
        assert run(["cite", edges, dates, "--cutoff", "2000-01-02", "--m", 3,
                    "--out", out]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("samplelog.csv", "estimates.json", "ccdf.csv",
                                "replay_manifest.json")}
        assert digests == {
            "samplelog.csv":
                "71a36960c00645364691de6c22a94f378add08eb45e75aecc3815709e5781c7f",
            "estimates.json":
                "a0c565c3cd123e6912d10d9cdac1d7fe6b2b79851bf81f5c611d129ef7b03f45",
            "ccdf.csv":
                "33dd3f1a8952819b58c38ab9e9ed8b3aacdfa355fc4d20f55c3d90ada2f4de80",
            "replay_manifest.json":
                "5819af36460dd94a7527fe9a6edae33563b4b32e5b220439c64c029b583ac251",
        }

    @pytest.mark.parametrize("flags", [["--m-hat", 5, "--k-max", 3], ["--m-hat", 12]],
                             ids=["k-max-below-m-hat", "data-max-below-m-hat"])
    def test_overlay_below_support_is_one(self, tmp_path, flags):
        # the pinned corpus's largest in-degree is 9
        edge_text, dates_text = self.pinned_corpus()
        edges, dates, out = tmp_path / "e.txt", tmp_path / "d.txt", tmp_path / "out"
        edges.write_bytes(edge_text.encode())
        dates.write_bytes(dates_text.encode())
        assert run(["cite", edges, dates, "--cutoff", "2000-01-02", "--m", 12, *flags,
                    "--out", out]) == 0
        rows = [line.split(",") for line in (out / "ccdf.csv").read_text().split()[1:]]
        assert len(rows) == 1 + (3 if "--k-max" in flags else 9)
        assert all(r[2] == r[3] == "1.0" for r in rows)

    def test_cutoff_without_arrival_citations_exits_1_before_writing(self, tmp_path, capsys):
        edge_text, dates_text = self.pinned_corpus()
        edges, dates, out = tmp_path / "e.txt", tmp_path / "d.txt", tmp_path / "out"
        edges.write_bytes(edge_text.encode())
        dates.write_bytes(dates_text.encode())
        assert run(["cite", edges, dates, "--cutoff", "2100-01-01", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mixnet: error:")
        assert "no citations from papers dated after 2100-01-01" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        ([], "log contains only zero-in-degree records"),
        (["--drop-zero-indegree-mle", "--keep-zero-indegree-em"],
         "cannot estimate from an empty log"),
    ], ids=["em", "mle"])
    def test_zero_indegree_arrivals_exit_1_before_writing(self, tmp_path, capsys, flags,
                                                          message):
        # each arrival cites a paper cited by no one before it: every record has k = 0
        edges, dates, out = tmp_path / "e.txt", tmp_path / "d.txt", tmp_path / "out"
        edges.write_text("A Z\nB A\nC B\n")
        dates.write_text("A\t2000-01-01\nB\t2000-02-01\nC\t2000-03-01\n")
        assert run(["cite", edges, dates, "--cutoff", "2000-01-15", "--m", 2, *flags,
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mixnet: error:") and message in err
        assert not out.exists()

    def test_rerun_from_manifest_params(self, tmp_path):
        edge_text, dates_text = self.pinned_corpus()
        edges, dates = tmp_path / "e.txt", tmp_path / "d.txt"
        edges.write_bytes(edge_text.encode())
        dates.write_bytes(dates_text.encode())
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["cite", edges, dates, "--cutoff", "2000-01-02", "--m", 3,
                    "--k-max", 7, "--drop-zero-indegree-mle", "--out", first]) == 0
        p = read_manifest(first)["params"]
        argv = ["cite", p["edges"], p["dates"], "--cutoff", p["cutoff"],
                "--m", p["m"], "--m-hat", p["m_hat"], "--epsilon", p["epsilon"],
                "--k-max", p["k_max"],
                "--keep-zero-indegree-mle" if p["keep_zero_indegree_mle"]
                else "--drop-zero-indegree-mle"]
        if p["keep_zero_indegree_em"]:
            argv.append("--keep-zero-indegree-em")
        assert run(argv + ["--out", second]) == 0
        ccdf = (first / "ccdf.csv").read_bytes()
        assert len(ccdf.splitlines()) == 1 + 8  # k = 0 .. 7, below the data max
        assert (second / "ccdf.csv").read_bytes() == ccdf


class TestConfig:
    def test_config_sets_defaults(self, tmp_path):
        cfg = tmp_path / "mixnet.cfg"
        cfg.write_text("alpha=0.8\nsteps=20\n")
        out = tmp_path / "out"
        run(["--config", cfg, "simulate", "complete:4", "--out", out])
        manifest = read_manifest(out)
        assert manifest["params"]["alpha"] == 0.8
        assert manifest["params"]["steps"] == 20

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "mixnet.cfg"
        cfg.write_text("alpha=0.8\n")
        out = tmp_path / "out"
        run(["--config", cfg, "simulate", "complete:4", "--alpha", 0.3,
             "--steps", 10, "--out", out])
        assert read_manifest(out)["params"]["alpha"] == 0.3

    def test_boolean_value(self, tmp_path):
        cfg = tmp_path / "mixnet.cfg"
        cfg.write_text("export-graph=true\n")
        out = tmp_path / "out"
        run(["--config", cfg, "simulate", "complete:4", "--steps", 5, "--out", out])
        assert (out / "graph.edgelist").exists()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "mixnet.cfg"
        cfg.write_text("no equals sign\n")
        code = run(["--config", cfg, "simulate", "complete:4", "--out", tmp_path])
        assert code == 1

    @pytest.mark.parametrize("argv,line,message", [
        (["simulate", "complete:4"], "aplha=0.9", "unknown key 'aplha'"),
        (["estimate", "log.csv"], "method=bogus", "method: expected one of mle/em/both"),
        (["simulate", "complete:4"], "export-graph=maybe", "export_graph: expected one of"),
        (["simulate", "complete:4"], "steps=ten", "steps: invalid literal"),
    ], ids=["unknown-key", "outside-choices", "bad-switch", "bad-int"])
    def test_bad_value_exits_1(self, tmp_path, capsys, argv, line, message):
        cfg = tmp_path / "mixnet.cfg"
        cfg.write_text(f"steps=5\n{line}\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, *argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mixnet: error: {cfg}:2: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("line,flags", [
        ("drop-zero-indegree-mle=yes", ["--drop-zero-indegree-mle"]),
        ("drop_zero_indegree_mle=on", ["--drop-zero-indegree-mle"]),
        ("drop-zero-indegree-mle=no", []),
        ("keep-zero-indegree-mle=no", ["--drop-zero-indegree-mle"]),
        ("keep-zero-indegree-mle=yes", ["--keep-zero-indegree-mle"]),
    ])
    def test_keys_are_option_names(self, tmp_path, line, flags):
        # a key names its option, not the attribute the option stores into
        edge_text, dates_text = TestCite.pinned_corpus()
        edges, dates, cfg = tmp_path / "e.txt", tmp_path / "d.txt", tmp_path / "mixnet.cfg"
        edges.write_bytes(edge_text.encode())
        dates.write_bytes(dates_text.encode())
        cfg.write_text(line + "\n")
        argv = ["cite", edges, dates, "--cutoff", "2000-01-02", "--m", 3]
        by_config, by_flag = tmp_path / "config", tmp_path / "flag"
        assert run(["--config", cfg, *argv, "--out", by_config]) == 0
        assert run([*argv, *flags, "--out", by_flag]) == 0
        keep = "--drop-zero-indegree-mle" not in flags
        assert read_manifest(by_config)["params"]["keep_zero_indegree_mle"] is keep
        for name in ("estimates.json", "ccdf.csv"):
            assert (by_config / name).read_bytes() == (by_flag / name).read_bytes()

    def test_other_subcommands_keys_ignored(self, tmp_path):
        cfg = tmp_path / "mixnet.cfg"
        cfg.write_text("steps=5\nmethod=em\ncutoff=2000-01-01\nk-max=9\n")
        out = tmp_path / "out"
        assert run(["--config", cfg, "simulate", "complete:4", "--out", out]) == 0
        assert read_manifest(out)["params"]["steps"] == 5


class TestSeedAndConfigFuzz:
    """Seed edge-list and config files of any text exit 0, 1 or 2, never raise.

    Numbers stay small: steps and sizes come from short lists, since a large
    ``--steps`` allocates arrays sized by the step count.
    """

    SEED_FRAGMENTS = ["a", "b", "c", "d", "é", "#", " ", "\t", "\x0c", "\x00", "\n", "\r\n",
                      "\r", "a b\n", "b a\n", "c a\n", "a a\n", "a b c\n"]
    SEED_EDGES = st.lists(
        st.tuples(st.sampled_from([u + sep + v for u in "abcdef" for v in "abcdef" if u != v
                                   for sep in (" ", "\t", "  ")]),
                  st.sampled_from(["\n", "\r\n", "\n# c\n", "\n\n"])),
        min_size=1, max_size=12, unique_by=lambda edge: tuple(edge[0].split()),
    ).map(lambda edges: "".join(map("".join, edges)))
    GOOD_LINES = ["m=1", "m=2", "m=3", "m-hat=0", "m-hat=1", "m_hat=2", "alpha=0", "alpha=0.5",
                  "alpha=1", "rng-seed=7", "export-graph=yes", "export_graph=no", "method=em",
                  "k-max=9", "drop-zero-indegree-mle=yes", "# comment", "", "  "]
    KEYS = ["m", "m-hat", "alpha", "steps", "rng-seed", "export-graph", "method", "k-max",
            "drop-zero-indegree-mle", "keep-zero-indegree-mle", "cutoff", "aplha", " steps "]
    VALUES = ["0", "1", "2", "3", "5", "20", "50", "-1", "0.5", "1.5", "nan", "inf", "yes",
              "no", "maybe", "", "x", "é", "complete:3", "2000-01-01"]
    BUILTIN_SEEDS = ["complete:0", "complete:2", "complete:20", "complete:x"]
    CONFIG_LINES = st.one_of(
        st.sampled_from(GOOD_LINES),
        st.sampled_from(GOOD_LINES),
        st.sampled_from(GOOD_LINES),
        st.tuples(st.sampled_from(KEYS), st.sampled_from(["=", " = "]),
                  st.sampled_from(VALUES)).map("".join),
        st.sampled_from(["no equals sign", "=", "=5", "\x00"]),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.one_of(
            SEED_EDGES,
            st.lists(st.sampled_from(SEED_FRAGMENTS), max_size=30).map("".join),
            st.text(max_size=40),
            st.sampled_from(BUILTIN_SEEDS),
        ),
        steps=st.integers(0, 50),
        config=st.lists(CONFIG_LINES, max_size=5),
        line_end=st.sampled_from(["\n", "\r\n"]),
    )
    def test_exits_0_1_or_2(self, seed, steps, config, line_end):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "mixnet.cfg")
            with open(cfg, "w", encoding="utf-8", newline="") as fh:
                fh.write(line_end.join([f"steps={steps}", *config]))
            if seed not in self.BUILTIN_SEEDS:
                path = os.path.join(tmp, "seed.edgelist")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(seed)
                seed = path
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(["--config", cfg, "simulate", seed,
                             "--out", os.path.join(tmp, "out")])
        assert code in (0, 1, 2)


class TestSampleLogFuzz:
    """Sample-log CSV files of any text exit 0, 1 or 2 through estimate, never raise."""

    HEADERS = ["step,k,e_prev,n_prev"] * 6 + ["step,k,e_prev", "k,step,e_prev,n_prev",
                                              "step,k,e_prev,n_prev,x"]
    FIELDS = st.one_of(st.integers(-2, 40).map(str),
                       st.sampled_from(["", "x", "1.5", "nan", " 3", "9007199254740993", "-0"]))
    # mostly valid records: a step that never falls, k <= e, e and n positive
    RECORDS = st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 6), st.integers(1, 40), st.integers(1, 9)),
        max_size=25,
    ).map(lambda rows: [f"{1 + sum(r[0] for r in rows[:i + 1])},{min(k, e)},{e},{n}"
                        for i, (_, k, e, n) in enumerate(rows)])
    NOISE = st.one_of(st.just([]), st.lists(
        st.one_of(st.lists(FIELDS, min_size=1, max_size=5).map(",".join), st.text(max_size=12)),
        max_size=3))

    @settings(max_examples=120, deadline=None)
    @given(
        header=st.sampled_from(HEADERS),
        records=RECORDS,
        noise=NOISE,
        at=st.integers(0, 25),
        line_end=st.sampled_from(["\n", "\r\n"]),
        text=st.one_of(st.none(), st.none(), st.none(), st.text(max_size=60)),
        method=st.sampled_from(["both", "mle", "em"]),
        trace=st.one_of(st.just([]), st.just(["--trace", "--snapshot-mode"]),
                        st.sampled_from([1, 1, 2, 3, 7, 0, -1]).map(
                            lambda k: ["--trace", "--stride", str(k)])),
    )
    def test_exits_0_1_or_2(self, header, records, noise, at, line_end, text, method, trace):
        if text is None:
            text = line_end.join([header, *records[:at], *noise, *records[at:]]) + line_end
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "samplelog.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(["estimate", path, "--method", method, *trace,
                             "--out", os.path.join(tmp, "out")])
        assert code in (0, 1, 2)


@pytest.mark.parametrize("target,argv", [
    ("mixnet.cli.grow_sequence", ["simulate", "complete:3", "--m", 5, "--m-hat", 3,
                                  "--steps", 30000000]),
    ("mixnet.degree_dist.StationaryDistribution.pmf_array",
     ["dist", "--m", 5, "--m-hat", 3, "--alpha", 0.6, "--k-max", 3000000000]),
])
def test_out_of_memory_exits_1_without_output_dir(tmp_path, capsys, target, argv):
    # numpy reports a failed allocation as a MemoryError subclass
    out = tmp_path / "out"
    with mock.patch(target, side_effect=MemoryError("Unable to allocate 1.09 TiB")):
        assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "mixnet: error: out of memory: Unable to allocate 1.09 TiB\n"
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("MIXNET_OUT", str(tmp_path / "envout"))
    run(["simulate", "complete:4", "--steps", 5])
    assert (tmp_path / "envout" / "samplelog.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["cite", "no-e.txt", "no-d.txt", "--cutoff", "2000-13-01"], "month must be in 1..12"),
    (["cite", "no-e.txt", "no-d.txt", "--cutoff", "2000-01-01", "--m", 0],
     "m must be >= 1"),
    (["dist", "--m", 2, "--alpha", 0.5, "--k-max", 9, "--ensemble", -1],
     "ensemble must be >= 0"),
    (["dist", "--m", 2, "--alpha", 0.5, "--k-max", 9, "--workers", 0],
     "workers must be >= 1"),
    (["dist", "--m", 2, "--alpha", 0.5, "--k-max", 9, "--ensemble", 2, "--steps", 20,
      "--workers", -2], "workers must be >= 1"),
    (["dist", "--m", 2, "--alpha", 0.5, "--k-max", 9, "--ensemble", 2, "--steps", -5],
     "steps must be >= 0"),
    (["dist", "--m", 2, "--alpha", 0.5, "--k-max", 9, "--ensemble", 2, "--workers", 2,
      "--steps", -3], "steps must be >= 0"),
    (["dist", "--m", 5, "--m-hat", 3, "--alpha", 0.6, "--k-max", 2],
     "k-max 2 below the support start"),
    (["estimate", "no.csv", "--trace", "--stride", 0], "stride must be >= 1"),
    (["simulate", "complete:4", "--alpha", 1.5], "alpha must be in [0, 1]"),
    (["cite", "no-e.txt", "no-d.txt", "--cutoff", "2000-01-01", "--epsilon", -1],
     "epsilon must be positive and finite"),
    (["estimate", "no.csv", "--epsilon", "nan"], "epsilon must be positive and finite"),
], ids=["cite-cutoff", "cite-m", "dist-ensemble", "dist-workers", "dist-ensemble-workers",
        "dist-steps", "dist-workers-steps", "dist-k-max", "estimate-stride", "simulate-alpha",
        "cite-epsilon", "estimate-epsilon"])
def test_rejected_flag_exits_1_without_output_dir(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("mixnet: error:") and message in captured.err
    assert captured.out == ""  # rejected before anything is printed or forked
    assert not out.exists()


@pytest.fixture
def samplelog(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "complete:4", "--m", 3, "--m-hat", 2, "--alpha", 0.6,
                "--steps", 60, "--rng-seed", 1, "--out", out]) == 0
    return out / "samplelog.csv"


@pytest.mark.parametrize("argv,outputs", [
    (["simulate", "complete:4", "--m", 2, "--steps", 30, "--export-graph"],
     ["samplelog.csv", "graph.edgelist"]),
    (["estimate", "{log}", "--trace", "--stride", 20],
     ["em_trace.csv", "estimate.json", "trace.csv"]),
    (["dist", "--m", 2, "--m-hat", 1, "--alpha", 0.5, "--k-max", 12, "--ensemble", 2,
      "--steps", 40], ["theory.csv", "empirical.csv"]),
    (["cite", "{edges}", "{dates}", "--cutoff", "2000-01-02", "--m", 3, "--k-max", 5],
     ["samplelog.csv", "estimates.json", "ccdf.csv", "replay_manifest.json"]),
], ids=["simulate", "estimate", "dist", "cite"])
def test_manifest_records_outputs_and_every_flag(tmp_path, samplelog, argv, outputs):
    edge_text, dates_text = TestCite.pinned_corpus()
    files = {"log": samplelog, "edges": tmp_path / "e.txt", "dates": tmp_path / "d.txt"}
    files["edges"].write_bytes(edge_text.encode())
    files["dates"].write_bytes(dates_text.encode())
    argv = [str(a).format(**files) for a in argv]
    out = tmp_path / "out"
    assert run(argv + ["--out", out]) == 0
    manifest = read_manifest(out)
    assert manifest["outputs"] == [str(out / name) for name in outputs]
    assert sorted(os.listdir(out)) == sorted(outputs + ["manifest.json"])
    parser, _ = build_parser()
    flags = {k: v for k, v in vars(parser.parse_args(argv)).items()
             if k not in ("out", "config", "subcommand", "func")}
    if argv[0] == "simulate":
        flags.update(nodes=4 + 30, edges=12 + 30 * 2)
    assert manifest["params"] == flags


class TestEmWorker:
    """``cite`` and ``estimate`` run EM's iteration step on one worker thread."""

    @pytest.fixture
    def failing_em(self, monkeypatch):
        """EM's iteration step raises; the threads it ran on are returned."""
        threads = []

        def fail(*args):
            threads.append(threading.current_thread())
            raise RuntimeError("EM failed on the worker")

        monkeypatch.setattr(mixnet.em, "_em_iterate", fail)
        return threads

    @pytest.mark.parametrize("other_fails", [False, True])
    def test_cite_exits_1_without_output_dir(self, tmp_path, capsys, monkeypatch, failing_em,
                                             other_fails):
        if other_fails:  # the work this thread does meanwhile fails too
            monkeypatch.setattr(degree_dist, "ccdf_from_indegrees",
                                mock.Mock(side_effect=ValueError("ccdf failed")))
        edges, dates = tmp_path / "e.txt", tmp_path / "d.txt"
        for path, text in zip((edges, dates), TestCite.pinned_corpus()):
            path.write_bytes(text.encode())
        out = tmp_path / "out"
        assert run(["cite", edges, dates, "--cutoff", "2000-01-02", "--m", 3,
                    "--out", out]) == 1
        assert capsys.readouterr().err == "mixnet: error: EM failed on the worker\n"
        assert not out.exists()
        assert len(failing_em) == 1 and failing_em[0] is not threading.main_thread()

    @pytest.mark.parametrize("trace_fails", [False, True])
    def test_estimate_trace_exits_1_with_em_error(self, tmp_path, capsys, monkeypatch, samplelog,
                                                  failing_em, trace_fails):
        if trace_fails:
            monkeypatch.setattr(likelihood, "prefix_estimates",
                                mock.Mock(side_effect=ValueError("trace failed")))
        out = tmp_path / "out"
        assert run(["estimate", samplelog, "--trace", "--stride", 20, "--out", out]) == 1
        assert capsys.readouterr().err == "mixnet: error: EM failed on the worker\n"
        assert not out.exists()
        assert len(failing_em) == 1 and failing_em[0] is not threading.main_thread()

    def test_trace_error_reported_when_em_succeeds(self, tmp_path, capsys, monkeypatch,
                                                   samplelog):
        monkeypatch.setattr(likelihood, "prefix_estimates",
                            mock.Mock(side_effect=ValueError("trace failed")))
        out = tmp_path / "out"
        assert run(["estimate", samplelog, "--trace", "--out", out]) == 1
        assert capsys.readouterr().err == "mixnet: error: trace failed\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "{log}", "--method", "both"],
    ["estimate", "{log}", "--method", "both", "--trace", "--stride", 20],
    ["cite", "{edges}", "{dates}", "--cutoff", "2000-01-02", "--m", 3],
], ids=["estimate", "estimate-trace", "cite"])
def test_em_runs_through_one_em_estimate_call(tmp_path, monkeypatch, samplelog, argv):
    # perfbench's tracer counts EM's iterations by wrapping mixnet.em.em_estimate
    original, calls = mixnet.em.em_estimate, []

    def traced(*args, **kwargs):
        trace = original(*args, **kwargs)
        calls.append((threading.current_thread(), trace))
        return trace

    monkeypatch.setattr(mixnet.em, "em_estimate", traced)
    edge_text, dates_text = TestCite.pinned_corpus()
    files = {"log": samplelog, "edges": tmp_path / "e.txt", "dates": tmp_path / "d.txt"}
    files["edges"].write_bytes(edge_text.encode())
    files["dates"].write_bytes(dates_text.encode())
    out = tmp_path / "out"
    assert run([str(a).format(**files) for a in argv] + ["--out", out]) == 0
    assert len(calls) == 1
    thread, trace = calls[0]
    assert thread is threading.main_thread() and isinstance(trace, mixnet.em.EmTrace)
    if argv[0] == "cite":
        em = json.loads((out / "estimates.json").read_text())["em"]
        assert em == {"alpha_hat": trace.final_alpha, "converged": trace.converged}
        return
    rows = (out / "em_trace.csv").read_text().splitlines()[1:]
    assert len(trace.iterations) - 1 == len(rows) - 1 > 0


class TestSplitEm:
    """``estimate`` without a trace splits EM's records between this thread and
    one pool thread; a Ctrl-C stops EM at its next iteration."""

    @pytest.fixture
    def e_steps(self, monkeypatch):
        """The thread of each of EM's E-steps, in call order."""
        threads, mixture = [], mixnet.em._mixture

        def recorded(*args):
            threads.append(threading.current_thread())
            return mixture(*args)

        monkeypatch.setattr(mixnet.em, "_mixture", recorded)
        return threads

    def test_runs_on_this_thread_and_one_pool_thread(self, tmp_path, samplelog, e_steps):
        before = set(threading.enumerate())
        out = tmp_path / "out"
        assert run(["estimate", samplelog, "--method", "both", "--out", out]) == 0
        calls = list(e_steps)
        workers = set(calls) - {threading.main_thread()}
        assert len(workers) == 1 and 2 * calls.count(threading.main_thread()) == len(calls)
        trace = em_estimate(SampleLog.from_csv(samplelog))
        assert len(calls) == 2 * (len(trace.iterations) - 1)
        assert json.loads((out / "estimate.json").read_text())["em"]["alpha_hat"] \
            == trace.final_alpha
        assert set(threading.enumerate()) == before  # the pool thread has ended

    @pytest.mark.parametrize("failing", ["main", "worker", "objective"])
    def test_failure_in_either_part_exits_1(self, tmp_path, capsys, monkeypatch, samplelog,
                                            failing):
        if failing == "objective":  # both parts find the objective decreased
            monkeypatch.setattr(mixnet.em, "MONOTONICITY_SLACK", -math.inf)
            with pytest.raises(RuntimeError) as one_part:
                em_estimate(SampleLog.from_csv(samplelog))
            message = str(one_part.value)
        else:
            mixture, message = mixnet.em._mixture, f"E-step failed on the {failing} thread"

            def fail(*args):
                if (threading.current_thread() is threading.main_thread()) == (failing == "main"):
                    raise RuntimeError(message)
                return mixture(*args)

            monkeypatch.setattr(mixnet.em, "_mixture", fail)
        before = set(threading.enumerate())
        out = tmp_path / "out"
        assert run(["estimate", samplelog, "--out", out]) == 1
        assert capsys.readouterr().err == f"mixnet: error: {message}\n"
        assert not out.exists()
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("flags", [["--method", "both"], ["--trace", "--stride", 20]],
                             ids=["split", "trace"])
    def test_ctrl_c_stops_em_at_its_next_iteration(self, tmp_path, monkeypatch, samplelog,
                                                   flags):
        # each E-step takes 20 ms, and the worker's third sends this thread a SIGINT:
        # split, this thread is running EM's first part; with a trace, it has
        # finished the trace and waits for EM
        iterations = len(em_estimate(SampleLog.from_csv(samplelog)).iterations) - 1
        mixture, calls, main_thread = mixnet.em._mixture, [], threading.main_thread()

        def slow(*args):
            calls.append(threading.current_thread())
            if calls.count(calls[-1]) == 3 and calls[-1] is not main_thread:
                signal.pthread_kill(main_thread.ident, signal.SIGINT)
            time.sleep(0.02)
            return mixture(*args)

        monkeypatch.setattr(mixnet.em, "_mixture", slow)
        before = set(threading.enumerate())
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            run(["estimate", samplelog, *flags, "--out", out])
        worker_calls = len(calls) - calls.count(main_thread)
        assert 3 <= worker_calls <= 4 < iterations
        assert not out.exists()
        assert set(threading.enumerate()) == before


def fresh_interpreter(code: str, *args) -> str:
    """stdout of ``code`` run with ``args`` in a fresh interpreter on this mixnet tree."""
    src = os.path.dirname(os.path.dirname(mixnet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_import_loads_no_scipy_or_process_pool():
    # nor fractions and decimal, which only the root_profile diagnostic uses
    code = ("import sys, mixnet.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy') or m in "
            "('concurrent.futures.process', 'fractions', 'decimal')))")
    assert fresh_interpreter(code).strip() == "[]"


def test_import_loads_only_netmodel_and_no_logging():
    code = ("import json, sys, mixnet.cli; print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('mixnet', 'logging'))))")
    assert json.loads(fresh_interpreter(code)) == ["mixnet", "mixnet.cli", "mixnet.netmodel"]


#: prints the exit code of ``main(argv)`` after ``import mixnet.cli`` and the
#: mixnet modules the call loaded
SUBCOMMAND_MODULES = """
import contextlib, io, json, sys
import mixnet.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = mixnet.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules.keys() - before if m.startswith("mixnet"))]))
"""


@pytest.mark.parametrize("argv,loaded", [
    (["simulate", "complete:4", "--m", 2, "--m-hat", 1, "--steps", 30], []),
    (["dist", "--m", 2, "--m-hat", 1, "--alpha", 0.5, "--k-max", 12], ["degree_dist"]),
    (["estimate", "{log}", "--method", "mle", "--trace", "--stride", 20], ["likelihood"]),
    (["estimate", "{log}", "--method", "both"], ["em", "likelihood"]),
], ids=["simulate", "dist", "estimate-mle", "estimate-both"])
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, samplelog, argv, loaded):
    argv = [str(a).format(log=samplelog) for a in argv] + ["--out", str(tmp_path / "out")]
    code, modules = json.loads(fresh_interpreter(SUBCOMMAND_MODULES, json.dumps(argv)))
    assert code == 0
    assert modules == [f"mixnet.{name}" for name in loaded]


class TestLazyExports:
    """``mixnet`` imports each exported name from its module on first use."""

    def test_all_is_the_sorted_name_map(self):
        assert mixnet.__all__ == sorted(mixnet._EXPORTS)
        assert len(mixnet.__all__) == 23

    def test_each_name_is_its_modules_object(self):
        for name, module in mixnet._EXPORTS.items():
            defining = importlib.import_module(f"mixnet.{module}")
            assert getattr(mixnet, name) is getattr(defining, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            mixnet.no_such_name
        assert not hasattr(mixnet, "no_such_name")

    def test_fresh_package_lists_names_and_imports_modules(self):
        # perfbench/run.py and tools/layers.py import the modules this way
        modules = ["degree_dist", "em", "ingest", "likelihood", "netmodel"]
        code = ("import json, mixnet; listed = set(mixnet.__all__) <= set(dir(mixnet)); "
                f"from mixnet import {', '.join(modules)}; "
                f"print(json.dumps([listed, [m.__name__ for m in ({', '.join(modules)})]]))")
        assert json.loads(fresh_interpreter(code)) == [True, [f"mixnet.{m}" for m in modules]]
