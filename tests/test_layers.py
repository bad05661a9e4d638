"""Smoke test of tools/layers.py: seventeen layers, one tree against itself."""

import hashlib
import json
import os
import subprocess
import sys

import mixnet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "layers.py")
LAYERS = ["import-cli", "prefix-100-0.6", "trace", "grow-0.6", "grow-degrees-0.6", "grow-step",
          "simulate", "csv-bytes", "csv-read", "edge-list", "pmf-array", "ccdf-array",
          "dist-ensemble", "cite-load", "em-0.6", "em2-0.6", "estimate-trace"]
#: the layers that make no MLE solve
NO_SOLVE = ("import", "grow", "simulate", "csv", "edge", "pmf", "ccdf", "dist", "cite-load", "em")


def test_same_tree_times_and_digests_each_layer():
    src = os.path.dirname(os.path.dirname(mixnet.__file__))
    done = subprocess.run([sys.executable, TOOL, src, src, "--reps", "1", "--steps", "200",
                           "--papers", "400", "--layers", ",".join(LAYERS)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert list(report["layers"]) == LAYERS
    for layer, entry in report["layers"].items():
        assert entry["same"]
        assert entry["change_faster_pairs"] in (0, 1)
        assert entry.get("change_faster_first_pairs", 0) in (0, 1)
        for side in ("base", "change"):
            assert entry[side]["q1_s"] <= entry[side]["median_s"] <= entry[side]["q3_s"]
            # a growth layer reports its first call apart from the best of the later ones
            first = [entry[side].get(f"first_{q}_s") for q in ("q1", "median", "q3")]
            assert sorted(first) == first if layer.startswith("grow") else first == [None] * 3
            assert len(entry[side]["sha256"]) == 64
            if layer.startswith(NO_SOLVE):
                assert entry[side]["passes_per_solve"] == 0
            else:
                # a warm-started solve at least evaluates the score once
                assert entry[side]["passes_per_solve"] >= 1
    # the split EM gives em_estimate's iterates, convergence flag and estimate
    em, em2 = report["layers"]["em-0.6"], report["layers"]["em2-0.6"]
    assert em2["base"]["sha256"] == em["base"]["sha256"]
    # the import's digest is the modules it loaded: mixnet, cli and netmodel
    modules = ["mixnet", "mixnet.cli", "mixnet.netmodel"]
    digest = hashlib.sha256("".join(f"{m!r}\n" for m in modules).encode()).hexdigest()
    assert report["layers"]["import-cli"]["base"]["sha256"] == digest
