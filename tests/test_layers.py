"""Smoke test of tools/layers.py: seven layers, one tree against itself."""

import json
import os
import subprocess
import sys

import mixnet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "layers.py")


def test_same_tree_times_and_digests_each_layer():
    src = os.path.dirname(os.path.dirname(mixnet.__file__))
    done = subprocess.run([sys.executable, TOOL, src, src, "--reps", "1", "--steps", "200",
                           "--papers", "400",
                           "--layers", "prefix-100-0.6,trace,grow-0.6,grow-step,cite-load,"
                           "em-0.6,estimate-trace"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert list(report["layers"]) == ["prefix-100-0.6", "trace", "grow-0.6", "grow-step",
                                      "cite-load", "em-0.6", "estimate-trace"]
    for layer, entry in report["layers"].items():
        assert entry["same"]
        assert entry["change_faster_pairs"] in (0, 1)
        for side in ("base", "change"):
            assert entry[side]["q1_s"] <= entry[side]["median_s"] <= entry[side]["q3_s"]
            assert len(entry[side]["sha256"]) == 64
            if layer.startswith(("grow", "cite-load", "em")):
                # growth, loading and EM make no MLE solve
                assert entry[side]["passes_per_solve"] == 0
            else:
                # a warm-started solve at least evaluates the score once
                assert entry[side]["passes_per_solve"] >= 1
