"""Smoke test of tools/layers.py: four layers, one tree against itself."""

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
                           "--layers", "prefix-100-0.6,trace,grow-0.6,grow-step"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert list(report["layers"]) == ["prefix-100-0.6", "trace", "grow-0.6", "grow-step"]
    for layer, entry in report["layers"].items():
        assert entry["same"]
        for side in ("base", "change"):
            assert entry[side]["q1_s"] <= entry[side]["median_s"] <= entry[side]["q3_s"]
            assert len(entry[side]["sha256"]) == 64
            if layer.startswith("grow"):
                assert entry[side]["passes_per_solve"] == 0  # growth solves nothing
            else:
                # a warm-started solve at least evaluates the score once
                assert entry[side]["passes_per_solve"] >= 1
