"""Smoke test of tools/cmp_outputs.py: one tree against itself."""

import os
import subprocess
import sys

import mixnet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "cmp_outputs.py")

ESTIMATE = ["em_trace.csv", "estimate.json", "manifest.json", "trace.csv"]
OUTPUTS = {
    **{f"simulate-{a}": ["graph.edgelist", "manifest.json", "samplelog.csv"]
       for a in ("0", "0.6", "1")},
    "simulate-500": ["graph.edgelist", "manifest.json", "samplelog.csv"],
    "simulate-seedfile": ["manifest.json", "samplelog.csv"],
    **{f"{call}-{a}": ESTIMATE for call in ("estimate", "snapshot") for a in ("0", "0.6", "1")},
    "trace-0.6": ["estimate.json", "manifest.json", "trace.csv"],
    "estimate-em-zeros": ["em_trace.csv", "estimate.json", "manifest.json", "trace.csv"],
    **{f"split-{a}": ["em_trace.csv", "estimate.json", "manifest.json"]
       for a in ("0", "0.6", "1", "em-zeros")},
    **{name: ["empirical.csv", "manifest.json", "theory.csv"]
       for name in ("dist", "dist-serial-0", "dist-serial-1")},
    **{call: ["ccdf.csv", "estimates.json", "manifest.json", "replay_manifest.json",
              "samplelog.csv"] for call in ("cite", "cite-em-zeros", "cite-mixed")},
}


def test_same_tree_reports_every_output_equal():
    src = os.path.dirname(os.path.dirname(mixnet.__file__))
    done = subprocess.run([sys.executable, TOOL, src, src, "--steps", "300"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    expected = [f"same  {name} stdout" for name in OUTPUTS]
    expected += [f"same  {name}/{f}" for name, files in OUTPUTS.items() for f in files]
    assert sorted(done.stdout.splitlines()) == sorted(expected)
