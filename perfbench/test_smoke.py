"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload traced and untraced with ``--smoke`` inputs, and checks
the result line against BENCHMARK.json, that all output checks pass, that
traced counts repeat exactly, that a wrong estimate is caught, and that the
benchmark refuses to run without the mixnet sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("netmodel.records", "netmodel.csv_bytes", "likelihood.records_scanned",
          "em.iterations", "ingest.citations")


def _copy(root: Path, with_src: bool) -> Path:
    """A checkout holding BENCHMARK.json, perfbench/ and, optionally, src/."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """A copy, so that the records of these runs stay out of the repo."""
    return _copy(tmp_path_factory.mktemp("checkout"), with_src=True)


def run(workload: str, trace: int, root: Path) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout, proc.stderr


def result(workload: str, trace: int, root: Path) -> dict:
    code, out, err = run(workload, trace, root)
    assert code == 0, err
    line = json.loads(out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, err
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    return line["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced(workload, checkout):
    metrics = result(workload, 0, checkout)
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload, checkout):
    first, second = result(workload, 1, checkout), result(workload, 1, checkout)
    counted = [name for name in first if name.endswith(".calls") or name in COUNTS]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    assert first["tracing.overhead_ratio"]["value"] > 0


def test_wrong_estimate_is_caught(tmp_path):
    root = _copy(tmp_path, with_src=True)
    # rebind mle_estimate in the copy to one that is off by 1e-6
    with open(root / "src" / "mixnet" / "likelihood.py", "a") as fh:
        fh.write("\n_exact = mle_estimate\n\n\n"
                 "def mle_estimate(log):\n"
                 "    report = _exact(log)\n"
                 "    report.alpha_hat += 1e-6\n"
                 "    return report\n")
    code, out, err = run("fig3", 0, root)
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and line["correct"] is False
    # estimate and trace fail in every pass; simulate does not estimate
    assert line["failed"] == 2 * line["attempted"] // 3
    assert line["metrics"]["ok_ratio"]["value"] < 1.0


def test_refuses_without_sources(tmp_path):
    root = _copy(tmp_path, with_src=False)
    code, out, err = run("fig3", 0, root)
    assert code != 0
    assert out == ""
