"""mixnet benchmark: time of the CLI calls of each workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (``src/mixnet`` next to this directory).  The
workload's inputs are generated from the seed; then ``mixnet.cli.main`` is
called in this process, one call after another (a closed loop with one
caller), in passes through the workload's calls, for about S seconds after
one untimed warm-up pass.  Every call's outputs are checked against values
computed here from the same inputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and prints the per-layer metrics (medians over
traced passes) and the tracing overhead.  The last stdout line is one JSON
object; a fuller record, with run metadata, goes to
``.perfbench/results/``.  ``perfbench/compare.py`` summarizes or compares
sets of records.  ``--smoke`` shrinks every input for a quick self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import compare
import inputs
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# FIG3 of the paper: m=5, m_hat=3, alpha=0.6, complete 3-node seed
M, M_HAT, ALPHA, SEED_NODES = 5, 3, 0.6, 3
SIZES = {
    "full": {"steps": 20000, "stride": 5000, "ensemble": 12, "workers": 2,
             "k_max": 45, "papers": 10000, "setup_reps": 6, "min_passes": 3},
    "smoke": {"steps": 300, "stride": 100, "ensemble": 2, "workers": 2,
              "k_max": 12, "papers": 400, "setup_reps": 1, "min_passes": 2},
}
#: typical times of kernel_seconds() and of an interpreter importing
#: REFERENCE_IMPORTS, on a 2-core x86-64 machine with Python 3.11
KERNEL_SECONDS = 0.16
INTERPRETER_SECONDS = 0.45
#: the libraries ``import mixnet.cli`` loads, without mixnet: loading their
#: shared objects slows down more than pure-Python imports do when the
#: machine is busy, and a change to mixnet cannot change this reference
REFERENCE_IMPORTS = ("import argparse, concurrent.futures, csv, dataclasses, datetime, "
                     "fractions, json, logging, numpy, scipy.special")


@dataclass
class Call:
    """One CLI call of a workload and the check of its outputs."""

    name: str
    argv: list
    check: Callable[[Path], list]  # output directory -> problems found
    workers: int = 1

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _simulate(seed: int, size: dict) -> Call:
    steps = size["steps"]
    n_prev = [SEED_NODES + t for t in range(steps)]
    rows = sum(min(M, n) for n in n_prev)
    nodes = SEED_NODES + steps
    edges = SEED_NODES * (SEED_NODES - 1) + rows + sum(min(M_HAT, n) for n in n_prev)

    def check(out: Path) -> list:
        with open(out / "samplelog.csv", "rb") as fh:
            header = fh.readline().strip()
            got_rows = sum(1 for line in fh if line.strip())
        params = _read_json(out / "manifest.json")["params"]
        problems = []
        if header != b"step,k,e_prev,n_prev":
            problems.append(f"sample log header {header!r}")
        if got_rows != rows:
            problems.append(f"sample log has {got_rows} rows, expected {rows}")
        if (params["nodes"], params["edges"]) != (nodes, edges):
            problems.append(f"manifest nodes/edges {params['nodes']}/{params['edges']}, "
                            f"expected {nodes}/{edges}")
        return problems

    argv = ["simulate", f"complete:{SEED_NODES}", "--m", str(M), "--m-hat", str(M_HAT),
            "--alpha", str(ALPHA), "--steps", str(steps), "--rng-seed", str(seed)]
    return Call("simulate", argv, check)


def _estimate(path: Path, log: inputs.Records) -> Call:
    mle = oracle.mle_alpha(log.k, log.e_prev, log.n_prev)
    pos = log.k > 0
    em = oracle.mle_alpha(log.k[pos], log.e_prev[pos], log.n_prev[pos])

    def check(out: Path) -> list:
        result = _read_json(out / "estimate.json")
        problems = []
        if not oracle.close(result["mle"]["alpha_hat"], mle, oracle.MLE_TOLERANCE):
            problems.append(f"MLE {result['mle']['alpha_hat']!r}, reference {mle!r}")
        if result["em"]["converged"] is not True:
            problems.append("EM did not converge")
        if not oracle.close(result["em"]["alpha_hat"], em, oracle.EM_TOLERANCE):
            problems.append(f"EM {result['em']['alpha_hat']!r}, reference {em!r}")
        return problems

    return Call("estimate", ["estimate", str(path), "--method", "both"], check)


def _trace(path: Path, log: inputs.Records, stride: int) -> Call:
    full = oracle.mle_alpha(log.k, log.e_prev, log.n_prev)
    expected = []
    for t in range(stride, int(log.step[-1]) + 1, stride):
        keep = log.step <= t
        expected.append((t, oracle.mle_alpha(log.k[keep], log.e_prev[keep], log.n_prev[keep])))

    def check(out: Path) -> list:
        problems = []
        got = _read_json(out / "estimate.json")["mle"]["alpha_hat"]
        if not oracle.close(got, full, oracle.MLE_TOLERANCE):
            problems.append(f"MLE {got!r}, reference {full!r}")
        rows = _read_csv(out / "trace.csv")
        if rows[0] != ["t", "alpha_hat"] or len(rows) - 1 != len(expected):
            return problems + [f"trace.csv has {len(rows) - 1} rows, expected {len(expected)}"]
        for (t, a), (t_ref, a_ref) in zip(rows[1:], expected):
            if int(t) != t_ref or not oracle.close(float(a), a_ref, oracle.MLE_TOLERANCE):
                problems.append(f"trace t={t}: {a}, reference t={t_ref}: {a_ref!r}")
        return problems

    argv = ["estimate", str(path), "--method", "mle", "--trace", "--stride", str(stride)]
    return Call("trace", argv, check)


def _fig3(seed: int, size: dict, data: Path) -> list:
    """simulate, then estimate and the prefix trace on a generated FIG3 log."""
    log = inputs.growth_log(seed, size["steps"], M, M_HAT, ALPHA, SEED_NODES)
    path = data / "samplelog.csv"
    log.write_csv(path)
    return [_simulate(seed, size), _estimate(path, log), _trace(path, log, size["stride"])]


def _ensemble(seed: int, size: dict, data: Path) -> list:
    k_max = size["k_max"]

    def check(out: Path) -> list:
        rows = _read_csv(out / "empirical.csv")
        if rows[0] != ["k", "ccdf_empirical"] or len(rows) != k_max + 2:
            return [f"empirical.csv has {len(rows) - 1} rows, expected {k_max + 1}"]
        ccdf = [float(r[1]) for r in rows[1:]]
        problems = []
        if any(f != 1.0 for f in ccdf[: M_HAT + 1]):
            problems.append(f"CCDF below 1 at k <= m_hat: {ccdf[: M_HAT + 1]}")
        if any(b > a for a, b in zip(ccdf, ccdf[1:])):
            problems.append("CCDF increases")
        if any(not 0.0 <= f <= 1.0 for f in ccdf):
            problems.append("CCDF outside [0, 1]")
        return problems

    argv = ["dist", "--m", str(M), "--m-hat", str(M_HAT), "--alpha", str(ALPHA),
            "--k-max", str(k_max), "--ensemble", str(size["ensemble"]),
            "--steps", str(size["steps"]), "--workers", str(size["workers"]),
            "--rng-seed", str(seed)]
    return [Call("dist", argv, check, workers=size["workers"])]


def _cite(seed: int, size: dict, data: Path) -> list:
    edges, dates = data / "edges.txt", data / "dates.txt"
    ds = inputs.citation_data(seed, size["papers"], edges, dates)
    log = ds.records
    mle = oracle.mle_alpha(log.k, log.e_prev, log.n_prev)
    pos = log.k > 0
    em = oracle.mle_alpha(log.k[pos], log.e_prev[pos], log.n_prev[pos])

    def check(out: Path) -> list:
        problems = []
        manifest = _read_json(out / "replay_manifest.json")
        if manifest != ds.manifest:
            problems.append(f"replay manifest {manifest}, expected {ds.manifest}")
        est = _read_json(out / "estimates.json")
        if not oracle.close(est["mle"]["alpha_hat"], mle, oracle.MLE_TOLERANCE):
            problems.append(f"MLE {est['mle']['alpha_hat']!r}, reference {mle!r}")
        if est["em"]["converged"] is not True:
            problems.append("EM did not converge")
        if not oracle.close(est["em"]["alpha_hat"], em, oracle.EM_TOLERANCE):
            problems.append(f"EM {est['em']['alpha_hat']!r}, reference {em!r}")
        return problems

    argv = ["cite", str(edges), str(dates), "--cutoff", ds.cutoff, "--m", "12", "--m-hat", "0"]
    return [Call("cite", argv, check)]


#: workload -> builder of its calls from (seed, size, input directory)
WORKLOADS = {"fig3": _fig3, "ensemble": _ensemble, "cite-replay": _cite}


def kernel_seconds() -> float:
    """Run the fixed reference kernel once and return its wall time.

    The kernel mixes the kinds of work mixnet does (random draws, list and
    dict updates, text formatting and parsing, numpy passes) and does not
    depend on mixnet, so its time tracks only the speed of the machine.
    """
    start = time.perf_counter()
    rng = random.Random(12345)
    counts: dict = {}
    targets = [0]
    for i in range(120000):
        if rng.random() < 0.6:
            v = targets[int(rng.random() * len(targets))]
        else:
            v = int(rng.random() * (i + 1))
        counts[v] = counts.get(v, 0) + 1
        targets.append(v)
    text = "\n".join(f"{i},{v},{counts[v]}" for i, v in enumerate(targets))
    parsed = [int(line.split(",")[1]) for line in text.split("\n")]
    values = np.asarray(parsed, dtype=np.float64)
    for _ in range(20):
        float((values / (values * 0.5 + 1.0)).sum())
    return time.perf_counter() - start


class Clock:
    """Scales wall times by the speed of the machine at the time.

    A measured time is divided by the mean time of a fixed reference run
    just before and just after it, then multiplied by the reference's
    nominal time.  On a machine whose cores are shared, speed drifts by a
    third over tens of seconds; a raw time drifts with it, its ratio to
    adjacent reference runs about half as much.
    """

    def __init__(self, reference: Callable[[], float], nominal: float):
        self.reference = reference
        self.nominal = nominal
        self.runs = [reference()]

    def measure(self, raw: float) -> float:
        self.runs.append(self.reference())
        return raw / ((self.runs[-2] + self.runs[-1]) / 2) * self.nominal


def _interpreter_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code`` with src/ importable."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _setup_seconds(reps: int) -> tuple[list, list, list]:
    """Raw and scaled times of fresh interpreters importing mixnet.cli, and
    the reference interpreter's times.  The first import fills file caches
    and is left out."""
    clock = Clock(lambda: _interpreter_seconds(REFERENCE_IMPORTS), INTERPRETER_SECONDS)
    raw, scaled = [], []
    for _ in range(reps + 1):
        elapsed = _interpreter_seconds("import mixnet.cli")
        raw.append(elapsed)
        scaled.append(clock.measure(elapsed))
    return raw[1:], scaled[1:], clock.runs


def _call(cli, call: Call, out: Path) -> tuple[float, list]:
    """One CLI call: its wall time and the problems found in its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(call.argv + ["--out", str(out)])
    except (Exception, SystemExit):
        elapsed = time.perf_counter() - start
        return elapsed, ["raised:\n" + traceback.format_exc()]
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, [f"exit code {code}"]
    try:
        return elapsed, call.check(out)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return elapsed, [f"unreadable output: {exc!r}"]


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _per_layer_units() -> dict:
    """Name -> unit of every per-layer metric listed in BENCHMARK.json."""
    spec = _read_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _metadata(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:  # no git program
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": "smoke" if args.smoke else "full",
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(), "loadavg_start": loadavg,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "mixnet" / "__init__.py").is_file():
        print(f"perfbench: no mixnet sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mixnet.cli as cli
    from mixnet import degree_dist, em, ingest, likelihood, netmodel

    if Path(cli.__file__).resolve().parent != SRC / "mixnet":
        print(f"perfbench: imported mixnet from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    meta = _metadata(args)
    size = SIZES["smoke" if args.smoke else "full"]
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    data, out, spool = run_dir / "data", run_dir / "out", run_dir / "spool"
    for d in (data, spool):
        d.mkdir(parents=True)

    setup_raw, setup, setup_reference = _setup_seconds(size["setup_reps"])
    clock = Clock(kernel_seconds, KERNEL_SECONDS)
    calls = WORKLOADS[args.workload](args.seed, size, data)
    tracer = tracing.Tracer(spool)
    modules = {"cli": cli, "netmodel": netmodel, "likelihood": likelihood, "em": em,
               "degree_dist": degree_dist, "ingest": ingest}
    failures: list = []
    attempted = 0
    passes: dict = {False: [], True: []}  # traced? -> passes
    layer_samples: list = []

    def run_pass(trace: bool) -> dict:
        """Each call of the workload once: raw and scaled times, problems."""
        nonlocal attempted
        raw, scaled, layers = {}, 0.0, defaultdict(float)
        for call in calls:
            attempted += 1
            if trace:
                tracer.op = attempted
                tracer.install(modules)
                try:
                    with tracer.span(f"cli.{call.subcommand}") as counts:
                        elapsed, problems = _call(cli, call, out)
                finally:
                    tracer.uninstall()
                op_span = tracer.spans[-1]
                counts["cli.output_bytes"] = _output_bytes(out)
                tracer.collect_workers()
                for key, value in tracing.op_metrics(tracer.spans, op_span, call.workers).items():
                    layers[key] += value
            else:
                elapsed, problems = _call(cli, call, out)
            raw[call.name] = elapsed
            scaled += clock.measure(elapsed)
            if problems:
                failures.append({"call": attempted, "name": call.name, "problems": problems})
                print(f"perfbench: {call.name} (call {attempted}) failed: {problems}",
                      file=sys.stderr)
        if trace:
            layer_samples.append(dict(layers))
        return {"raw": raw, "scaled": scaled}

    run_pass(trace=False)  # warm-up, checked but not timed
    start = time.perf_counter()
    while True:
        if args.trace:
            passes[True].append(run_pass(trace=True))
        passes[False].append(run_pass(trace=False))
        n = len(passes[False])
        per_iteration = (time.perf_counter() - start) / n
        if n >= size["min_passes"] and time.perf_counter() - start + per_iteration > args.seconds:
            break

    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    failed = len({f["call"] for f in failures})
    plain = [p["scaled"] for p in passes[False]]
    if args.trace:
        metrics = {}
        for name, unit in _per_layer_units().items():
            values = [sample.get(name, 0.0) for sample in layer_samples]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        traced = [p["scaled"] for p in passes[True]]
        metrics["tracing.overhead_ratio"]["value"] = (
            statistics.median(traced) / statistics.median(plain))
    else:
        metrics = {
            "pass_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": max(usage) / 1024, "unit": "MiB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    raw_calls = {c.name: [p["raw"][c.name] for p in passes[False]] for c in calls}
    record = {
        "meta": meta,
        "calls": {c.name: ["mixnet"] + c.argv for c in calls},
        "reference_s": {"kernel_nominal": KERNEL_SECONDS, "kernel_runs": clock.runs,
                        "interpreter_nominal": INTERPRETER_SECONDS,
                        "interpreter_runs": setup_reference},
        "samples": {"pass_s": plain, "traced_pass_s": [p["scaled"] for p in passes[True]],
                    "setup_s": setup, "setup_raw_s": setup_raw, "raw_call_s": raw_calls},
        "quartiles": {"pass_s": compare.quartiles(plain), "setup_s": compare.quartiles(setup)},
        "peak_rss_kib": {"self": usage[0], "largest_child": usage[1]},
        "layer_samples": layer_samples,
        "failures": failures,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    with open(results / f"{name}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(results / f"{name}.spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    shutil.rmtree(run_dir, ignore_errors=True)

    for call_name, values in raw_calls.items():
        median = statistics.median(values)
        print(f"{call_name}: raw median {median:.4g} s over {len(values)} calls")
    counts = {"pass_s": len(plain), "setup_s": len(setup)}
    for key, metric in metrics.items():
        n = f" (median of {counts[key]})" if key in counts else ""
        print(f"{key}: {metric['value']:.6g} {metric['unit']}{n}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
