"""Time mixnet's growth and estimator layers from one or two source trees.

    python tools/layers.py BASE_SRC [CHANGE_SRC] [--reps N] [--layers A,B,...]
                           [--steps N] [--papers N]

BASE_SRC and CHANGE_SRC are ``src`` directories (each holding ``mixnet``).
Each layer runs ``--reps`` times per side, every time in a fresh interpreter
with ``PYTHONPATH`` set to that side's tree; the sides alternate, and so does
which of them goes first.  A run builds its input untimed, calls the layer
once to warm up, times one call, and then makes one more call with
``likelihood._derivative`` wrapped to count the rows it evaluates.  An
``import-cli`` run times its one call, the interpreter's first import of
mixnet, with no warm-up and no counted call.  A ``grow-*`` run instead times
its first call and ``GROW_CALLS`` calls after it: the first call of a fresh
interpreter varies widely, so the best of the later ones is the layer's time
and the first is reported on its own.

The layers (FIG3 means m=5, m_hat=3, a complete 3-node seed and ``--steps``
growth steps, default 20000; a FIG3 log is the one ``perfbench/inputs.py``'s
``growth_log`` grows with seed 1, so no estimator layer's input depends on
mixnet's growth kernel):

- ``grow-A``: ``grow_sequence`` at FIG3 and alpha A (0, 0.6, 1) with
  ``keep_edges``, each call from a fresh ``make_rng(1)``; its result is the
  bytes of the log's columns, the in-degrees and both edge arrays;
- ``grow-degrees-0.6``: ``grow_sequence`` at FIG3 and alpha 0.6 with
  ``records=False``, as ``dist --ensemble`` grows a member, each call from a
  fresh ``make_rng(1)``; its result is the bytes of the in-degrees and the
  edge targets, and the rng state after the call.  On a tree whose
  ``grow_sequence`` has no ``records``, it grows with records;
- ``grow-step``: 200 ``grow_step`` calls at FIG3 and alpha 0.6 on the network
  ``grow_sequence`` grows in ``--steps`` steps from ``make_rng(1)`` (without
  edge storage), each call from that network and the rng state it left; its
  result is the records and the final in-degrees;
- ``import-cli``: ``import mixnet.cli``, the fixed cost of every CLI call; its
  result is the sorted names of the ``mixnet`` modules the import loaded;
- ``simulate``: ``mixnet.cli.main`` on ``simulate complete:3 --m 5 --m-hat 3
  --alpha 0.6 --steps <steps> --rng-seed 1``, FIG3 through the CLI; its result
  is stdout and the bytes of ``samplelog.csv``;
- ``redraw-S`` and ``redraw-S-bulk``: the redraw-bound call, ``grow_sequence``
  from a complete 2-node seed with m=3, m_hat=0 and alpha 1 - 1e-9 for S
  steps (2 or 50), whose step 2 redraws until the bound stops it; ``-bulk``
  sets ``netmodel._BULK_MIN`` to 0, so the draws come through numpy's
  ``MT19937`` instead of ``rng.random()``; its result is the error text and
  a sha256 of the rng state after the call;
- ``mle-A``: ``mle_estimate`` on the FIG3 log at alpha A (0, 0.6, 1);
- ``solve-0.6``: the MLE's solve alone, ``likelihood._maximize`` on that log;
- ``prefix-S-A``: ``prefix_estimates`` at stride S on that log;
- ``step-0.6``: ``step_estimates``;
- ``cite-load``: ``ingest.load_dataset`` on the seed-0 citation pair of
  ``perfbench/inputs.py`` (``--papers`` papers, default 10000); its result is
  the dataset's labels, date ordinals, cleaned pairs and drop counts (its
  ``dates`` follow from the labels and ordinals);
- ``cite-replay``: ``build_replay`` and ``replay_to_samplelog`` on that
  dataset at the pair's cutoff; its result is the log's columns, the final
  in-degrees, the citations per step and the manifest;
- ``cite-mle``: ``mle_estimate`` on that replay's log;
- ``cite``: ``mixnet.cli.main`` on ``cite <edges> <dates> --cutoff <cutoff>
  --m 12 --m-hat 0``, the call of perfbench's ``cite-replay`` workload; its
  result is stdout and the bytes of ``ccdf.csv``, ``estimates.json``,
  ``replay_manifest.json`` and ``samplelog.csv``;
- ``em-0.6``: ``em_estimate`` on the FIG3 log at alpha 0.6 in one part, on a
  pool worker beside an empty ``beside`` call, as ``cite`` and ``estimate
  --trace`` run it; its result is the iterates, the convergence flag and the
  estimate;
- ``em2-0.6``: the same EM split in two parts, the calling thread taking the
  first and a pool worker the second, as ``estimate`` without a trace runs it
  (``em_estimate`` without ``beside``); its digest is ``em-0.6``'s.  On a tree
  whose ``em_estimate`` has no ``beside``, both run what that tree's ``cli``
  ran: ``em_setup``'s steps, split where ``em_setup`` can split;
- ``cite-em``: ``em-0.6``'s call on the ``cite-replay`` log;
- ``csv-bytes`` and ``csv-read``: ``SampleLog.csv_bytes`` of the alpha 0.6
  FIG3 log, and ``SampleLog.from_csv`` of the file ``to_csv`` wrote from it;
  their results are the bytes, and the read log's columns;
- ``edge-list``: ``write_edge_list`` of the network ``grow-0.6`` grows; its
  result is the file's bytes;
- ``pmf-array`` and ``ccdf-array``: ``StationaryDistribution.pmf_array`` and
  ``ccdf_array`` at FIG3's parameters and k-max ``LARGE_K_MAX``; their
  results are the arrays' bytes;
- ``dist-ensemble``: ``mixnet.cli.main`` on ``dist --m 5 --m-hat 3 --alpha 0.6
  --k-max 45 --ensemble 4 --workers 2 --steps <steps> --rng-seed 1``,
  perfbench's ``ensemble`` call with four members; its result is stdout and
  the bytes of ``theory.csv`` and ``empirical.csv``;
- ``trace`` and ``snapshot``: ``mixnet.cli.main`` on ``estimate <log>
  --method mle --trace`` (stride 100), the trace without EM, and on ``estimate
  <log> --trace --snapshot-mode``, with the alpha 0.6 log written as CSV;
- ``estimate`` and ``estimate-trace``: ``main`` on ``estimate <log> --method
  both``, and on the same call with ``--trace --stride 100``, whose EM
  iterates on a worker thread while the trace runs; their results include
  ``em_trace.csv``.

It prints one JSON object: for each layer and side the median and quartiles
of the timed call in seconds, the sha256 of the layer's result (its reprs,
its arrays' bytes, or the bytes of the files ``main`` wrote), the
``_derivative`` row passes per solve (0 for a layer that solves nothing: the
import, growth, ``simulate``, redraw, EM, ``cite-load``, ``cite-replay``, CSV,
edge-list, distribution and ``dist-ensemble`` layers), and whether both sides'
results are equal; a ``grow-*`` layer adds the median and quartiles of its
first calls (``first_*``).  With two sides,
each layer also reports in how many of its ``--reps`` pairs of runs (the i-th
run of each side) the change's call was the faster (and for ``grow-*`` the
first call, too), which a few-percent move can show when the quartiles of
one-call timings overlap.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the calls a ``grow-*`` run times after its first
GROW_CALLS = 5
#: the k-max of the ``pmf-array`` and ``ccdf-array`` layers
LARGE_K_MAX = 1_000_000
LAYERS = ("import-cli", "grow-0", "grow-0.6", "grow-1", "grow-degrees-0.6", "grow-step",
          "simulate", "redraw-2", "redraw-50", "redraw-2-bulk", "redraw-50-bulk", "csv-bytes",
          "csv-read", "edge-list", "mle-0", "mle-0.6", "mle-1", "solve-0.6", "prefix-100-0",
          "prefix-100-0.6", "prefix-100-1", "prefix-5000-0.6", "step-0.6", "em-0.6", "em2-0.6",
          "pmf-array", "ccdf-array", "dist-ensemble", "cite-load", "cite-replay", "cite-mle",
          "cite-em", "cite", "trace", "snapshot", "estimate", "estimate-trace")


def perfbench_inputs():
    """``perfbench/inputs.py``, the mixnet-free generator of the benchmark's inputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    return inputs


def fig3_log(alpha: float, steps: int):
    from mixnet import SampleLog

    records = perfbench_inputs().growth_log(1, steps, 5, 3, alpha, 3)
    return SampleLog(records.k, records.e_prev, records.n_prev, records.step)


def fig3_grown(alpha: float, steps: int) -> tuple:
    """The network and log ``grow_sequence`` grows at FIG3 and ``alpha`` with
    ``keep_edges``, from a fresh ``make_rng(1)``."""
    from mixnet import ModelParams, SeedSpec, grow_sequence, make_rng

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the K3 seed has fewer nodes than m
        return grow_sequence(SeedSpec.complete(3), ModelParams(5, 3, alpha), steps,
                             make_rng(1), keep_edges=True)


def grow(alpha: float, steps: int) -> list:
    net, log = fig3_grown(alpha, steps)
    return [a.astype("<i8").tobytes() for a in (log.step, log.k, log.e_prev, log.n_prev,
                                                net.in_degree, net._edge_sources,
                                                net._edge_targets)]


def grow_degrees(alpha: float, steps: int) -> list:
    """The ``grow-degrees-A`` call: FIG3 growth without records where the
    tree's ``grow_sequence`` can skip them."""
    import inspect

    from mixnet import ModelParams, SeedSpec, grow_sequence, make_rng

    rng = make_rng(1)
    skip = {"records": False} if "records" in inspect.signature(grow_sequence).parameters else {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the K3 seed has fewer nodes than m
        net, _ = grow_sequence(SeedSpec.complete(3), ModelParams(5, 3, alpha), steps, rng, **skip)
    return [net.in_degree.astype("<i8").tobytes(), net._edge_targets.astype("<i8").tobytes(),
            rng.getstate()]


def grow_steps(steps: int):
    """The ``grow-step`` call: 200 ``grow_step`` calls from one FIG3 network."""
    from mixnet import GrowingNetwork, ModelParams, SeedSpec, grow_sequence, grow_step, make_rng

    params, rng = ModelParams(5, 3, 0.6), make_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the K3 seed has fewer nodes than m
        net, _ = grow_sequence(SeedSpec.complete(3), params, steps, rng)
    state = rng.getstate()

    def call() -> list:
        # growth replaces the network's arrays rather than writing into them
        grown = GrowingNetwork(net.in_degree, net._edge_targets)
        rng.setstate(state)
        records = [grow_step(grown, params, rng)[1] for _ in range(200)]
        return [records, grown.in_degree.astype("<i8").tobytes()]

    return call


def import_cli() -> list:
    """The ``import-cli`` call: the ``mixnet`` modules ``import mixnet.cli`` loads."""
    import mixnet.cli  # noqa: F401

    return sorted(name for name in sys.modules if name.split(".")[0] == "mixnet")


def redraw(steps: int, bulk: bool) -> list:
    """The ``redraw-S`` call: growth whose step 2 hits the redraw bound."""
    from mixnet import ModelParams, SeedSpec, grow_sequence, make_rng, netmodel

    rng = make_rng(0)
    if bulk:
        netmodel._BULK_MIN = 0
    try:
        grow_sequence(SeedSpec.complete(2), ModelParams(3, 0, 1 - 1e-9), steps, rng)
    except netmodel.StructuralError as exc:
        return [str(exc), hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()]
    raise AssertionError("the redraw bound was not reached")


def em_result(log, split: bool = False) -> list:
    """``em_estimate`` on ``log``, in one part beside an empty call or ``split``
    in two: its iterates, convergence and estimate."""
    import inspect
    from concurrent.futures import ThreadPoolExecutor

    from mixnet import em

    if "beside" in inspect.signature(em.em_estimate).parameters:
        trace = em.em_estimate(log, beside=None if split else lambda: None)
    else:  # a tree whose cli ran em_setup's steps, on a pool thread and this one
        split = split and "split" in inspect.signature(em.em_setup).parameters
        steps, _ = em.em_setup(log, **({"split": True} if split else {}))
        with ThreadPoolExecutor(max_workers=1) as pool:
            job = pool.submit(steps[-1])
            for step in steps[:-1]:
                step()
            trace = job.result()
    return [trace.iterations, trace.converged, trace.final_alpha]


def cite_layer(stage: str, papers: int, work: Path):
    """(call, solves) of a ``cite-*`` layer or of ``cite`` (``stage`` "")."""
    from mixnet import likelihood
    from mixnet.ingest import build_replay, load_dataset, replay_to_samplelog

    edges, dates = work / "edges.txt", work / "dates.txt"
    cutoff = perfbench_inputs().citation_data(0, papers, edges, dates).cutoff
    if stage == "load":
        def load() -> list:
            ds = load_dataset(edges, dates)
            return [ds.labels, *(a.astype("<i8").tobytes() for a in (ds.day, ds.citing, ds.cited)),
                    ds.duplicate_edges_dropped, ds.self_citations_dropped,
                    ds.undated_citing_dropped]

        return load, lambda result: 0
    if stage == "":
        argv = ["cite", str(edges), str(dates), "--cutoff", cutoff, "--m", "12", "--m-hat", "0"]
        files = ("ccdf.csv", "estimates.json", "replay_manifest.json", "samplelog.csv")
        return main_call(argv, work, files), lambda result: 1
    ds, day = load_dataset(edges, dates), datetime.date.fromisoformat(cutoff)
    if stage == "replay":
        def replay() -> list:
            result = replay_to_samplelog(build_replay(ds, day))
            log = result.sample_log
            return [*(a.astype("<i8").tobytes() for a in (log.step, log.k, log.e_prev, log.n_prev,
                                                         result.in_degrees,
                                                         result.citations_per_step)),
                    result.manifest]

        return replay, lambda result: 0
    log = replay_to_samplelog(build_replay(ds, day)).sample_log
    if stage == "em":
        return lambda: em_result(log), lambda result: 0
    return lambda: [likelihood.mle_estimate(log).to_dict()], len


def main_call(argv: list, work: Path, files: tuple):
    """A call of ``mixnet.cli.main`` on ``argv`` into a fresh output directory;
    its result is stdout and the bytes of ``files``."""
    from mixnet.cli import main

    runs = itertools.count()

    def call() -> list:
        out = work / f"out{next(runs)}"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main([*argv, "--out", str(out)])
        if code:
            raise RuntimeError(f"{' '.join(argv[:1])} exited {code}")
        return [stdout.getvalue().encode(), *((out / name).read_bytes() for name in files)]

    return call


def prepare(layer: str, steps: int, papers: int, work: Path):
    """(call, solves): the timed callable and the number of solves a result holds."""
    from mixnet import likelihood

    kind, *rest = layer.split("-")
    if kind == "grow" and rest == ["step"]:
        return grow_steps(steps), lambda result: 0
    if kind == "grow" and rest[0] == "degrees":
        return lambda: grow_degrees(float(rest[1]), steps), lambda result: 0
    if kind == "grow":
        return lambda: grow(float(rest[0]), steps), lambda result: 0
    if kind == "simulate":
        argv = ["simulate", "complete:3", "--m", "5", "--m-hat", "3", "--alpha", "0.6",
                "--steps", str(steps), "--rng-seed", "1"]
        return main_call(argv, work, ("samplelog.csv",)), lambda result: 0
    if kind == "redraw":
        return lambda: redraw(int(rest[0]), rest[1:] == ["bulk"]), lambda result: 0
    if kind == "mle":
        log = fig3_log(float(rest[0]), steps)
        return lambda: [likelihood.mle_estimate(log).to_dict()], len
    if kind == "solve":
        d, c = likelihood._slope_intercept(fig3_log(float(rest[0]), steps))
        return lambda: likelihood._maximize(d[None], c[None]).tolist(), len
    if kind == "prefix":
        log, stride = fig3_log(float(rest[1]), steps), int(rest[0])
        points = range(stride, log.n_steps + 1, stride)
        return lambda: likelihood.prefix_estimates(log, points), len
    if kind == "step":
        log = fig3_log(float(rest[0]), steps)
        return lambda: likelihood.step_estimates(log), len
    if kind in ("em", "em2"):
        log = fig3_log(float(rest[0]), steps)
        return lambda: em_result(log, split=kind == "em2"), lambda result: 0
    if kind == "csv":
        from mixnet import SampleLog

        log, path = fig3_log(0.6, steps), work / "samplelog.csv"
        if rest == ["bytes"]:
            return lambda: [bytes(log.csv_bytes())], lambda result: 0
        log.to_csv(path)

        def read() -> list:
            back = SampleLog.from_csv(path)
            return [a.astype("<i8").tobytes() for a in (back.step, back.k, back.e_prev,
                                                        back.n_prev)]

        return read, lambda result: 0
    if kind == "edge":
        from mixnet.netmodel import write_edge_list

        net, _ = fig3_grown(0.6, steps)

        def write() -> list:
            write_edge_list(net, work / "graph.edgelist")
            return [(work / "graph.edgelist").read_bytes()]

        return write, lambda result: 0
    if kind in ("pmf", "ccdf"):
        from mixnet import ModelParams, StationaryDistribution

        array = getattr(StationaryDistribution(ModelParams(5, 3, 0.6)), f"{kind}_array")
        return lambda: [array(LARGE_K_MAX).tobytes()], lambda result: 0
    if kind == "dist":
        argv = ["dist", "--m", "5", "--m-hat", "3", "--alpha", "0.6", "--k-max", "45",
                "--ensemble", "4", "--workers", "2", "--steps", str(steps), "--rng-seed", "1"]
        return main_call(argv, work, ("theory.csv", "empirical.csv")), lambda result: 0
    if kind == "cite":
        return cite_layer("".join(rest), papers, work)
    path = work / "samplelog.csv"
    fig3_log(0.6, steps).to_csv(path)
    flags = {"trace": ["--method", "mle", "--trace"], "snapshot": ["--trace", "--snapshot-mode"],
             "estimate": ["--method", "both"],
             "estimate-trace": ["--method", "both", "--trace", "--stride", "100"]}[layer]
    if "--trace" not in flags:
        return main_call(["estimate", str(path), *flags], work,
                         ("estimate.json", "em_trace.csv")), lambda result: 1  # the MLE
    # the trace's rows plus the full-log MLE
    files = ("estimate.json", "trace.csv") + (("em_trace.csv",) if kind == "estimate" else ())
    return (main_call(["estimate", str(path), *flags], work, files),
            lambda result: result[2].count(b"\n"))


def timed(call) -> tuple:
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def digest(result: list) -> str:
    data = b"".join(x if isinstance(x, bytes) else repr(x).encode() + b"\n" for x in result)
    return hashlib.sha256(data).hexdigest()


def worker(layer: str, steps: int, papers: int) -> dict:
    """The timed calls of ``layer`` in this interpreter, as a JSON-ready dict."""
    if layer == "import-cli":  # only an interpreter's first import loads anything
        seconds, result = timed(import_cli)
        return {"seconds": seconds, "sha256": digest(result), "passes_per_solve": 0}
    from mixnet import likelihood

    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        call, solves = prepare(layer, steps, papers, Path(tmp))
        if layer.startswith("grow"):
            times["first_seconds"], result = timed(call)
            times["seconds"] = min(timed(call)[0] for _ in range(GROW_CALLS))
        else:
            call()
            times["seconds"], result = timed(call)
        derivative, passes = likelihood._derivative, [0]

        def counted(d, c, alpha, out=None):
            passes[0] += d.shape[0] if d.ndim == 2 else 1
            return derivative(d, c, alpha, out)

        likelihood._derivative = counted
        try:
            call()
        finally:
            likelihood._derivative = derivative
    return {**times, "sha256": digest(result),
            "passes_per_solve": passes[0] / max(solves(result), 1)}


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("change_src", type=Path, nargs="?")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--layers", default=",".join(LAYERS))
    parser.add_argument("--steps", type=int, default=20000)
    parser.add_argument("--papers", type=int, default=10000)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker, args.steps, args.papers)))
        return 0
    sides = {"base": args.base_src.resolve()}
    if args.change_src:
        sides["change"] = args.change_src.resolve()
    for src in sides.values():
        if not (src / "mixnet" / "__init__.py").is_file():
            parser.error(f"{src} holds no mixnet package")
    layers = args.layers.split(",")
    unknown = sorted(set(layers) - set(LAYERS))
    if unknown:
        parser.error(f"unknown layers {unknown}; choose from {', '.join(LAYERS)}")

    runs = {layer: {side: [] for side in sides} for layer in layers}
    for layer in layers:
        for rep in range(args.reps):
            order = list(sides) if rep % 2 == 0 else list(reversed(sides))
            for side in order:
                env = {**os.environ, "PYTHONPATH": str(sides[side])}
                done = subprocess.run(
                    [sys.executable, __file__, str(sides[side]), "--worker", layer,
                     "--steps", str(args.steps), "--papers", str(args.papers)],
                    env=env, capture_output=True, text=True)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    print(f"layers: {layer} failed on {side}", file=sys.stderr)
                    return 2
                runs[layer][side].append(json.loads(done.stdout))

    report = {"sides": {side: str(src) for side, src in sides.items()},
              "steps": args.steps, "reps": args.reps, "layers": {}}
    for layer, by_side in runs.items():
        entry = {}
        timings = [key for key in ("seconds", "first_seconds") if key in by_side["base"][0]]
        for side, results in by_side.items():
            digests = {r["sha256"] for r in results}
            entry[side] = {"sha256": digests.pop() if len(digests) == 1 else "varies",
                           "passes_per_solve": results[0]["passes_per_solve"]}
            for key in timings:
                prefix = key.replace("seconds", "")
                q1, median, q3 = quartiles([r[key] for r in results])
                entry[side].update({f"{prefix}median_s": median, f"{prefix}q1_s": q1,
                                    f"{prefix}q3_s": q3})
        entry["same"] = len({entry[side]["sha256"] for side in by_side}) == 1
        if "change" in by_side:
            for key in timings:
                entry[f"change_faster_{key.replace('seconds', '')}pairs"] = sum(
                    c[key] < b[key] for b, c in zip(by_side["base"], by_side["change"]))
        report["layers"][layer] = entry
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
