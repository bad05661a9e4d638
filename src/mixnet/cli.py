"""Command-line surface: reproducible simulation and estimation pipelines.

Every subcommand writes tidy CSV/JSON files plus a run manifest into its
output directory; plotting is left to external tools.  Exit codes: 0 on
success, 1 on domain or validation errors and on running out of memory, 2 on
I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
# each subcommand imports the estimator, distribution and ingest modules it runs
from .netmodel import (
    ModelParams,
    SampleLog,
    SeedSpec,
    grow_sequence,
    make_rng,
    read_seed_spec,
    write_edge_list,
)


def _resolve_seed_spec(spec: str) -> SeedSpec:
    if spec.startswith("complete:"):
        return SeedSpec.complete(int(spec.split(":", 1)[1]))
    return read_seed_spec(spec)


#: parsed names that are not run parameters
_NOT_PARAMS = ("subcommand", "func", "out", "config")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


class _Run:
    """One subcommand call: its output directory, the files written, its manifest.

    The directory is made on the first write, and a subcommand computes all
    its results before that, so a call that fails leaves nothing on disk.
    """

    def __init__(self, args):
        self.subcommand = args.subcommand
        self.params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
        self.out_dir = args.out or os.environ.get("MIXNET_OUT") or "."
        self.outputs: list[str] = []
        self.started = time.perf_counter()

    def path(self, name: str) -> str:
        """Path of the output file ``name``, recorded in write order."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        self.outputs.append(path)
        return path

    def write_csv(self, name: str, header: list, rows) -> None:
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    def write_json(self, name: str, obj) -> None:
        with open(self.path(name), "w") as fh:
            fh.write(_dumps(obj) + "\n")

    def write_manifest(self) -> None:
        self.write_json("manifest.json", {
            "subcommand": self.subcommand,
            "params": self.params,
            "outputs": list(self.outputs),  # a copy: the manifest's own path is not listed
            "version": __version__,
            "duration_s": round(time.perf_counter() - self.started, 3),
        })


def cmd_simulate(args, run: _Run) -> None:
    seed_spec = _resolve_seed_spec(args.seed_spec)
    params = ModelParams(m=args.m, m_hat=args.m_hat, alpha=args.alpha)
    rng = make_rng(args.rng_seed)
    print(f"rng seed: {args.rng_seed}")
    net, sample_log = grow_sequence(
        seed_spec, params, args.steps, rng, keep_edges=args.export_graph
    )
    sample_log.to_csv(run.path("samplelog.csv"))
    if args.export_graph:
        write_edge_list(net, run.path("graph.edgelist"))
        if not args.seed_spec.startswith("complete:"):
            # the graph numbers a file seed's nodes 0..n0-1 in this order
            run.params["seed_labels"] = list(seed_spec.nodes)
    run.params.update(nodes=net.node_count, edges=net.edge_count)


def cmd_estimate(args, run: _Run) -> None:
    from .likelihood import mle_estimate, prefix_estimates, step_estimates

    if args.trace and args.stride < 1:
        raise ValueError(f"stride must be >= 1, got {args.stride}")
    if args.method != "mle":  # the EM flags, and the em module, serve only EM
        from .em import EmConfig, em_estimate

        cfg = EmConfig(
            alpha_init=args.alpha_init, epsilon=args.epsilon, max_iter=args.max_iter,
            keep_zero_indegree=args.keep_zero_indegree,
        )
    sample_log = SampleLog.from_csv(args.log)
    result: dict = {}

    if args.method in ("mle", "both"):
        # k=0 records stay in the MLE input: they contribute roots at 1
        result["mle"] = mle_estimate(sample_log).to_dict()

    rows: list = []  # the trace's (t, alpha_hat) rows

    def trace_rows() -> None:
        if args.snapshot_mode:
            rows.extend(step_estimates(sample_log))
            return
        # a replayed log starts at its first arrival that cites anything
        # (the estimates above have rejected an empty log)
        first = int(sample_log.step[0])
        start = -(-first // args.stride) * args.stride
        steps = range(start, sample_log.n_steps + 1, args.stride)
        rows.extend(zip(steps, prefix_estimates(sample_log, steps)))

    if args.method != "mle":
        # EM iterates beside the trace; without one, this thread runs part of EM's records
        trace = em_estimate(sample_log, cfg, trace_rows if args.trace else None)
        result["em"] = {
            "alpha_hat": trace.final_alpha,
            "converged": trace.converged,
            "iterations": len(trace.iterations) - 1,
            "loglik": trace.iterations[-1][1],
        }
    elif args.trace:
        trace_rows()

    if "em" in result:
        run.write_csv("em_trace.csv", ["iter", "alpha", "loglik"],
                      ((i, *pair) for i, pair in enumerate(trace.iterations)))
    run.write_json("estimate.json", result)
    if args.trace:
        run.write_csv("trace.csv", ["t", "alpha_hat"], rows)
    print(_dumps(result))


def _ensemble_member(job) -> np.ndarray:
    """One member's empirical CCDF, from a network grown without records."""
    from .degree_dist import ccdf_from_indegrees

    seed_spec, params, steps, rng_seed, stream, k_max = job
    net, _ = grow_sequence(seed_spec, params, steps, make_rng(rng_seed, stream), records=False)
    return ccdf_from_indegrees(net.in_degree_array(), k_max)


def cmd_dist(args, run: _Run) -> None:
    from .degree_dist import StationaryDistribution

    params = ModelParams(m=args.m, m_hat=args.m_hat, alpha=args.alpha)
    if args.k_max < params.m_hat:
        raise ValueError(f"k-max {args.k_max} below the support start m_hat={params.m_hat}")
    if args.ensemble < 0:
        raise ValueError(f"ensemble must be >= 0 (0: theory only), got {args.ensemble}")
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    if args.steps < 0:
        raise ValueError(f"steps must be >= 0, got {args.steps}")

    dist = StationaryDistribution(params)
    ks = range(params.m_hat, args.k_max + 1)
    pmf = dist.pmf_array(args.k_max)
    ccdf = dist.ccdf_array(args.k_max)
    if args.ensemble:
        print(f"rng seed: {args.rng_seed}")
        seed_spec = _resolve_seed_spec(args.seed_spec)
        jobs = [
            (seed_spec, params, args.steps, args.rng_seed, i, args.k_max)
            for i in range(args.ensemble)
        ]
        workers = min(args.workers, args.ensemble)  # a pool starts all its workers at once
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                ccdfs = list(pool.map(_ensemble_member, jobs))
        else:
            ccdfs = [_ensemble_member(job) for job in jobs]
        mean_ccdf = np.mean(ccdfs, axis=0)

    run.write_csv("theory.csv", ["k", "pmf", "ccdf"], zip(ks, pmf.tolist(), ccdf.tolist()))
    if args.ensemble:
        run.write_csv("empirical.csv", ["k", "ccdf_empirical"], enumerate(mean_ccdf.tolist()))


def cmd_cite(args, run: _Run) -> None:
    from .degree_dist import StationaryDistribution, ccdf_from_indegrees
    from .em import EmConfig, em_estimate
    from .ingest import build_replay, load_dataset, replay_to_samplelog
    from .likelihood import mle_estimate

    if args.k_max < 0:
        raise ValueError("k-max must be >= 0 (0: data max)")
    ModelParams(m=args.m, m_hat=args.m_hat, alpha=0.0)  # checks --m and --m-hat
    em_cfg = EmConfig(epsilon=args.epsilon, keep_zero_indegree=args.keep_zero_indegree_em)
    cutoff = datetime.date.fromisoformat(args.cutoff)
    ds = load_dataset(args.edges, args.dates)
    replay = replay_to_samplelog(build_replay(ds, cutoff))
    if not len(replay.sample_log):
        raise ValueError(f"no citations from papers dated after {cutoff}")
    mle_log = (
        replay.sample_log if args.keep_zero_indegree_mle
        else replay.sample_log.drop_zero_indegree()
    )
    mle_report = mle_estimate(mle_log)

    side: list = []  # k_max, the empirical ccdf and samplelog.csv's bytes

    def side_work() -> None:
        k_max = args.k_max or int(replay.in_degrees.max())
        side.extend((k_max, ccdf_from_indegrees(replay.in_degrees, k_max),
                     replay.sample_log.csv_bytes()))

    # EM iterates on a worker while this thread does the work that does not need it
    em_trace = em_estimate(replay.sample_log, em_cfg, side_work)
    k_max, emp_ccdf, samplelog_csv = side

    # theoretical overlays at both estimates (1 up to m_hat) against the empirical ccdf
    overlays = {}
    for name, alpha_hat in (("mle", mle_report.alpha_hat), ("em", em_trace.final_alpha)):
        overlays[name] = np.ones(k_max + 1)
        if k_max >= args.m_hat:
            overlay = ModelParams(m=args.m, m_hat=args.m_hat, alpha=alpha_hat)
            overlays[name][args.m_hat:] = StationaryDistribution(overlay).ccdf_array(k_max)

    Path(run.path("samplelog.csv")).write_bytes(samplelog_csv)
    run.write_json("estimates.json", {
        "mle": mle_report.to_dict(),
        "em": {
            "alpha_hat": em_trace.final_alpha,
            "converged": em_trace.converged,
        },
        # the estimates above need records, hence at least one arrival
        "mean_citations_per_arrival": float(np.mean(replay.citations_per_step)),
        "median_citations_per_arrival": float(np.median(replay.citations_per_step)),
    })
    run.write_csv(
        "ccdf.csv", ["k", "ccdf_empirical", "ccdf_theory_mle", "ccdf_theory_em"],
        zip(range(k_max + 1), emp_ccdf.tolist(),
            overlays["mle"].tolist(), overlays["em"].tolist()),
    )
    run.write_json("replay_manifest.json", replay.manifest)
    print(_dumps({**replay.manifest, "alpha_mle": mle_report.alpha_hat,
                  "alpha_em": em_trace.final_alpha}))


_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _config_value(action, value: str):
    """``value`` converted and checked as its flag's argument would be."""
    if action.nargs == 0:  # a switch: its stored value when on
        if value.lower() not in _SWITCH_VALUES:
            raise ValueError(f"expected one of {'/'.join(_SWITCH_VALUES)}, got {value!r}")
        return action.const if _SWITCH_VALUES[value.lower()] else not action.const
    converted = action.type(value) if action.type else value
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"expected one of {'/'.join(action.choices)}, got {value!r}")
    return converted


def _config_defaults(path, subparsers: dict, subcommand: str) -> dict:
    """``subcommand``'s defaults from a file of key=value lines.

    Keys use the long option spelling with '-' or '_'.  A key of another
    subcommand is ignored, so one file can serve them all; a key that no
    subcommand has is an error.
    """
    options = {
        name: {option[2:].replace("-", "_"): a for a in sub._actions if a.dest != "help"
               for option in a.option_strings if option.startswith("--")}
        for name, sub in subparsers.items()
    }
    defaults = {}
    for lineno, line in enumerate(Path(path).read_text().split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not any(key in opts for opts in options.values()):
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in options[subcommand]:
            try:
                action = options[subcommand][key]
                defaults[action.dest] = _config_value(action, value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return defaults


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subparsers by subcommand name."""
    parser = argparse.ArgumentParser(
        prog="mixnet",
        description="Mixed random/preferential attachment growth and estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value file providing flag defaults")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="grow a network and write its sample log")
    p.add_argument("seed_spec", help="edge-list file or builtin 'complete:N'")
    p.add_argument("--m", type=int, default=1, help="outgoing edges per new node")
    p.add_argument("--m-hat", type=int, default=0, help="incoming response edges per new node")
    p.add_argument("--alpha", type=float, default=0.5, help="preferential-attachment weight")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--export-graph", action="store_true", help="also write the edge list")
    p.add_argument("--out", help="output directory (default $MIXNET_OUT or .)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate alpha from a sample log")
    p.add_argument("log", help="sample log CSV from 'simulate' or 'cite'")
    p.add_argument("--method", choices=("mle", "em", "both"), default="both")
    p.add_argument("--alpha-init", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--keep-zero-indegree", action="store_true",
                   help="keep k=0 records in the EM input")
    p.add_argument("--trace", action="store_true",
                   help="write a per-time estimate trace (t, alpha_hat)")
    p.add_argument("--stride", type=int, default=100, help="trace re-estimation stride")
    p.add_argument("--snapshot-mode", action="store_true",
                   help="trace per-step single-snapshot estimates instead of prefixes")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("dist", help="theoretical and simulated in-degree distributions")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--m-hat", type=int, default=0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--ensemble", type=int, default=0,
                   help="number of simulation runs to average (0: theory only)")
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--seed-spec", default="complete:3")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("cite", help="replay a citation dataset and estimate alpha")
    p.add_argument("edges", help="SNAP-style edge file (citing cited)")
    p.add_argument("dates", help="dates file (id<TAB>YYYY-MM-DD)")
    p.add_argument("--cutoff", required=True, help="seed cutoff date, YYYY-MM-DD")
    p.add_argument("--m", type=int, default=12,
                   help="attachment count for the theoretical overlay")
    p.add_argument("--m-hat", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.add_argument("--k-max", type=int, default=0, help="overlay support (0: data max)")
    p.add_argument("--keep-zero-indegree-mle", action="store_true", default=True)
    p.add_argument("--drop-zero-indegree-mle", dest="keep_zero_indegree_mle",
                   action="store_false")
    p.add_argument("--keep-zero-indegree-em", action="store_true", default=False)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cite)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the subcommand's defaults, so explicit flags win
            subparsers[args.subcommand].set_defaults(
                **_config_defaults(args.config, subparsers, args.subcommand)
            )
            args = parser.parse_args(argv)
        run = _Run(args)
        args.func(args, run)
        run.write_manifest()
        return 0
    except OSError as exc:
        print(f"mixnet: I/O error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"mixnet: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"mixnet: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
