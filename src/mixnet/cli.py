"""Command-line surface: reproducible simulation and estimation pipelines.

Every subcommand writes tidy CSV/JSON files plus a run manifest into its
output directory; plotting is left to external tools.  Exit codes: 0 on
success, 1 on domain or validation errors, 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .degree_dist import StationaryDistribution, ccdf_from_indegrees
from .em import EmConfig, em_estimate
from .ingest import build_replay, load_dataset, replay_to_samplelog
from .likelihood import mle_estimate, prefix_estimates, step_estimates
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


def _out_dir(args) -> str:
    out = args.out or os.environ.get("MIXNET_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(out_dir: str, subcommand: str, params: dict, outputs: list,
                    started: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "params": params,
        "outputs": outputs,
        "version": __version__,
        "duration_s": round(time.time() - started, 3),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args) -> int:
    started = time.time()
    out_dir = _out_dir(args)
    seed_spec = _resolve_seed_spec(args.seed_spec)
    params = ModelParams(m=args.m, m_hat=args.m_hat, alpha=args.alpha)
    rng = make_rng(args.rng_seed)
    print(f"rng seed: {args.rng_seed}")
    net, sample_log = grow_sequence(
        seed_spec, params, args.steps, rng, keep_edges=args.export_graph
    )
    log_path = os.path.join(out_dir, "samplelog.csv")
    sample_log.to_csv(log_path)
    outputs = [log_path]
    if args.export_graph:
        graph_path = os.path.join(out_dir, "graph.edgelist")
        write_edge_list(net, graph_path)
        outputs.append(graph_path)
    _write_manifest(out_dir, "simulate", {
        "seed_spec": args.seed_spec, "m": args.m, "m_hat": args.m_hat,
        "alpha": args.alpha, "steps": args.steps, "rng_seed": args.rng_seed,
        "nodes": net.node_count, "edges": net.edge_count,
    }, outputs, started)
    return 0


def cmd_estimate(args) -> int:
    started = time.time()
    if args.trace and args.stride < 1:
        raise ValueError(f"stride must be >= 1, got {args.stride}")
    out_dir = _out_dir(args)
    sample_log = SampleLog.from_csv(args.log)
    cfg = EmConfig(
        alpha_init=args.alpha_init, epsilon=args.epsilon, max_iter=args.max_iter,
        keep_zero_indegree=args.keep_zero_indegree,
    )
    result: dict = {}
    outputs = []

    if args.method in ("mle", "both"):
        # k=0 records stay in the MLE input: they contribute roots at 1
        report = mle_estimate(sample_log)
        result["mle"] = report.to_dict()
    if args.method in ("em", "both"):
        trace = em_estimate(sample_log, cfg)
        result["em"] = {
            "alpha_hat": trace.final_alpha,
            "converged": trace.converged,
            "iterations": len(trace.iterations) - 1,
            "loglik": trace.iterations[-1][1],
        }
        trace_path = os.path.join(out_dir, "em_trace.csv")
        trace.to_csv(trace_path)
        outputs.append(trace_path)

    est_path = os.path.join(out_dir, "estimate.json")
    with open(est_path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(est_path)

    if args.trace:
        if args.snapshot_mode:
            rows = step_estimates(sample_log)
        else:
            steps = range(args.stride, sample_log.n_steps + 1, args.stride)
            rows = list(zip(steps, prefix_estimates(sample_log, steps)))
        trace_path = os.path.join(out_dir, "trace.csv")
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "alpha_hat"])
            for t, a in rows:
                writer.writerow([t, repr(a)])
        outputs.append(trace_path)

    _write_manifest(out_dir, "estimate", {
        "log": args.log, "method": args.method, "alpha_init": args.alpha_init,
        "epsilon": args.epsilon, "max_iter": args.max_iter,
        "keep_zero_indegree": args.keep_zero_indegree,
        "trace": args.trace, "stride": args.stride, "snapshot_mode": args.snapshot_mode,
    }, outputs, started)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _ensemble_member(job) -> np.ndarray:
    seed_spec, params, steps, rng_seed, stream = job
    rng = make_rng(rng_seed, stream)
    net, _ = grow_sequence(seed_spec, params, steps, rng)
    return net.in_degree_array()


def cmd_dist(args) -> int:
    started = time.time()
    out_dir = _out_dir(args)
    params = ModelParams(m=args.m, m_hat=args.m_hat, alpha=args.alpha)
    if args.k_max < params.m_hat:
        raise ValueError(f"k-max {args.k_max} below the support start m_hat={params.m_hat}")

    dist = StationaryDistribution(params)
    ks = np.arange(params.m_hat, args.k_max + 1)
    pmf = dist.pmf_array(args.k_max)
    ccdf = dist.ccdf_array(args.k_max)
    theory_path = os.path.join(out_dir, "theory.csv")
    with open(theory_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "pmf", "ccdf"])
        for k, p, f in zip(ks, pmf, ccdf):
            writer.writerow([int(k), repr(float(p)), repr(float(f))])
    outputs = [theory_path]

    if args.ensemble > 0:
        print(f"rng seed: {args.rng_seed}")
        seed_spec = _resolve_seed_spec(args.seed_spec)
        jobs = [
            (seed_spec, params, args.steps, args.rng_seed, i)
            for i in range(args.ensemble)
        ]
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                degree_arrays = list(pool.map(_ensemble_member, jobs))
        else:
            degree_arrays = [_ensemble_member(job) for job in jobs]
        mean_ccdf = np.mean(
            [ccdf_from_indegrees(d, args.k_max) for d in degree_arrays], axis=0
        )
        emp_path = os.path.join(out_dir, "empirical.csv")
        with open(emp_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "ccdf_empirical"])
            for k in range(args.k_max + 1):
                writer.writerow([k, repr(float(mean_ccdf[k]))])
        outputs.append(emp_path)

    _write_manifest(out_dir, "dist", {
        "m": args.m, "m_hat": args.m_hat, "alpha": args.alpha,
        "k_max": args.k_max, "ensemble": args.ensemble, "steps": args.steps,
        "rng_seed": args.rng_seed, "seed_spec": args.seed_spec,
        "workers": args.workers,
    }, outputs, started)
    return 0


def cmd_cite(args) -> int:
    started = time.time()
    if args.k_max < 0:
        raise ValueError("k-max must be >= 0 (0: data max)")
    out_dir = _out_dir(args)
    ds = load_dataset(args.edges, args.dates)
    cutoff = datetime.date.fromisoformat(args.cutoff)
    seq = build_replay(ds, cutoff)
    replay = replay_to_samplelog(seq)

    log_path = os.path.join(out_dir, "samplelog.csv")
    replay.sample_log.to_csv(log_path)

    mle_log = (
        replay.sample_log if args.keep_zero_indegree_mle
        else replay.sample_log.drop_zero_indegree()
    )
    mle_report = mle_estimate(mle_log)
    em_trace = em_estimate(
        replay.sample_log,
        EmConfig(epsilon=args.epsilon, keep_zero_indegree=args.keep_zero_indegree_em),
    )
    estimates = {
        "mle": mle_report.to_dict(),
        "em": {
            "alpha_hat": em_trace.final_alpha,
            "converged": em_trace.converged,
        },
        # the estimates above need records, hence at least one arrival
        "mean_citations_per_arrival": float(np.mean(replay.citations_per_step)),
        "median_citations_per_arrival": float(np.median(replay.citations_per_step)),
    }
    est_path = os.path.join(out_dir, "estimates.json")
    with open(est_path, "w") as fh:
        json.dump(estimates, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # theoretical overlays at both estimates against the empirical ccdf
    k_max = args.k_max or int(replay.in_degrees.max())
    emp_ccdf = ccdf_from_indegrees(replay.in_degrees, k_max)
    overlays = {}
    for name, alpha_hat in (("mle", mle_report.alpha_hat), ("em", em_trace.final_alpha)):
        overlay_params = ModelParams(m=args.m, m_hat=args.m_hat, alpha=alpha_hat)
        dist = StationaryDistribution(overlay_params)
        full = np.ones(k_max + 1)
        theory = dist.ccdf_array(k_max)
        full[overlay_params.m_hat:] = theory
        overlays[name] = full
    ccdf_path = os.path.join(out_dir, "ccdf.csv")
    with open(ccdf_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "ccdf_empirical", "ccdf_theory_mle", "ccdf_theory_em"])
        for k in range(k_max + 1):
            writer.writerow([
                k, repr(float(emp_ccdf[k])),
                repr(float(overlays["mle"][k])), repr(float(overlays["em"][k])),
            ])

    manifest_path = os.path.join(out_dir, "replay_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(replay.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_manifest(out_dir, "cite", {
        "edges": args.edges, "dates": args.dates, "cutoff": args.cutoff,
        "m": args.m, "m_hat": args.m_hat, "epsilon": args.epsilon,
        "keep_zero_indegree_mle": args.keep_zero_indegree_mle,
        "keep_zero_indegree_em": args.keep_zero_indegree_em,
    }, [log_path, est_path, ccdf_path, manifest_path], started)
    print(json.dumps({**replay.manifest, **{
        "alpha_mle": mle_report.alpha_hat, "alpha_em": em_trace.final_alpha,
    }}, indent=2, sort_keys=True))
    return 0


def _load_config(path) -> dict:
    """key=value lines; keys use the long option spelling with '-' or '_'."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
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
    return parser


def _convert_config_value(value: str, action) -> object:
    if isinstance(action.default, bool):
        return value.lower() in ("1", "true", "yes", "on")
    if action.type is not None:
        return action.type(value)
    return value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            overrides = _load_config(args.config)
            # apply config values as subcommand defaults so explicit flags win
            subparser = parser._subparsers._group_actions[0].choices[args.subcommand]
            for action in subparser._actions:
                if action.dest in overrides:
                    action.default = _convert_config_value(overrides[action.dest], action)
            args = parser.parse_args(argv)
        return args.func(args)
    except OSError as exc:
        print(f"mixnet: I/O error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"mixnet: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
