"""Summarize or compare sets of benchmark result records.

    python3 perfbench/compare.py BASE [CHANGE]

BASE and CHANGE are directories of records written by run.py (or single
record files).  With one set, prints each (workload, metric) median, its
quartiles and the spread (interquartile distance over the median) next to
the metric's bound.  With two, also prints the share of paired runs the
change wins (pairs match by seed, else by order; ties count for neither)
and a verdict: a difference counts only when it exceeds both the bound
times the base median and the base's own interquartile distance.  Metrics
without a bound (per-layer) use the interquartile rule alone.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """(workload, metric) -> {seed: value} from every record under ``path``."""
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    table: dict = defaultdict(dict)
    for f in files:
        if f.name.endswith(".spans.json"):
            continue
        record = json.loads(f.read_text())
        meta = record["meta"]
        for name, metric in record["metrics"].items():
            table[(meta["workload"], name)][meta["seed"]] = metric["value"]
    return table


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def _pairs(base: dict, change: dict) -> list:
    common = sorted(set(base) & set(change))
    if common:
        return [(base[s], change[s]) for s in common]
    return list(zip(base.values(), change.values()))


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(Path(p)) for p in argv]
    keys = sorted(set(sets[0]) & set(sets[-1]))
    if not keys:
        print("no (workload, metric) pair in common", file=sys.stderr)
        return 1
    for workload, name in keys:
        base = sets[0][(workload, name)]
        q1, med, q3 = quartiles(list(base.values()))
        bound = bounds.get(name)
        line = (f"{workload:14s} {name:36s} n={len(base):2d} median={med:.6g} "
                f"[{q1:.6g}, {q3:.6g}] spread={spread(list(base.values())):.3f}")
        if bound is not None:
            line += f" bound={bound}"
        if len(sets) == 2:
            change = sets[1][(workload, name)]
            c1, cmed, c3 = quartiles(list(change.values()))
            sign = -1 if better.get(name, "lower") == "lower" else 1
            pairs = _pairs(base, change)
            wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
            diff = cmed - med
            beyond = abs(diff) > (q3 - q1) and (bound is None or abs(diff) > bound * abs(med))
            verdict = ("better" if sign * diff > 0 else "worse") if beyond else "within noise"
            line += (f" | change n={len(change):2d} median={cmed:.6g} [{c1:.6g}, {c3:.6g}]"
                     f" wins={wins}/{len(pairs)} ratio={cmed / med if med else float('nan'):.4f}"
                     f" {verdict}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
