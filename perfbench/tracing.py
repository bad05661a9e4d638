"""Spans around mixnet's layers, recorded from outside the package.

Each public layer function is replaced, wherever a mixnet module binds its
name, by a wrapper that records a span (name, start, end, parent span,
operation id, process id) plus counts taken from its arguments and result.
Spans stay in memory; pool workers forked while a span is open inherit the
tracer and append their spans to one file per worker process, which the
parent reads back after the operation.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _records(result, *args):
    return {"netmodel.records": len(result[1])}


def _csv_bytes(result, *args):
    # args[0] is the SampleLog instance (to_csv) or class (from_csv)
    return {"netmodel.csv_bytes": os.path.getsize(args[1])}


def _records_scanned(result, *args):
    return {"likelihood.records_scanned": len(args[0])}


def _em_iterations(result, *args):
    return {"em.iterations": len(result.iterations) - 1}


def _citations(result, *args):
    return {"ingest.citations": result.citation_count}


#: (layer, function name, counter) for module-level functions
FUNCTIONS = [
    ("netmodel", "grow_sequence", _records),
    ("likelihood", "mle_estimate", _records_scanned),
    ("likelihood", "root_profile", None),
    ("likelihood", "log_likelihood", None),
    ("em", "em_estimate", _em_iterations),
    ("degree_dist", "ccdf_from_indegrees", None),
    ("ingest", "load_dataset", _citations),
    ("ingest", "build_replay", None),
    ("ingest", "replay_to_samplelog", None),
]
#: (layer, class name, method name, counter)
METHODS = [
    ("netmodel", "SampleLog", "to_csv", _csv_bytes),
    ("netmodel", "SampleLog", "from_csv", _csv_bytes),
    ("netmodel", "SampleLog", "prefix", None),
    ("degree_dist", "StationaryDistribution", "pmf_array", None),
    ("degree_dist", "StationaryDistribution", "ccdf_array", None),
]


class Tracer:
    def __init__(self, spool_dir: Path):
        self.pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[str] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def _record(self, span: dict) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:
            with open(self.spool_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
                fh.write(json.dumps(span) + "\n")

    @contextmanager
    def span(self, name: str):
        """Record a span around the block, which may fill the yielded counts."""
        sid = f"{os.getpid()}-{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        counts: dict = {}
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record({"id": sid, "parent": parent, "op": self.op, "pid": os.getpid(),
                          "name": name, "start": start, "end": end, "counts": counts})

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(result, *args))
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every binding of the layer functions in ``modules`` (name -> module)."""
        for layer, fname, counter in FUNCTIONS:
            original = getattr(modules[layer], fname)
            traced = self._wrap(original, f"{layer}.{fname}", counter)
            for module in modules.values():
                if getattr(module, fname, None) is original:
                    self._saved.append((module, fname, original))
                    setattr(module, fname, traced)
        for layer, cname, mname, counter in METHODS:
            cls = getattr(modules[layer], cname)
            raw = cls.__dict__[mname]
            name = f"{layer}.{mname}"
            if isinstance(raw, classmethod):
                traced = classmethod(self._wrap(raw.__func__, name, counter))
            else:
                traced = self._wrap(raw, name, counter)
            self._saved.append((cls, mname, raw))
            setattr(cls, mname, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def collect_workers(self) -> None:
        """Move spans written by worker processes into memory."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()


def op_metrics(spans: list[dict], op_span: dict, workers: int) -> dict:
    """Per-layer metrics of one operation from its spans.

    ``<layer>.<function>.s`` is self time: the span's duration minus the
    part covered by its children in the same process, summed over calls.
    """
    mine = [s for s in spans if s["op"] == op_span["op"]]
    child_time: dict = defaultdict(float)
    for s in mine:
        if s["parent"] is not None and s["parent"].split("-")[0] == str(s["pid"]):
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict = defaultdict(float)
    worker_busy = 0.0
    for s in mine:
        name = s["name"]
        self_s = s["end"] - s["start"] - child_time[s["id"]]
        if s is op_span:
            out[f"{name}.self_s"] += self_s
        else:
            out[f"{name}.s"] += self_s
            out[f"{name}.calls"] += 1
        for key, value in s["counts"].items():
            out[key] += value
        if s["pid"] != op_span["pid"] and name == "netmodel.grow_sequence":
            worker_busy += s["end"] - s["start"]
    if op_span["name"] == "cli.dist":
        wall = op_span["end"] - op_span["start"]
        out["cli.dist.worker_busy_s"] = worker_busy  # the ratio's numerator
        out["cli.dist.worker_busy_ratio"] = worker_busy / (workers * wall)
    return dict(out)
