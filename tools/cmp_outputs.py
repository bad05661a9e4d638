"""Byte-compare mixnet's outputs from two source trees.

    python tools/cmp_outputs.py BASE_SRC CHANGE_SRC [--steps N]

BASE_SRC and CHANGE_SRC are ``src`` directories (each holding ``mixnet``).
Every call below runs once per side, each in a fresh interpreter with
``PYTHONPATH`` set to that side's tree and its working directory in that
side's own directory under a temporary one:

- ``simulate complete:3 --m 5 --m-hat 3 --rng-seed 1 --export-graph`` at
  alpha 0, 0.6 and 1;
- ``simulate`` at alpha 0.6 from a seed edge-list file with comments, CRLF
  line ends and a non-ASCII label (``SEED_FILE``), without a graph export;
- the alpha 0.6 ``simulate`` with ``--export-graph`` at a fixed 500 steps:
  about 6,500 draws, below ``netmodel._BULK_MIN``, so growth draws each
  through ``rng.random()`` whatever ``--steps`` is;
- ``estimate --method both --trace --stride 500`` on a sample log at alpha
  0, 0.6 and 1;
- ``estimate --trace --snapshot-mode`` on each of those logs;
- ``split-A``: ``estimate --method both`` without a trace on each of those
  logs, whose EM splits its records between two threads;
- ``estimate --method mle --trace --stride 100`` on the alpha 0.6 log, the
  longest chain of warm-started prefix solves;
- ``estimate-em-zeros``: ``estimate --method em --keep-zero-indegree --trace
  --stride 500`` on an alpha 0.6 log grown with m_hat=0, whose k=0 records
  stay in the EM input, and ``split-em-zeros``, the same call without the
  trace;
- ``dist --m 5 --m-hat 3 --alpha 0.6 --k-max 45 --ensemble 3 --workers 2``,
  whose members grow on a process pool, and ``dist-serial-A``, the same call
  at alpha 0 and 1 with ``--workers 1``, whose members grow one after another;
- ``cite`` on the seed-0 pair of ``perfbench/inputs.py`` (10,000 papers), and
  ``cite-em-zeros``, the same call with ``--drop-zero-indegree-mle
  --keep-zero-indegree-em``, so both of EM's inputs run on its worker thread;
- ``cite-mixed``: ``cite --cutoff 2001-01-10 --m 2 --m-hat 0`` on a small
  hand-written pair (``CITE_EDGES``, ``CITE_DATES``) with CRLF line ends, an id
  with a two-byte code point that only the dates file holds (so the ASCII edge
  file's ids are interned at the wider width), a paper dated twice, a
  duplicate pair, a self-citation, an undated citer and two same-day ties.

The estimator calls read logs that no mixnet growth kernel made: each is
written once by ``perfbench/inputs.py``'s ``growth_log`` (seed 1, m=5,
m_hat=3 unless stated, a complete 3-node seed) and read by both sides, like
the ``cite`` pair.  So a change to growth shows as DIFF only on the ``simulate`` and
``dist`` outputs.  ``--steps`` (default 20000, the paper's FIG3) sets the
growth steps of the other ``simulate`` calls, ``dist`` and those logs.

The tool compares each call's stdout and every output file byte for byte;
``manifest.json`` is compared without ``duration_s`` and its output paths.
It prints one line per stdout and file, ``same`` or ``DIFF``, and exits 0
if all are equal, 1 on any difference, and 2 if a call fails on either
side.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALPHAS = ("0", "0.6", "1")
#: a seed edge list in the citation files' grammar, written with these bytes
SEED_FILE = ("# seed: src dst\r\n\r\npaperB paperA\r\n  # indented comment\r\n"
             "paperC\tpaperA\r\npaperC paperB\r\nPapier\u00c4 paperC\r\n"
             "paperA Papier\u00c4\r\npaperA paperB\r\n")

#: a citation pair in the SNAP grammar, written with these bytes
CITE_EDGES = ("# citing cited\r\nP2 P1\r\nP3 P1\r\nP3 P2\r\nP4 P1\r\nP4 P3\r\nP4 P3\r\n"
              "P5 P5\r\nX9 P1\r\nP5 P1\r\nP5 P4\r\nP6 P1\r\nP6 P5\r\nP6 P2\r\nP7 P1\r\n"
              "P7 P4\r\n")
CITE_DATES = ("# id date\r\nP1\t2001-01-01\r\nP2\t2001-01-05\r\nP4\t2001-02-01\r\n"
              "P3\t2001-02-01\r\n\u01411\t2001-02-15\r\nP5\t2001-03-01\r\nP6\t2001-03-02\r\n"
              "P7\t2001-03-02\r\nP2\t2001-01-03\r\n")


class CallFailed(Exception):
    """A call exited non-zero, so there is nothing to compare."""


def calls(steps: int, cite_argv: list, seed_path: str, logs: dict, mixed: list) -> list:
    """(output directory, mixnet argv) of each call, in run order; ``logs``
    maps each alpha to the sample log its estimator calls read, and ``mixed``
    is the edge and dates paths of ``cite-mixed``."""
    out = []
    for alpha in ALPHAS:
        out.append((f"simulate-{alpha}", [
            "simulate", "complete:3", "--m", "5", "--m-hat", "3", "--alpha", alpha,
            "--steps", str(steps), "--rng-seed", "1", "--export-graph"]))
    out.append(("simulate-500", [
        "simulate", "complete:3", "--m", "5", "--m-hat", "3", "--alpha", "0.6",
        "--steps", "500", "--rng-seed", "1", "--export-graph"]))
    out.append(("simulate-seedfile", [
        "simulate", seed_path, "--m", "5", "--m-hat", "3", "--alpha", "0.6",
        "--steps", str(steps), "--rng-seed", "1"]))
    for alpha in ALPHAS:
        log = logs[alpha]
        out.append((f"estimate-{alpha}", [
            "estimate", log, "--method", "both", "--trace", "--stride", "500"]))
        out.append((f"snapshot-{alpha}", ["estimate", log, "--trace", "--snapshot-mode"]))
        out.append((f"split-{alpha}", ["estimate", log, "--method", "both"]))
    out.append(("trace-0.6", ["estimate", logs["0.6"],
                              "--method", "mle", "--trace", "--stride", "100"]))
    out.append(("estimate-em-zeros", ["estimate", logs["zeros"], "--method", "em",
                                      "--keep-zero-indegree", "--trace", "--stride", "500"]))
    out.append(("split-em-zeros", ["estimate", logs["zeros"], "--method", "em",
                                   "--keep-zero-indegree"]))
    out.append(("dist", ["dist", "--m", "5", "--m-hat", "3", "--alpha", "0.6", "--k-max", "45",
                         "--ensemble", "3", "--workers", "2", "--steps", str(steps)]))
    for alpha in ("0", "1"):
        out.append((f"dist-serial-{alpha}", [
            "dist", "--m", "5", "--m-hat", "3", "--alpha", alpha, "--k-max", "45",
            "--ensemble", "3", "--workers", "1", "--steps", str(steps)]))
    out.append(("cite", cite_argv))
    out.append(("cite-em-zeros", [*cite_argv, "--drop-zero-indegree-mle",
                                  "--keep-zero-indegree-em"]))
    out.append(("cite-mixed", ["cite", *mixed, "--cutoff", "2001-01-10", "--m", "2",
                               "--m-hat", "0"]))
    return out


def run_side(src: Path, side_dir: Path, name: str, argv: list) -> bytes:
    """Run one call in a fresh interpreter; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "MIXNET_OUT"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, "-m", "mixnet.cli", *argv, "--out", name],
                          cwd=side_dir, env=env, capture_output=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise CallFailed(f"{side_dir.name}: {' '.join(argv[:1])} -> {name} exited "
                         f"{done.returncode}")
    return done.stdout


def comparable(path: Path) -> bytes:
    """The file's bytes; a manifest without its duration and output paths."""
    data = path.read_bytes()
    if path.name != "manifest.json":
        return data
    manifest = json.loads(data)
    manifest.pop("duration_s", None)
    manifest["outputs"] = [os.path.basename(p) for p in manifest.get("outputs", [])]
    return json.dumps(manifest, sort_keys=True).encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--steps", type=int, default=20000)
    args = parser.parse_args(argv)
    sides = {"base": args.base_src.resolve(), "change": args.change_src.resolve()}
    for src in sides.values():
        if not (src / "mixnet" / "__init__.py").is_file():
            parser.error(f"{src} holds no mixnet package")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data = work / "cite-input"
        data.mkdir()
        sys.path.insert(0, str(ROOT / "perfbench"))
        import inputs  # mixnet-free generator of the benchmark's inputs

        pair = inputs.citation_data(0, 10000, data / "edges.txt", data / "dates.txt")
        logs = {}
        for alpha in ALPHAS:
            logs[alpha] = str(data / f"samplelog-{alpha}.csv")
            inputs.growth_log(1, args.steps, 5, 3, float(alpha), 3).write_csv(logs[alpha])
        logs["zeros"] = str(data / "samplelog-zeros.csv")
        inputs.growth_log(1, args.steps, 5, 0, 0.6, 3).write_csv(logs["zeros"])
        seed = data / "seed.edgelist"
        seed.write_bytes(SEED_FILE.encode("utf-8"))
        mixed = [str(data / "mixed-edges.txt"), str(data / "mixed-dates.txt")]
        for path, text in zip(mixed, (CITE_EDGES, CITE_DATES)):
            Path(path).write_bytes(text.encode("utf-8"))
        cite_argv = ["cite", str(data / "edges.txt"), str(data / "dates.txt"),
                     "--cutoff", pair.cutoff, "--m", "12", "--m-hat", "0"]
        try:
            differ = False
            for name, call in calls(args.steps, cite_argv, str(seed), logs, mixed):
                dirs = {side: work / side for side in sides}
                stdout = {}
                for side, src in sides.items():
                    dirs[side].mkdir(exist_ok=True)
                    stdout[side] = run_side(src, dirs[side], name, call)
                lines = [(f"{name} stdout", stdout["base"] == stdout["change"])]
                files = sorted({p.relative_to(d) for d in dirs.values()
                                for p in (d / name).rglob("*") if p.is_file()})
                for rel in files:
                    a, b = dirs["base"] / rel, dirs["change"] / rel
                    same = a.is_file() and b.is_file() and comparable(a) == comparable(b)
                    lines.append((str(rel), same))
                for label, same in lines:
                    print(f"{'same' if same else 'DIFF'}  {label}")
                    differ |= not same
        except CallFailed as exc:
            print(f"cmp_outputs: {exc}", file=sys.stderr)
            return 2
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
