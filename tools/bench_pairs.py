#!/usr/bin/env python3
"""Paired perfbench runs of a parent commit and the working tree, kept as BENCH_<slug>.json.

    python3 tools/bench_pairs.py --slug batch_cd --title "Batch l1 kernel" \\
        --pairs replicate=10 --pairs probe=3 --pairs debias=3 --pairs cli=3 \\
        --seed0 101 --extra-trace step1=/path/to/other/tree:replicate

The parent (``--parent``, default HEAD) is exported with ``git archive``
to a temporary directory; the change is the working tree that holds this
script, committed or not.  Every run is ``python3 perfbench/run.py`` of
its own tree, one run at a time, by the ``command`` and for the
``run_seconds`` that BENCHMARK.json declares.  Pair i of a workload runs at
seed ``seed0 + i``, with the parent first when i is even and the change
first when i is odd.  Each ``--pairs`` workload is then traced once per
side at seed 1 (``--trace 1``), and so is every ``--extra-trace`` tree, on
the workloads named after its colon.

The file holds every run's output lines and result, a per-workload summary
of the end-to-end metrics that BENCHMARK.json declares (median and
quartiles per side, the ratio of the medians, and the number of pairs the
change won, ties counting for neither side), and the traced runs with their
digests.  Nothing here edits or reinterprets the benchmark.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
TRACE_SEED = 1


def parse_output(stdout: str) -> tuple[list[str], dict]:
    """(record lines, result) of one perfbench run's standard output; the
    result is the JSON object on the last line."""
    lines = [line for line in stdout.strip().splitlines() if line.strip()]
    return lines[:-1], json.loads(lines[-1])


def digests(lines: list[str]) -> list[str]:
    """The sha256 digests of a run's ``perfbench digest`` line."""
    for line in lines:
        if line.startswith("perfbench digest "):
            return line.split()[2:]
    return []


def environment(lines: list[str]) -> dict | None:
    for line in lines:
        if line.startswith("perfbench env "):
            return json.loads(line[len("perfbench env "):])
    return None


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric comparison of the runs of one workload.

    ``runs`` holds dicts with ``side``, ``seed`` and ``result``; runs of the
    two sides at one seed form a pair.  ``end_to_end`` is BENCHMARK.json's
    list, whose ``better`` field says which direction wins.
    """
    by_seed: dict[int, dict] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
    pairs = [pair for _, pair in sorted(by_seed.items())
             if all(side in pair for side in SIDES)]
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [pair[side]["metrics"][name]["value"]
                         for pair in pairs] for side in SIDES}
        sign = 1.0 if metric["better"] == "higher" else -1.0
        entry = {"unit": metric["unit"]}
        entry.update({side: _spread(values[side]) for side in SIDES})
        entry["change_over_parent"] = (entry["change"]["median"]
                                       / entry["parent"]["median"])
        entry["change_better_pairs"] = sum(
            sign * (c - p) > 0.0 for p, c in zip(values["parent"],
                                                 values["change"]))
        entry["pairs"] = len(pairs)
        summary[name] = entry
    summary["failed"] = {side: sum(pair[side]["failed"] for pair in pairs)
                         for side in SIDES}
    return summary


def traced_entry(seed: int, lines: list[str], result: dict) -> dict:
    return {"seed": seed, "lines": lines, "digests": digests(lines),
            "result": result}


def assemble(meta: dict, runs: dict, traced: dict,
             end_to_end: list[dict]) -> dict:
    """The BENCH document from ``runs`` (workload -> list of run dicts with
    side, seed, first, lines and result) and ``traced`` (workload -> label
    -> traced entry).  ``meta`` gives title, parent_commit, sides and
    method; the environment block is the first run's."""
    first = next((run for wl in runs.values() for run in wl), None)
    doc = dict(meta)
    doc["environment"] = environment(first["lines"]) if first else None
    doc["workloads"] = {
        workload: {"pairs": len({r["seed"] for r in wl}), "runs": wl,
                   "summary": summarize(wl, end_to_end)}
        for workload, wl in runs.items()}
    doc["traced"] = traced
    return doc


def export_tree(rev: str, dest: str) -> str:
    """Write ``git archive rev`` under ``dest``; returns the full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def run_perfbench(bench: dict, tree: str, workload: str, seed: int,
                  trace: int) -> tuple[list[str], dict]:
    """One run of BENCHMARK.json's ``command`` in ``tree``."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "%g" % bench["run_seconds"],
                              "--trace", str(trace)]
    print("[%s] %s" % (tree, " ".join(cmd[1:])), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited %d in %s:\n%s"
                           % (proc.returncode, tree, proc.stderr))
    return parse_output(proc.stdout)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--slug", required=True,
                    help="writes BENCH_<slug>.json at the repository root")
    ap.add_argument("--title", required=True)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--pairs", action="append", default=[],
                    metavar="WORKLOAD=N", required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--extra-trace", action="append", default=[],
                    metavar="LABEL=TREE:WORKLOAD[,WORKLOAD]")
    ap.add_argument("--note", default="",
                    help="appended to the method text")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    plan = [(w, int(k)) for w, k in (p.split("=", 1) for p in args.pairs)]
    extra = []
    for spec in args.extra_trace:
        label, rest = spec.split("=", 1)
        tree, workloads = rest.rsplit(":", 1)
        extra.append((label, os.path.abspath(tree), workloads.split(",")))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        sha = export_tree(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        runs = {}
        for workload, k in plan:
            runs[workload] = []
            for i in range(k):
                seed = args.seed0 + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    lines, result = run_perfbench(bench, trees[side],
                                                  workload, seed, 0)
                    runs[workload].append({"side": side, "seed": seed,
                                           "first": order[0], "lines": lines,
                                           "result": result})
        traced = {}
        for workload, _ in plan:
            traced[workload] = {}
            for side in SIDES:
                traced[workload][side] = traced_entry(
                    TRACE_SEED, *run_perfbench(bench, trees[side], workload,
                                               TRACE_SEED, 1))
        for label, tree, workloads in extra:
            for workload in workloads:
                traced.setdefault(workload, {})[label] = traced_entry(
                    TRACE_SEED, *run_perfbench(bench, tree, workload,
                                               TRACE_SEED, 1))
    seeds = "%d-%d" % (args.seed0, args.seed0 + max(k for _, k in plan) - 1)
    meta = {
        "title": args.title,
        "parent_commit": sha,
        "sides": ("parent: an export of %s (git archive), whose environment "
                  "block reads git_commit 'unknown'; change: the working "
                  "tree on top of it" % sha[:12]),
        "method": ("%s of each tree, run from that tree, one run at a "
                   "time; pair i of a workload runs at seed %d + i, and "
                   "pairs alternate which side runs first (each run's "
                   "'first' field). Timed runs: --seconds %g --trace 0 at "
                   "seeds %s. Traced runs: --trace 1 at seed %d. %s"
                   % (" ".join(bench["command"]), args.seed0,
                      bench["run_seconds"], seeds, TRACE_SEED,
                      args.note)).strip(),
    }
    doc = assemble(meta, runs, traced, bench["end_to_end"])
    path = os.path.join(ROOT, "BENCH_%s.json" % args.slug)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
