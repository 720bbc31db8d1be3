#!/usr/bin/env python3
"""steinsure benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload replicate --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Workloads: replicate, probe, debias, cli (see README.md).

``--trace 0`` runs the closed loop for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed number of cycles untraced,
then the same cycles with span wrappers installed, and prints the per-layer
metrics; a fixed amount of work makes its counts repeat exactly.  The last
line of standard output is the JSON result; the lines before it give the
environment block, the sample counts and the sha256 of the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread per process, so that the worker pools never run more
# threads than there are cores.  Set before numpy is first imported.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["replicate", "probe", "debias", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: seconds-long inputs for the tests")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# set-up


def setup(args, workdir):
    """Import, write the inputs and run one untimed warm-up cycle.

    ``workloads`` imports steinsure, so it is imported here, once ``src/`` is
    on the path, and the other functions import it after this has run.
    """
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import steinsure
    if not os.path.abspath(steinsure.__file__).startswith(SRC + os.sep):
        raise RuntimeError("imported steinsure from %s, not from %s"
                           % (steinsure.__file__, SRC))
    import workloads
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir,
                                            smoke=args.size == "smoke")
    wl.setup()
    for op in wl.cycle(0, smoke=True):
        code, out = workloads.run_cli(op.argv, nproc())
        if code != 0:
            raise RuntimeError("warm-up %s failed (%s): %s" % (op.kind, code, out))
    return time.perf_counter() - start, wl


def setup_in_subprocess(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("set-up run failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# timed phases


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_phase(wl, threads, *, seconds=None, cycles=None, tracer=None):
    """Closed loop over whole cycles, until ``seconds`` pass or ``cycles`` run.

    Returns (outcomes, wall seconds, cpu seconds of process and children).
    """
    import workloads
    outcomes = []
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    index = 1
    while True:
        for op in wl.cycle(index):
            span = None
            if tracer is not None:
                tracer.op = len(outcomes)
                span = tracer.begin("cli.main")
            t0 = time.perf_counter()
            code, out = workloads.run_cli(op.argv, threads)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(span)
            outcomes.append(workloads.Outcome(op, code, out, dt))
        index += 1
        if cycles is not None:
            if index > cycles:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return outcomes, time.perf_counter() - start, cpu_seconds() - cpu0


def evaluate(wl, outcomes, every_cycle=False):
    """Per-op error messages (None when the op passed) and the results digest.

    The digest covers the results with ``runtime_s`` stripped.  A timed
    run's cycle count varies, so there it covers only the first cycle, which
    every run makes; a traced run's phases all make the same fixed cycles,
    so there it covers every cycle.
    """
    import workloads
    parsed = [workloads.parse_results(o) for o in outcomes]
    errors = []
    for outcome, (res, err) in zip(outcomes, parsed):
        if err is None:
            try:
                err = outcome.op.check(res)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                err = "malformed %s results: %r" % (outcome.op.kind, exc)
        errors.append(err)
    try:
        pooled = wl.check_all([o.op for o in outcomes],
                              [res for res, _ in parsed])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        pooled = ["malformed results: %r" % exc] * len(outcomes)
    errors = [a or b for a, b in zip(errors, pooled)]
    hashed = [workloads.strip_runtime(res) for (res, _), o in
              zip(parsed, outcomes) if every_cycle or o.op.cycle == 1]
    digest = hashlib.sha256(json.dumps(hashed, sort_keys=True).encode())
    return errors, digest.hexdigest()


def by_cycle(outcomes) -> list[list]:
    """The outcomes grouped by cycle, in cycle order."""
    groups = {}
    for o in outcomes:
        groups.setdefault(o.op.cycle, []).append(o)
    return [groups[c] for c in sorted(groups)]


def median_cycle_rate(outcomes) -> float:
    """Median over cycles of work done per second of op time.

    A median over cycles shrugs off the seconds-long slow spells of a shared
    machine, which a single rate over the whole loop would absorb.
    """
    return statistics.median(sum(o.op.work for o in cycle)
                             / sum(o.seconds for o in cycle)
                             for cycle in by_cycle(outcomes))


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_cycle_latency(outcomes, q) -> tuple[float, int]:
    """Median over cycles of the q-th percentile of a cycle's op latencies.

    Every cycle runs the same mix of ops, so a cycle's percentile always
    falls at the same place in the mix, and the median over cycles shrugs
    off slow spells as ``median_cycle_rate`` does.  Also returns how many
    ops lie above their cycle's percentile.
    """
    values, above = [], 0
    for cycle in by_cycle(outcomes):
        ms = [o.seconds * 1e3 for o in cycle]
        values.append(quantile(ms, q))
        above += sum(v > values[-1] for v in ms)
    return statistics.median(values), above


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


# ---------------------------------------------------------------------------
# environment block


def environment(args) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                               "HEAD"], capture_output=True, text=True,
                              timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and os.path.realpath(lines[0]) == \
                os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"cpu": cpu, "nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
            "git_commit": commit, "workload": args.workload,
            "seed": args.seed, "size": args.size}


# ---------------------------------------------------------------------------
# main


def timed_run(args, wl, setups):
    """The closed loop for ``--seconds``; returns (phases, metrics, digests)."""
    outcomes, wall, _ = run_phase(wl, nproc(), seconds=args.seconds)
    errors, digest = evaluate(wl, outcomes)
    p50, _ = median_cycle_latency(outcomes, 50)
    p90, above_p90 = median_cycle_latency(outcomes, 90)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (median_cycle_rate(outcomes), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print("perfbench %s: %d cycles, %d ops timed (%d above their cycle's "
          "p90), %.0f %s in %.3f s; set-up runs %s s"
          % (wl.name, outcomes[-1].op.cycle, len(outcomes), above_p90, sum(o.op.work for o in outcomes), wl.work_unit, wall,
             ", ".join("%.3f" % s for s in setups)))
    return [("timed", outcomes, errors)], metrics, [digest]


def traced_run(args, wl):
    """Fixed cycles untraced, then traced; returns (phases, metrics, digests).

    ``debias`` traces at one worker, so its overhead is taken against an
    untraced run of the same cycles at one worker.
    """
    import tracing
    threads = nproc()
    traced_threads = wl.traced_threads or threads
    cycles = 1 if args.size == "smoke" else wl.trace_cycles
    phases, digests = [], []

    def untraced(workers):
        outcomes, wall, cpu = run_phase(wl, workers, cycles=cycles)
        errors, digest = evaluate(wl, outcomes, every_cycle=True)
        phases.append(("untraced-%d" % workers, outcomes, errors))
        digests.append(digest)
        return wall, cpu

    wall_u, cpu_u = untraced(threads)
    wall_ref = untraced(traced_threads)[0] if traced_threads != threads else wall_u
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes, wall_t, _ = run_phase(wl, traced_threads, cycles=cycles,
                                        tracer=tracer)
    finally:
        tracer.uninstall()
    errors, digest = evaluate(wl, outcomes, every_cycle=True)
    phases.append(("traced-%d" % traced_threads, outcomes, errors))
    digests.append(digest)
    metrics = tracing.layer_metrics(tracer)
    metrics["harness.cpu_util"] = (cpu_u / (wall_u * threads), "ratio")
    metrics["trace_overhead_frac"] = (wall_t / wall_ref - 1.0, "ratio")
    path = os.path.join(ROOT, "perfbench", "_out", "trace-%s-seed%d.jsonl"
                        % (wl.name, args.seed))
    tracer.write(path)
    print("perfbench %s: %d cycles per phase; untraced %.3f s at %d workers, "
          "traced %.3f s at %d workers; %d spans in %s"
          % (wl.name, cycles, wall_u, threads, wall_t, traced_threads,
             len(tracer.spans), os.path.relpath(path, ROOT)))
    return phases, metrics, digests


def measure(args, workdir) -> dict:
    """Run the workload; returns the result object printed as the last line."""
    setups = [setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
    setup_s, wl = setup(args, workdir)
    setups.append(setup_s)
    print("perfbench env " + json.dumps(environment(args), sort_keys=True))
    if args.trace == 0:
        phases, metrics, digests = timed_run(args, wl, setups)
    else:
        phases, metrics, digests = traced_run(args, wl)
    print("perfbench digest " + " ".join("sha256:" + d for d in digests))

    untimed_error = wl.untimed_check()
    errors = [e for _, _, errs in phases for e in errs] + [untimed_error]
    failed = sum(e is not None for e in errors)
    print("perfbench failed_frac %.6g (%d of %d ops, including the untimed "
          "check)" % (failed / len(errors), failed, len(errors)))
    for label, outcomes, errs in phases:
        for outcome, err in zip(outcomes, errs):
            if err is not None:
                print("perfbench FAILED %s op %s cycle %d: %s"
                      % (label, outcome.op.kind, outcome.op.cycle, err))
    if untimed_error:
        print("perfbench FAILED untimed check: " + untimed_error)
    digests_agree = len(set(digests)) == 1
    if not digests_agree:
        print("perfbench FAILED the digests differ between phases")
    return {"correct": failed == 0 and digests_agree,
            "attempted": len(errors), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_PIN)
    if not os.path.isfile(os.path.join(SRC, "steinsure", "__init__.py")):
        print("perfbench: no steinsure sources under %s" % SRC, file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, "perfbench", "_work", str(os.getpid()))
    try:
        if args.setup_only:
            setup_s, _ = setup(args, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:     # another run still uses it
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
