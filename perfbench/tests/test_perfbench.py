"""Tests of the benchmark itself, at seconds-long smoke sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("replicate", "probe", "debias", "cli")

sys.path.insert(0, BENCH)
import run  # noqa: E402

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402


def bench(workload, trace=0, seed=3, script=RUN, cwd=ROOT):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_prints_the_declared_metrics(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, \
        proc.stdout
    want = declared("end_to_end" if trace == 0 else "per_layer")
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())
        return
    calls = {k: v["value"] for k, v in res["metrics"].items()
             if k.endswith(".calls")}
    if workload == "replicate":
        assert calls["solvers.fit_lasso.calls"] == 0
        assert calls["solvers.fit_lasso_batch.calls"] > 0
    else:
        assert calls["solvers.fit_lasso_batch.calls"] == 0
    if workload in ("replicate", "debias"):
        assert calls["solvers.svt.calls"] == 0
    else:
        assert calls["solvers.svt.calls"] > 0


def test_digest_repeats_and_tracing_changes_nothing():
    def digests(proc):
        line = [s for s in proc.stdout.splitlines() if " digest " in s][0]
        return [w.split(":")[1] for w in line.split() if w.startswith("sha256:")]
    first, second = bench("probe"), bench("probe")
    traced = bench("probe", trace=1)
    assert len(digests(first)) == 1
    assert digests(first) == digests(second)
    assert digests(traced) == digests(first) * 2


def _cli_workload(tmp_path):
    wl = workloads.Cli(5, str(tmp_path), smoke=True)
    wl.setup()
    return wl


def test_failing_cli_ops_count_as_failed(tmp_path):
    wl = _cli_workload(tmp_path)
    plain = wl.cycle

    def cycle(index, smoke=False):
        ops = plain(index)
        missing = ops[0]._replace(argv=["lasso", "--X", str(tmp_path / "no.csv"),
                                        "--y", wl.paths["y"], "--lam", "0.1"])
        # right exit code and schema, wrong value: sure at another lambda
        wrong = ops[2]._replace(argv=ops[2].argv[:-1] + ["0.3"])
        return ops + [missing, wrong]
    wl.cycle = cycle
    outcomes, _, _ = run.run_phase(wl, 1, cycles=1)
    errors, _ = run.evaluate(wl, outcomes)
    assert len(errors) == 10
    assert [i for i, e in enumerate(errors) if e is not None] == [8, 9]
    assert outcomes[8].code == 1
    assert "differs from the library" in errors[9]


def test_debias_digest_is_the_same_at_one_and_nproc_workers(tmp_path):
    wl = workloads.Debias(4, str(tmp_path), smoke=True)
    digests = []
    for threads in (1, max(2, run.nproc())):
        outcomes, _, _ = run.run_phase(wl, threads, cycles=1)
        errors, digest = run.evaluate(wl, outcomes)
        assert errors == [None]
        digests.append(digest)
    assert digests[0] == digests[1]


def test_traced_digest_covers_every_cycle(tmp_path):
    wl = workloads.Debias(4, str(tmp_path), smoke=True)
    one, _, _ = run.run_phase(wl, 1, cycles=1)
    two, _, _ = run.run_phase(wl, 1, cycles=2)
    assert run.evaluate(wl, two)[1] == run.evaluate(wl, one)[1]
    assert run.evaluate(wl, two, every_cycle=True)[1] != \
        run.evaluate(wl, one, every_cycle=True)[1]


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "_out"))
    proc = bench("cli", script=os.path.join("perfbench", "run.py"),
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
