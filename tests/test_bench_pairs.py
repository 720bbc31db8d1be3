"""JSON assembly of tools/bench_pairs.py on canned perfbench output."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "work_per_s", "unit": "1/s", "better": "higher"},
              {"name": "op_p50_ms", "unit": "ms", "better": "lower"}]


def _stdout(seed, work, p50, failed=0, digest="ab" * 32):
    env = {"git_commit": "unknown", "nproc": 2, "seed": seed,
           "workload": "replicate"}
    result = {"attempted": 5, "correct": failed == 0, "failed": failed,
              "metrics": {"work_per_s": {"unit": "1/s", "value": work},
                          "op_p50_ms": {"unit": "ms", "value": p50},
                          "solvers.fit_lasso_batch.calls": {
                              "unit": "count", "value": 34.0}}}
    return "\n".join([
        "perfbench env " + json.dumps(env, sort_keys=True),
        "perfbench replicate: 2 cycles",
        "perfbench digest sha256:%s sha256:%s" % (digest, digest),
        "perfbench failed_frac 0 (0 of 5 ops, including the untimed check)",
        json.dumps(result, sort_keys=True)]) + "\n"


def test_parse_output_splits_records_from_result():
    lines, result = bench_pairs.parse_output(_stdout(7, 10.0, 5.0))
    assert len(lines) == 4 and lines[0].startswith("perfbench env ")
    assert result["metrics"]["work_per_s"]["value"] == 10.0
    assert bench_pairs.digests(lines) == ["sha256:" + "ab" * 32] * 2
    assert bench_pairs.environment(lines)["seed"] == 7


def test_assemble_pairs_sides_by_seed_and_counts_wins():
    # (seed, first, parent work/p50, change work/p50): the change wins work
    # in pairs 1, 2 and 4, ties in pair 3; it wins p50 only in pair 1
    canned = [(11, "parent", (10.0, 5.0), (12.0, 4.0)),
              (12, "change", (11.0, 5.0), (13.0, 6.0)),
              (13, "parent", (9.0, 5.0), (9.0, 5.0)),
              (14, "change", (10.0, 5.0), (14.0, 7.0))]
    runs = []
    for seed, first, parent, change in canned:
        order = ("parent", "change") if first == "parent" else ("change",
                                                                "parent")
        for side in order:
            work, p50 = parent if side == "parent" else change
            lines, result = bench_pairs.parse_output(
                _stdout(seed, work, p50, failed=int(side == "change"
                                                    and seed == 12)))
            runs.append({"side": side, "seed": seed, "first": first,
                         "lines": lines, "result": result})
    lines, result = bench_pairs.parse_output(
        _stdout(1, 3.0, 1.0, digest="cd" * 32))
    traced = {"replicate": {"parent": bench_pairs.traced_entry(1, lines,
                                                               result)}}
    meta = {"title": "t", "parent_commit": "0" * 40, "sides": "s",
            "method": "m"}
    doc = bench_pairs.assemble(meta, {"replicate": runs}, traced, END_TO_END)

    assert list(doc) == ["title", "parent_commit", "sides", "method",
                         "environment", "workloads", "traced"]
    assert doc["environment"]["seed"] == 11
    wl = doc["workloads"]["replicate"]
    assert wl["pairs"] == 4 and wl["runs"] == runs
    work = wl["summary"]["work_per_s"]
    assert work["unit"] == "1/s" and work["pairs"] == 4
    assert work["parent"]["median"] == 10.0
    assert work["change"]["median"] == 12.5
    # exclusive quartiles, as statistics.quantiles gives them
    assert work["change"]["q1"] == pytest.approx(9.75)
    assert work["change"]["q3"] == pytest.approx(13.75)
    assert work["change_over_parent"] == pytest.approx(1.25)
    assert work["change_better_pairs"] == 3
    p50 = wl["summary"]["op_p50_ms"]
    assert p50["change_better_pairs"] == 1
    assert p50["change_over_parent"] == pytest.approx(5.5 / 5.0)
    assert wl["summary"]["failed"] == {"parent": 0, "change": 1}
    entry = doc["traced"]["replicate"]["parent"]
    assert entry["digests"] == ["sha256:" + "cd" * 32] * 2
    json.dumps(doc)     # the document serializes as it stands
