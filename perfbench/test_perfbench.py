"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench

They check that counted per-layer metrics repeat exactly for one seed,
that the seed drives the fuzz inputs, that the references catch wrong
verdicts, and that the result line matches BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

run.use_sources()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

COUNTED = (
    ".transitions",
    ".elem_ops",
    ".env_copy_ops",
    ".lookup_ops",
    ".readback_calls",
    "calculi.steps",
    "generate.accept_ratio",
    "transforms.wrap_out_nodes",
)


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload with seed 7."""
    return {
        name: [run.traced_run(wl, 7) for _ in range(2)] for name, wl in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_correct_and_counts_repeat(traced, name):
    first, second = traced[name]
    for metrics, attempted, failures, problems in (first, second):
        assert attempted > 0
        assert failures.count == 0, failures.first
        assert problems == []
        assert set(metrics) == set(PER_LAYER)
    counted = [m for m in PER_LAYER if m.endswith(COUNTED)]
    assert {m: first[0][m] for m in counted} == {m: second[0][m] for m in counted}
    assert sum(first[0][m] for m in counted if m.endswith(".transitions")) > 0


@pytest.mark.parametrize("name", ["fuzz", "deep", "families"])
def test_wrap_output_is_counted_wherever_wrap_runs(traced, name):
    """Through bisim's own wrap on fuzz and deep, through the harness's on families."""
    metrics = traced[name][0][0]
    assert metrics["transforms.wrap_s"] > 0
    assert metrics["transforms.wrap_out_nodes"] > 0


def test_fuzz_inputs_follow_the_seed():
    tm = run.load_tamc()
    fuzz = workloads.WORKLOADS["fuzz"]
    L = workloads.Layers(tm)

    def printed(seed):
        return [tm.syntax.print_source(t) for t in fuzz.setup(tm, L, seed)]

    assert printed(1) == printed(1)
    assert printed(1) != printed(2)


def test_bench_counter_check_sees_a_difference():
    tm = run.load_tamc()
    families = workloads.WORKLOADS["families"]
    tracer = Tracer()
    TL = workloads.Layers(tm, tracer)
    ops = [("fun-explosion", 8)]
    tracer.op = 0
    families.run(TL, ops[0])
    assert families.check_counters(tm, tracer, ops) == []
    tracer.costs[(0, "machine_target")][1] += 1
    assert len(families.check_counters(tm, tracer, ops)) == 1


def test_wrong_verdicts_and_crashes_count_as_failures():
    tm = run.load_tamc()
    L = workloads.Layers(tm)
    deep = workloads.WORKLOADS["deep"]
    good = deep.setup(tm, L, 0)[0]
    failures = run.Failures()
    wrong = workloads.BisimOp(
        good.label, good.term, good.fuel, good.outcome, good.beta + 1, good.pi
    )
    run.attempt(deep.run, failures, L, wrong)

    def too_deep():
        raise RecursionError("maximum recursion depth exceeded")

    run.attempt(too_deep, failures)
    assert failures.by_type == {"Mismatch": 1, "RecursionError": 1}


@pytest.mark.parametrize("a,b,g", [(1, 2, "id"), (2, 2, "pi"), (2, 3, "id"), (3, 2, "pi")])
def test_church_closed_form_matches_the_calculus(a, b, g):
    tm = run.load_tamc()
    r = tm.calculi.normalize_source(tm.syntax.parse(workloads.church_program(a, b, g)))
    beta = sum(1 for label in r.labels if label is tm.calculi.StepLabel.BETA)
    assert (beta, len(r.labels) - beta) == workloads.church_counts(a, b, g)
    assert tm.syntax.print_source(r.term) == "<>"


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(100, 0, -1))) == (90, 90 / 1e6, 10)
    assert run.tail(list(range(1, 41))) == (75, 30 / 1e6, 10)
    assert run.tail(list(range(1, 11))) == (50, 5 / 1e6, 5)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END.values())
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_result_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run", "--seed", "3", "--seconds", "1"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
