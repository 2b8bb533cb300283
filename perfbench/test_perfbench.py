"""Self-checks of the benchmark.

The tracer tests are quick. The workload tests run the real benchmark, one
process per run, and take several minutes:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import layers
import tracing

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
WORKLOADS = ("tail_sweep", "hiding_sweep", "shift_sweep", "cli_pipeline")


def _toy_module():
    module = types.ModuleType("entrymean.toy")
    source = '''
import time
def leaf(seconds):
    time.sleep(seconds)
    return seconds
def outer(seconds):
    time.sleep(seconds)
    return leaf(seconds) + leaf(seconds)
def broken():
    raise ValueError("no")
'''
    exec(compile(source, "toy", "exec"), module.__dict__)
    for fn in ("leaf", "outer", "broken"):
        module.__dict__[fn].__module__ = "entrymean.toy"
    return module


def test_tracer_nests_spans_and_restores_bindings():
    toy = _toy_module()
    original = toy.leaf
    with tracing.Tracer([toy]) as tracer:
        assert toy.outer(0.01) == 0.02
        with pytest.raises(ValueError):
            toy.broken()
    assert toy.leaf is original
    spans = {s.name: s for s in tracer.spans if s.name != "toy.leaf"}
    leaves = [s for s in tracer.spans if s.name == "toy.leaf"]
    assert len(leaves) == 2 and all(s.parent == spans["toy.outer"].id for s in leaves)
    assert spans["toy.broken"].error == "ValueError"
    own = tracing.self_times(tracer.spans)
    outer = spans["toy.outer"]
    children = sum(s.end - s.start for s in leaves)
    assert own[outer.id] == pytest.approx(outer.end - outer.start - children, abs=1e-9)
    assert 0.005 < own[outer.id] < 0.05


def test_worker_thread_spans_nest_under_the_pool_caller():
    toy = _toy_module()
    with tracing.Tracer([toy]) as tracer:
        def fan_out(seconds):
            with ThreadPoolExecutor(max_workers=2) as pool:
                return sum(pool.map(toy.leaf, [seconds, seconds]))

        caller = tracer._wrap(fan_out, "toy.fan_out")
        assert caller(0.05) == pytest.approx(0.1)
    root = next(s for s in tracer.spans if s.name == "toy.fan_out")
    leaves = [s for s in tracer.spans if s.name == "toy.leaf"]
    assert {s.parent for s in leaves} == {root.id}
    assert len({s.thread for s in leaves} - {threading.get_ident()}) >= 1
    # The two sleeps overlap, so the covered time is their union, not their sum.
    own = tracing.self_times(tracer.spans)[root.id]
    assert 0.0 <= own < 0.04


def test_every_per_layer_metric_is_computed():
    values = layers.pass_metrics([])
    computed = set(values) | {"experiment.parallel_speedup", "trace.overhead"}
    assert computed == {name for name, _, _ in layers.LAYER_METRICS}


def _run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert time.perf_counter() - start < 180
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first = _run(workload, 3, trace=1)["metrics"]
    second = _run(workload, 3, trace=1)["metrics"]
    assert {name for name, _, _ in layers.LAYER_METRICS} == set(first)
    for name in layers.COUNTS:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_completes(workload):
    metrics = _run(workload, 4, trace=0)["metrics"]
    assert set(metrics) == {"sweep_s", "setup_s", "peak_rss_mb"}
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_missing_package_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tail_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
