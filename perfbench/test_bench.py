"""Tests of the benchmark itself (tiny inputs).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

assert run.ensure_repro_importable()

import bench  # noqa: E402 - needs src/ on the path
import layers  # noqa: E402

HERE = run.HERE
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_declared_workloads_are_the_implemented_ones():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == \
        [(name, bench.WORKLOADS[name].why) for name in run.WORKLOAD_NAMES]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = run_benchmark("--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        layer = {k: m["value"] for k, m in result["metrics"].items()}
        assert layer["fastsim.fallbacks"] == 0
        if workload == "sweep-warm":
            assert layer["engine.compiles"] == layer["engine.simulates"] == 0
            assert layer["engine.cache.hit_rate"] == 1.0
        if workload == "tune-pool":
            assert layer["tune.evaluations"] == \
                bench.SIZES["tune-pool"]["tiny"]["budget"]


def test_record_is_stamped():
    proc = run_benchmark("--workload", "tune-pool", "--seed", "1",
                         "--seconds", "0", "--trace", "0", "--tiny")
    line = next(x for x in proc.stdout.splitlines()
                if x.startswith("record: "))
    record = json.loads(line[len("record: "):])
    for key in ("commit", "host", "cpu", "python", "nproc", "backend",
                "seed", "params", "not_exercised", "model_validation",
                "end_to_end"):
        assert key in record
    assert record["backend"] == "fast"
    assert set(record["not_exercised"]) >= {"serve", "ingest", "qa"}
    assert record["end_to_end"]["fail_pct"]["value"] == 0.0


@pytest.fixture
def stock(tmp_path):
    wl = bench.StockCold(5, True, str(tmp_path))
    wl.setup()
    return wl, [wl.run_pass()]


def test_gate_rejects_an_altered_payload(stock):
    wl, passes = stock
    assert wl.check(passes) == []
    passes[0].payloads["grep/Proposed"]["stats"]["cycles"] += 1
    errors = wl.check(passes)
    assert errors == ["pass 0 vs reference: grep/Proposed differs"]
    with pytest.raises(bench.GateError):
        layers.run_traced(wl, passes)


def test_gate_rejects_a_missing_cell(stock):
    wl, passes = stock
    del passes[0].payloads["xlisp/melded"]
    assert any("cell sets differ" in e for e in wl.check(passes))


def test_sweep_gate_rejects_an_altered_replay(tmp_path):
    wl = bench.SweepWarm(2, True, str(tmp_path))
    wl.setup()
    passes = [wl.run_pass()]
    assert wl.check(passes) == []
    cid = next(iter(passes[0].payloads))
    passes[0].payloads[cid] = dict(passes[0].payloads[cid], cycles=1)
    assert wl.check(passes) == [f"pass 0 vs cold fill: {cid} differs"]


def test_failure_detail_is_not_compared():
    a = {"x/2bitBP": {"failure": "E", "failure_detail": "line 1"}}
    b = {"x/2bitBP": {"failure": "E", "failure_detail": "line 2"}}
    assert bench.payload_mismatches(a, b, "t") == []


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stock-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
