"""One profiling run per program across the proposed-pipeline schemes.

``Proposed``, ``safe-speculative`` and ``melded`` compile with different
heuristics but the same ``heur.classify``, so the serial suite runner
and the engine's per-benchmark compile memo profile each program once.
Sharing must not change a byte: compiled programs and cell payloads
equal per-compile profiling, and a profiling failure is replayed as the
identical ``PassFailure`` into every compile that shares it.
"""

import json

import pytest

from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.core.pipeline import compile_proposed
from repro.engine.cells import (SCHEME_PLAN, CellSpec, execute_cell,
                                kind_heuristics)
from repro.eval.runner import run_benchmark_impl
from repro.profilefb.profiledb import ProfileDB
from repro.workloads import benchmark_programs

MAX_STEPS = 1_000_000
PROPOSED = [(s, k, p) for s, k, p in SCHEME_PLAN if k != "base"]


@pytest.fixture
def prog():
    return benchmark_programs(scale=0.02)["compress"]


@pytest.fixture
def profile_runs(monkeypatch):
    """Count ProfileDB.from_run calls; ``fail`` makes each one raise."""
    real = ProfileDB.from_run.__func__
    state = {"runs": 0, "fail": False}

    def counted(cls, *args, **kwargs):
        state["runs"] += 1
        if state["fail"]:
            raise RuntimeError("injected profiling fault")
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(ProfileDB, "from_run", classmethod(counted))
    return state


def _unshared(prog):
    """Each proposed kind compiled with its own profiling run."""
    return {kind: compile_proposed(
                prog, heur=kind_heuristics(kind, DEFAULT_HEURISTICS),
                max_steps=MAX_STEPS).to_dict()
            for _, kind, _ in PROPOSED}


def _cells(prog):
    memo: dict = {}
    out = {}
    for scheme, kind, predictor in PROPOSED:
        spec = CellSpec(benchmark=prog.name, scheme=scheme, kind=kind,
                        predictor=predictor, program=prog.to_dict(),
                        max_steps=MAX_STEPS, strict=True)
        out[kind] = execute_cell(spec, program=prog, compile_memo=memo)
    return out


@pytest.mark.parametrize("fail", [False, True])
def test_runner_profiles_once(prog, profile_runs, fail):
    profile_runs["fail"] = fail
    expected = _unshared(prog)
    assert profile_runs["runs"] == len(PROPOSED)
    profile_runs["runs"] = 0
    run = run_benchmark_impl(prog.name, prog, max_steps=MAX_STEPS,
                             strict=True)
    assert profile_runs["runs"] == 1
    for scheme, kind, _ in PROPOSED:
        got = run.results[scheme].compile_result.to_dict()
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(expected[kind], sort_keys=True)
        failures = [f["stage"] for f in got["failures"]]
        assert failures.count("profile") == int(fail)


@pytest.mark.parametrize("fail", [False, True])
def test_engine_memo_profiles_once(prog, profile_runs, fail):
    profile_runs["fail"] = fail
    expected = _unshared(prog)
    profile_runs["runs"] = 0
    cells = _cells(prog)
    assert profile_runs["runs"] == 1
    for _, kind, _ in PROPOSED:
        assert json.dumps(cells[kind]["compile_result"], sort_keys=True) \
            == json.dumps(expected[kind], sort_keys=True)
