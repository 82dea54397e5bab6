"""Proposed, safe-speculative and melded share one compile prefix.

The three proposed-pipeline kinds differ only in how a guarded diamond
is lowered (if-convert or meld) and in whether a taint guard vets each
hoist.  With a per-program ``share`` dict, :func:`compile_proposed`
resumes each kind from the latest checkpoint whose key matches instead
of starting over.  Sharing must not change a byte: compile results and
cell payloads equal unshared compiles, and a failure inside the shared
prefix shows up identically in every kind.
"""

import json
from dataclasses import replace

import pytest

from repro.core import pipeline
from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.core.pipeline import compile_proposed
from repro.engine.cells import (SCHEME_PLAN, CellSpec, CellTimeout,
                                execute_cell, kind_heuristics, run_cell)
from repro.eval.runner import run_benchmark_impl
from repro.isa import parse
from repro.isa.randprog import BRANCH_PATTERNS, RandProgConfig, random_program
from repro.robust import sandbox
from repro.robust.faults import buggy_pass
from repro.workloads import benchmark_programs
from tests.robust.test_spectre import GADGET_LOOP

MAX_STEPS = 1_000_000
KINDS = ("prop", "safe", "meld")

HEURISTICS = {
    "default": DEFAULT_HEURISTICS,
    "no-speculation": replace(DEFAULT_HEURISTICS, enable_speculation=False),
    "no-likely": replace(DEFAULT_HEURISTICS, enable_likely=False),
    "no-ifconvert": replace(DEFAULT_HEURISTICS, enable_ifconvert=False),
    "no-ifconvert-suppress": replace(DEFAULT_HEURISTICS,
                                     enable_ifconvert=False,
                                     spectre_fence=False),
    "inline-meld2": replace(DEFAULT_HEURISTICS, split_style="inline",
                            meld_max_arm_ops=2),
    "spectre-base": replace(DEFAULT_HEURISTICS, spectre_safe=True),
    "meld-base": replace(DEFAULT_HEURISTICS, enable_meld=True),
}


def _programs():
    progs = dict(benchmark_programs(scale=0.02))
    for seed, pattern in enumerate(BRANCH_PATTERNS):
        prog = random_program(seed, RandProgConfig(
            num_blocks=4, guard_density=0.15, branch_pattern=pattern))
        progs[f"rand-{pattern}"] = prog
    # Speculation hoists a tainted load here unless the guard fences it.
    progs["gadget-loop"] = parse(GADGET_LOOP, name="gadget-loop")
    return progs


PROGRAMS = _programs()


def _dump(d: dict) -> str:
    return json.dumps(d, sort_keys=True)


def _compiles(prog, heur, share):
    """Each proposed kind's ``to_dict()``; a None *share* compiles each
    kind on its own (its own profiling run included)."""
    return {kind: _dump(compile_proposed(
                prog, heur=kind_heuristics(kind, heur), max_steps=MAX_STEPS,
                share=share).to_dict())
            for kind in KINDS}


@pytest.mark.parametrize("heur_name", sorted(HEURISTICS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_shared_compiles_equal_unshared(name, heur_name):
    prog, heur = PROGRAMS[name], HEURISTICS[heur_name]
    assert _compiles(prog, heur, {}) == _compiles(prog, heur, None)


def test_corpus_has_kinds_that_differ():
    # Sharing is only tested if the kinds' outputs differ somewhere.
    gadget = _compiles(PROGRAMS["gadget-loop"],
                       HEURISTICS["no-ifconvert"], None)
    assert gadget["safe"] != gadget["prop"]
    assert gadget["safe"] != _compiles(
        PROGRAMS["gadget-loop"], HEURISTICS["no-ifconvert-suppress"],
        None)["safe"]
    assert any(len(set(_compiles(p, DEFAULT_HEURISTICS, None).values()))
               == 2 for p in PROGRAMS.values())


def _cell(prog, scheme, kind, predictor, heur, memo):
    spec = CellSpec(benchmark=prog.name, scheme=scheme, kind=kind,
                    predictor=predictor, program=prog.to_dict(), heur=heur,
                    max_steps=MAX_STEPS, strict=True)
    return _dump(execute_cell(spec, program=prog, compile_memo=memo))


@pytest.mark.parametrize("name,heur_name", [
    *((name, "default") for name in sorted(PROGRAMS)),
    *((name, "inline-meld2") for name in sorted(PROGRAMS)
      if name.startswith("rand-"))])
def test_five_scheme_payloads_equal_unshared(name, heur_name):
    prog, heur = PROGRAMS[name], HEURISTICS[heur_name]
    unshared = {s: _cell(prog, s, k, p, heur, None)
                for s, k, p in SCHEME_PLAN}
    memo: dict = {}
    shared = {s: _cell(prog, s, k, p, heur, memo) for s, k, p in SCHEME_PLAN}
    assert shared == unshared
    run = run_benchmark_impl(prog.name, prog, heur=heur, max_steps=MAX_STEPS,
                             strict=True)
    assert {s: _dump(r.to_dict()) for s, r in run.results.items()} \
        == unshared


# -- failures inside the shared prefix ------------------------------------------

def _raising_decide(*args, **kwargs):
    raise RuntimeError("injected decide fault")


def _corrupting_decide(cfg, *args, **kwargs):
    plan = REAL_DECIDE(cfg, *args, **kwargs)
    buggy_pass("pass-drops-taken-edge")(cfg)
    return plan


REAL_DECIDE = pipeline.decide


@pytest.mark.parametrize("fault,kind", [(_raising_decide, "exception"),
                                        (_corrupting_decide, "verify")])
def test_prefix_failure_appears_in_every_kind(monkeypatch, fault, kind):
    prog = PROGRAMS["rand-mixed"]
    monkeypatch.setattr(pipeline, "decide", fault)
    unshared = _compiles(prog, DEFAULT_HEURISTICS, None)
    share: dict = {}
    results = {k: compile_proposed(
                   prog, heur=kind_heuristics(k, DEFAULT_HEURISTICS),
                   max_steps=MAX_STEPS, share=share)
               for k in KINDS}
    records = [[f.to_dict() for f in r.failures if f.stage == "decide"]
               for r in results.values()]
    assert records[0] and records[0][0]["kind"] == kind
    assert records[0][0]["rolled_back"]
    assert records == [records[0]] * len(KINDS)
    assert {k: _dump(r.to_dict()) for k, r in results.items()} == unshared


def test_timeout_inside_a_pass_fails_the_cell(monkeypatch):
    # A watchdog timeout is not a pass failure: the sandbox lets it
    # through, so the cell fails instead of keeping a degraded compile,
    # and no compile or checkpoint of the interrupted attempts is left
    # in the benchmark's memo for the other proposed kinds to resume.
    def timing_out(*args, **kwargs):
        raise CellTimeout()

    monkeypatch.setattr(pipeline, "decide", timing_out)
    prog = PROGRAMS["rand-mixed"]
    spec = CellSpec(benchmark=prog.name, scheme="Proposed", kind="prop",
                    predictor="twobit", program=prog.to_dict(),
                    max_steps=MAX_STEPS)
    memo: dict = {}
    cell = run_cell(spec, program=prog, compile_memo=memo)
    assert cell.failure == "CellTimeout"
    assert not any(kind in memo for kind in KINDS)
    shared = [v for v in memo.values()
              if isinstance(v, pipeline._SharedCompiles)]
    assert shared and not any(s.saved for s in shared)


# -- how much work sharing saves ------------------------------------------------

@pytest.fixture
def stage_calls(monkeypatch):
    """Count calls of decide() and of the speculation scheduler."""
    calls = {"decide": 0, "speculate": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "decide",
                        counting("decide", pipeline.decide))
    monkeypatch.setattr(pipeline, "schedule_region",
                        counting("speculate", pipeline.schedule_region))
    return calls


def _has_ifconvert(prog) -> bool:
    cr = compile_proposed(prog, max_steps=MAX_STEPS)
    return bool(cr.plan.by_action("ifconvert"))


@pytest.mark.parametrize("path", ["runner", "engine"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_suite_path_decides_once(stage_calls, name, path):
    prog = PROGRAMS[name]
    expected_speculate = 2 + int(_has_ifconvert(prog))
    stage_calls.update(decide=0, speculate=0)
    if path == "runner":
        run_benchmark_impl(prog.name, prog, max_steps=MAX_STEPS, strict=True)
    else:
        memo: dict = {}
        for scheme, kind, predictor in SCHEME_PLAN:
            _cell(prog, scheme, kind, predictor, DEFAULT_HEURISTICS, memo)
    assert stage_calls == {"decide": 1, "speculate": expected_speculate}


def test_corpus_covers_both_melded_cases():
    # The speculate count above is only meaningful if the corpus has
    # programs with and without an ifconvert decision.
    assert {_has_ifconvert(p) for p in PROGRAMS.values()} == {True, False}


def test_proposed_only_cell_takes_no_extra_snapshot(monkeypatch):
    prog = PROGRAMS["compress"]
    taken = []
    real = sandbox.snapshot_cfg
    monkeypatch.setattr(sandbox, "snapshot_cfg",
                        lambda cfg: taken.append(1) or real(cfg))
    compile_proposed(prog, max_steps=MAX_STEPS)
    unshared = len(taken)
    taken.clear()
    _cell(prog, "Proposed", "prop", "twobit", DEFAULT_HEURISTICS, {})
    assert unshared and len(taken) == unshared
