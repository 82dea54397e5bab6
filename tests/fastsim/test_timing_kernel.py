"""The native timing kernel: exception order, build cache and fallback.

* **Exception order.**  The kernel suspends for trace exactly where the
  reference model pulls its next entry, so when a program both reaches
  an opcode the timing model cannot place (a timing-side
  ``UnmodeledOpcode``) and runs out of step budget (a functional-side
  ``StepBudgetExceeded``), both backends raise the same one -- including
  when the two meet at a trace-batch boundary.
* **Build cache.**  A cold cache builds once and installs atomically,
  even with two processes racing; a warm cache loads without running a
  compiler.
* **Fallback.**  When the kernel cannot be built, fast cells run on the
  reference simulator with byte-identical payloads and a
  ``native-build`` record on the fallback trail.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.engine.cells import CellSpec, execute_cell
from repro.fastsim import backend as fb
from repro.fastsim import native
from repro.fastsim.functional import FLUSH
from repro.isa.opcodes import Unit
from repro.isa.parser import parse
from repro.sim.config import r10k_config
from repro.sim.functional import (FunctionalSim, StepBudgetExceeded,
                                  UnmodeledOpcode)
from repro.sim.pipeline import TimingSim
from repro.workloads import benchmark_programs

SRC = Path(__file__).resolve().parents[2] / "src"


def _program(iterations: int, pad: bool):
    """A counted loop, then an ``add`` the timing model cannot place.

    The ``add`` executes functionally but carries a ``Unit.NONE`` opcode
    record, which only the timing side rejects.  It is dynamic step
    ``1 + 2 * iterations`` (plus one with *pad*).
    """
    text = "\n".join([
        "main:",
        f"    li r1, {iterations}",
        "loop:",
        "    addi r1, r1, -1",
        "    bnez r1, loop",
        *(["    nop"] if pad else []),
        "    add r2, r2, r3",
        "    halt",
    ])
    prog = parse(text, name=f"unmodeled-{iterations}-{pad}")
    ins = next(i for i in prog.instructions if i.op == "add")
    ins._info = replace(ins.info, unit=Unit.NONE)
    return prog, 1 + 2 * iterations + int(pad)


def _outcome(run) -> str:
    try:
        run()
    except (UnmodeledOpcode, StepBudgetExceeded) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "clean"


# (iterations, pad): the add lands mid-batch, on the last step of the
# first trace batch, and on the first step of the second.
SHAPES = [(10, False), ((FLUSH - 2) // 2, False), ((FLUSH - 2) // 2, True)]


@pytest.mark.parametrize("iterations,pad", SHAPES)
@pytest.mark.parametrize("budget_delta", [-1, 0, 1, 2])
def test_unmodeled_and_step_budget_surface_in_reference_order(
        iterations, pad, budget_delta):
    prog, step = _program(iterations, pad)
    budget = step + budget_delta
    cfg = r10k_config("twobit")

    def reference():
        fsim = FunctionalSim(prog, max_steps=budget, record_outcomes=False)
        TimingSim(cfg).run(fsim.trace())

    expected = _outcome(reference)
    fb.clear_fallback_trail()
    got = _outcome(lambda: fb.simulate(prog, cfg, max_steps=budget))
    assert got == expected
    assert fb.fallback_trail() == ()
    # Both failure kinds are really in play: the budget decides.
    assert expected.startswith(
        "UnmodeledOpcode" if budget > step else "StepBudgetExceeded")


@pytest.fixture
def cold_native(tmp_path, monkeypatch):
    """An empty native cache and no kernel loaded in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_KERNEL", None)
    monkeypatch.setattr(native, "_FAILURE", None)
    fb.clear_fallback_trail()
    yield tmp_path
    fb.clear_fallback_trail()


def test_failed_build_falls_back_with_identical_payloads(cold_native,
                                                         monkeypatch):
    calls = []

    def failing_compiler():
        calls.append(1)
        return [sys.executable, "-c", "raise SystemExit(1)"]

    monkeypatch.setattr(native, "compiler", failing_compiler)
    prog = benchmark_programs(scale=0.02)["grep"]
    payloads = {}
    for scheme, kind, predictor in (("2bitBP", "base", "twobit"),
                                    ("Proposed", "prop", "twobit")):
        spec = CellSpec(benchmark="grep", scheme=scheme, kind=kind,
                        predictor=predictor, program=prog.to_dict(),
                        max_steps=1_000_000, strict=True)
        ref = execute_cell(spec, program=prog)
        fast = execute_cell(replace(spec, backend="fast"), program=prog)
        assert json.dumps(fast, sort_keys=True) == \
            json.dumps(ref, sort_keys=True)
        payloads[scheme] = fast
    stages = {rec.stage for rec in fb.fallback_trail()}
    assert stages == {"native-build"}
    assert fb.fallback_trail()[0].reason.startswith("NativeBuildError")
    # The failure is remembered: one build attempt per process.
    assert len(calls) == 1
    assert all(p["failure"] is None for p in payloads.values())


def test_warm_cache_runs_no_compiler(cold_native, monkeypatch):
    native.kernel()                      # cold: builds into tmp cache
    monkeypatch.setattr(native, "_KERNEL", None)

    def no_subprocess(*args, **kwargs):
        raise AssertionError("compiler spawned on a warm cache")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    assert native.kernel().lib.tk_run is not None


def test_two_processes_build_one_kernel(cold_native):
    code = ("from repro.fastsim import native; "
            "print(native.kernel().__file__)")
    env = {**os.environ, "XDG_CACHE_HOME": str(cold_native),
           "PYTHONPATH": str(SRC)}
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=300)[0].strip() for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0] == outs[1]
    key_dir = Path(outs[0]).parent
    assert key_dir.parent == native.cache_root()
    # Only the installed extension is left: no temp build directories.
    assert [p.name for p in key_dir.iterdir()] == [Path(outs[0]).name]
