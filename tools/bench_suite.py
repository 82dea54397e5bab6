#!/usr/bin/env python
"""Benchmark the evaluation engine: cold vs warm vs parallel suite runs.

Times three phases over a throwaway cache directory:

* **cold**     — empty cache, serial: every cell compiles and simulates;
* **warm**     — same cache, serial: every cell must hit the artifact
  store (the engine's whole point — wall-clock should collapse);
* **parallel** — empty cache again, ``--jobs N``: cold work fanned out
  over worker processes.

Writes ``BENCH_engine.json`` with wall-clock seconds per phase, the
compile/simulate counter totals, cache hit rates, the pool's execution
decision per phase (``serial``/``serial-oversubscribed``/``parallel``,
see :func:`repro.engine.pool.execution_mode`), and the warm/parallel
speedups over cold.  Counters are per-process, so a genuinely parallel
phase reports 0 compiles/simulates in this (parent) process — the work
shows up in its cache misses instead.

A fourth phase measures **observability overhead**: the same pipeline
trace replayed through :class:`~repro.sim.pipeline.TimingSim` with
observability disabled (twice — the A/A delta bounds timer noise) and
enabled; the disabled overhead must stay under 5 %.  Written separately
to ``BENCH_obs.json``.

A fifth phase measures the **speculative-safety pass**: wall-clock of the
Spectre-gadget analysis over the stock workloads (min-of-9 with the same
A/A noise gate) plus the ``safe-speculative`` scheme's IPC delta, code
growth, and fence counts vs plain ``Proposed``.  Written to
``BENCH_spectre.json``.

A sixth phase measures the **fast execution backend**
(``repro.fastsim``): native-kernel functional execution and the
decode-once + batched-event cell path vs the reference interpreters
(min-of-9 with the same A/A noise gate; payloads must stay
byte-identical), plus a cold end-to-end suite run per backend.  Written
to ``BENCH_fastsim.json``; the headline gate is a >= 10x functional
speedup.

A seventh phase measures the **closed-loop autotuner** (``repro.tune``):
one deterministic micro-search over the paper's Figure 6 thresholds,
gating that (a) the learned per-workload vector strictly beats the
paper-default heuristics' IPC on at least one stock workload within 5 %
code growth, and (b) resuming the identical search executes zero cells
(result-level cache hit; min-of-9 warm latency with the A/A noise
gate).  Written to ``BENCH_tune.json``.

An eighth phase measures the **ingest front end and the melded scheme**
(``repro.ingest``): wall-clock of parsing + lowering + verifying the
committed fixture corpus (min-of-9 with the A/A noise gate), then, for
every imported source workload, the ``melded`` scheme's IPC vs the
guarded ``Proposed`` baseline with the meld count — at least one
imported workload must actually meld.  Written to ``BENCH_ingest.json``.

Run from the repository root::

    python tools/bench_suite.py [--scale 0.1] [--jobs 4] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Session  # noqa: E402
from repro.engine import COUNTERS, ArtifactCache  # noqa: E402
from repro.engine import pool as _pool  # noqa: E402


def _timed_run(scale: float, max_steps: int, cache: ArtifactCache,
               jobs: int = 1) -> dict:
    """One suite run; returns wall-clock plus counter/cache deltas."""
    COUNTERS.reset()
    cache.counters.reset()
    _pool.LAST_DECISION = None
    t0 = time.perf_counter()
    runs = Session(cache=cache, jobs=jobs).run_suite(scale=scale,
                                                     max_steps=max_steps)
    elapsed = time.perf_counter() - t0
    failed = [f"{name}/{cell.scheme}"
              for name, run in runs.items()
              for cell in run.results.values() if not cell.ok]
    return {
        "seconds": round(elapsed, 4),
        "compiles": COUNTERS.compiles,
        "simulates": COUNTERS.simulates,
        "cache_hits": cache.counters.hits,
        "cache_misses": cache.counters.misses,
        "hit_rate": round(cache.counters.hit_rate, 4),
        "failed_cells": failed,
        # None when jobs=1 short-circuited before the pool was consulted.
        "pool_decision": (_pool.LAST_DECISION.to_dict()
                          if _pool.LAST_DECISION else None),
    }


def bench_obs_overhead(scale: float, max_steps: int, repeats: int = 9,
                       out: str = "BENCH_obs.json") -> dict:
    """Measure the observability layer's overhead on ``sim.pipeline``.

    Materializes one benchmark's dynamic trace, then replays it through
    :class:`TimingSim` ``repeats`` times per mode, taking the minimum
    (the standard noise-robust estimator for timing microbenchmarks —
    scheduler preemptions only ever add time):

    * ``disabled``       — ``observer=None`` (the default production path);
    * ``disabled_again`` — the same thing re-measured, so the A/A delta
      reports how much of any "overhead" is just timer noise;
    * ``enabled``        — metrics registry on + a PipelineObserver.

    The acceptance gate is on the *disabled* path: with the registry off
    and no observer the simulator must run the pre-observability code,
    so its overhead bound is the A/A noise figure.
    """
    from repro.obs import PipelineObserver, metrics_disable, metrics_enable
    from repro.sim import FunctionalSim, TimingSim, r10k_config
    from repro.workloads import benchmark_programs

    prog = benchmark_programs(scale)["compress"]
    entries = list(FunctionalSim(prog, max_steps=max_steps,
                                 record_outcomes=False).trace())
    config = r10k_config("twobit")

    def _best(observed: bool) -> float:
        times = []
        for _ in range(repeats):
            observer = PipelineObserver() if observed else None
            t0 = time.perf_counter()
            TimingSim(config, observer=observer).run(iter(entries))
            times.append(time.perf_counter() - t0)
        return min(times)

    metrics_disable()
    disabled = _best(False)
    disabled_again = _best(False)
    metrics_enable()
    enabled = _best(True)
    metrics_disable()

    def _pct(new: float, base: float) -> float:
        return round(100.0 * (new - base) / base, 2) if base else 0.0

    record = {
        "bench": "obs_overhead",
        "scale": scale,
        "trace_entries": len(entries),
        "repeats": repeats,
        "seconds": {"disabled": round(disabled, 4),
                    "disabled_again": round(disabled_again, 4),
                    "enabled": round(enabled, 4)},
        # A/A delta: what the same code measures against itself (noise).
        "noise_pct": _pct(disabled_again, disabled),
        "overhead_disabled_pct": _pct(disabled_again, disabled),
        "overhead_enabled_pct": _pct(enabled, disabled),
        "gate_disabled_lt_5pct": abs(_pct(disabled_again, disabled)) < 5.0,
    }
    Path(out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"obs overhead: disabled={record['seconds']['disabled']}s "
          f"A/A noise={record['noise_pct']}% "
          f"enabled=+{record['overhead_enabled_pct']}% -> {out}",
          file=sys.stderr)
    return record


# Synthetic gadget workload for bench_spectre: the branch condition mixes
# the loop counter with untrusted r4 (tainted) and takes the double-load
# arm 3/4 of the time — hot and mispredicted enough that the region
# scheduler hoists the tainted load, which the safe scheme must fence.
_GADGET_LOOP = """.text
main:
    li   r17, 0
    li   r18, 64
loop:
    andi r2, r4, 0xFC
    li   r16, 0x50000
    add  r16, r16, r2
    andi r22, r17, 3
    add  r22, r22, r4
    bgtz r22, then_l
    j    join
then_l:
    lw   r3, 0(r16)
    andi r9, r3, 0xFC
    li   r23, 0x50000
    add  r23, r23, r9
    lw   r10, 0(r23)
    add  r1, r1, r10
join:
    addi r17, r17, 1
    sub  r24, r17, r18
    bltz r24, loop
    li   r20, 0x50100
    sw   r1, 0(r20)
    halt
"""


def bench_spectre(scale: float, max_steps: int, repeats: int = 9,
                  out: str = "BENCH_spectre.json") -> dict:
    """Measure the speculative-safety pass: analysis cost and safety cost.

    Two questions, answered over the stock workloads at *scale*:

    * **analysis overhead** — wall-clock of ``analyze_program`` per
      workload, min-of-``repeats`` with an A/A re-measure so the delta
      bounds timer noise (same estimator as :func:`bench_obs_overhead`);
      stock workloads must report **zero findings**;
    * **safety cost** — the ``safe-speculative`` scheme vs plain
      ``Proposed``: IPC delta, static code growth, and fences planted,
      from one deterministic compile+simulate per scheme (simulation is
      cycle-exact, so no repeat sampling is needed there).
    """
    from dataclasses import replace

    from repro.core import compile_proposed
    from repro.core.heuristics import DEFAULT_HEURISTICS
    from repro.robust.spectre import analyze_program
    from repro.sim import r10k_config, simulate
    from repro.workloads import benchmark_programs

    programs = benchmark_programs(scale)
    config = r10k_config("twobit")
    safe_heur = replace(DEFAULT_HEURISTICS, spectre_safe=True)

    def _best_analysis() -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for prog in programs.values():
                analyze_program(prog)
            times.append(time.perf_counter() - t0)
        return min(times)

    analysis = _best_analysis()
    analysis_again = _best_analysis()

    workloads: dict[str, dict] = {}
    for name, prog in programs.items():
        findings = analyze_program(prog)
        prop = compile_proposed(prog, max_steps=max_steps)
        safe = compile_proposed(prog, heur=safe_heur, max_steps=max_steps)
        prop_ipc = simulate(prop.program, config).ipc
        safe_ipc = simulate(safe.program, config).ipc
        rr = safe.region_report
        workloads[name] = {
            "findings": len(findings),
            "ipc_proposed": round(prop_ipc, 4),
            "ipc_safe": round(safe_ipc, 4),
            "ipc_delta_pct": round(
                100.0 * (safe_ipc - prop_ipc) / prop_ipc, 2)
            if prop_ipc else 0.0,
            "code_growth_pct": round(
                100.0 * (len(safe.program) - len(prop.program))
                / len(prop.program), 2) if len(prop.program) else 0.0,
            "fences": rr.fenced if rr else 0,
            "suppressed": rr.suppressed if rr else 0,
        }

    # One synthetic gadget-bearing workload so the record also shows the
    # non-trivial cost: a hot, tainted double-load arm the plain scheme
    # speculates on and the safe scheme must fence.
    from repro.core import compile_variant
    from repro.isa import parse

    gadget = parse(_GADGET_LOOP, name="gadget-loop")
    g_findings = analyze_program(gadget)
    g_prop = compile_variant(gadget, ifconvert=False)
    g_safe = compile_variant(gadget, ifconvert=False, spectre=True)
    g_prop_ipc = simulate(g_prop.program, config).ipc
    g_safe_ipc = simulate(g_safe.program, config).ipc
    g_rr = g_safe.region_report
    synthetic = {
        "findings": len(g_findings),
        "ipc_proposed": round(g_prop_ipc, 4),
        "ipc_safe": round(g_safe_ipc, 4),
        "ipc_delta_pct": round(
            100.0 * (g_safe_ipc - g_prop_ipc) / g_prop_ipc, 2)
        if g_prop_ipc else 0.0,
        "code_growth_pct": round(
            100.0 * (len(g_safe.program) - len(g_prop.program))
            / len(g_prop.program), 2) if len(g_prop.program) else 0.0,
        "fences": g_rr.fenced if g_rr else 0,
        "suppressed": g_rr.suppressed if g_rr else 0,
    }

    def _pct(new: float, base: float) -> float:
        return round(100.0 * (new - base) / base, 2) if base else 0.0

    record = {
        "bench": "spectre",
        "synthetic_gadget": synthetic,
        "scale": scale,
        "repeats": repeats,
        "analysis_seconds": round(analysis, 4),
        "analysis_seconds_again": round(analysis_again, 4),
        # A/A delta: the same analysis measured against itself (noise).
        "noise_pct": _pct(analysis_again, analysis),
        "gate_noise_lt_5pct": abs(_pct(analysis_again, analysis)) < 5.0,
        "stock_findings_total": sum(w["findings"]
                                    for w in workloads.values()),
        "gate_stock_clean": all(w["findings"] == 0
                                for w in workloads.values()),
        "workloads": workloads,
    }
    Path(out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    deltas = ", ".join(f"{n}={w['ipc_delta_pct']}%"
                       for n, w in workloads.items())
    print(f"spectre: analysis={record['analysis_seconds']}s "
          f"A/A noise={record['noise_pct']}% safe-vs-proposed IPC "
          f"[{deltas}] -> {out}", file=sys.stderr)
    return record


def bench_fastsim(scale: float, max_steps: int, repeats: int = 9,
                  out: str = "BENCH_fastsim.json") -> dict:
    """Measure the fast execution backend against the reference simulators.

    Three measurements over the stock workloads at *scale*, all with the
    engine's result cache cold (the decode and lowering caches, and the
    native kernels, are warmed once per program first — their cost is
    one-time per program and is charged to the ``end_to_end`` figure
    instead):

    * **functional** (the headline, gated >= 10x) — one full functional
      run per workload with outcome recording on (the profiling
      configuration), reference vs native kernel, min-of-``repeats``
      with an A/A re-measure bounding timer noise;
    * **sim_path** (regression floor, gated >= 2.5x) — one full cell
      (functional + timing) per workload, reference pair vs
      decode-once + batched-event pair, min-of-3 (the timing model
      dominates, so fewer repeats suffice); the two payload dict pairs
      must be byte-identical;
    * **end_to_end** — one cold ``Session.run_suite`` per
      backend over throwaway caches (includes the shared compile cost,
      so this ratio is what a user actually feels; reported, not gated).
    """
    from repro.fastsim import FastFunctionalSim
    from repro.fastsim.backend import simulate as fast_simulate
    from repro.sim import FunctionalSim, TimingSim, r10k_config
    from repro.workloads import benchmark_programs

    programs = benchmark_programs(scale)
    config = r10k_config("twobit")

    def _best(fn, n: int) -> float:
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    functional: dict[str, dict] = {}
    sim_path: dict[str, dict] = {}
    payloads_identical = True
    for name, prog in programs.items():
        # Warm the decode and lowering caches for both run modes
        # (record-mode functional, trace-mode cell) before any clock
        # starts.
        FastFunctionalSim(prog, max_steps=max_steps).run()
        fast_pair = fast_simulate(prog, config, max_steps=max_steps)

        ref_s = _best(lambda: FunctionalSim(
            prog, max_steps=max_steps, record_outcomes=True).run(), repeats)
        ref_again = _best(lambda: FunctionalSim(
            prog, max_steps=max_steps, record_outcomes=True).run(), repeats)
        fast_s = _best(lambda: FastFunctionalSim(
            prog, max_steps=max_steps, record_outcomes=True).run(), repeats)
        functional[name] = {
            "reference_s": round(ref_s, 4),
            "reference_again_s": round(ref_again, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(ref_s / fast_s, 2) if fast_s else None,
        }

        def _ref_cell():
            fsim = FunctionalSim(prog, max_steps=max_steps,
                                 record_outcomes=False)
            stats = TimingSim(config).run(fsim.trace())
            return stats, fsim.stats

        ref_pair = _ref_cell()
        payloads_identical &= (
            (ref_pair[0].to_dict(), ref_pair[1].to_dict())
            == (fast_pair[0].to_dict(), fast_pair[1].to_dict()))
        cell_ref = _best(_ref_cell, 3)
        cell_fast = _best(lambda: fast_simulate(prog, config,
                                                max_steps=max_steps), 3)
        sim_path[name] = {
            "reference_s": round(cell_ref, 4),
            "fast_s": round(cell_fast, 4),
            "speedup": round(cell_ref / cell_fast, 2) if cell_fast else None,
        }

    def _totals(rows: dict, key_ref: str = "reference_s") -> dict:
        ref = sum(r[key_ref] for r in rows.values())
        fast = sum(r["fast_s"] for r in rows.values())
        return {"reference_s": round(ref, 4), "fast_s": round(fast, 4),
                "speedup": round(ref / fast, 2) if fast else None}

    func_total = _totals(functional)
    ref_total = sum(r["reference_s"] for r in functional.values())
    again_total = sum(r["reference_again_s"] for r in functional.values())
    noise_pct = (round(100.0 * (again_total - ref_total) / ref_total, 2)
                 if ref_total else 0.0)
    sim_total = _totals(sim_path)

    end_to_end: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="bench-fastsim-") as d:
        for backend in ("reference", "fast"):
            cache = ArtifactCache(Path(d) / backend)
            t0 = time.perf_counter()
            Session(cache=cache, backend=backend).run_suite(
                scale=scale, max_steps=max_steps)
            end_to_end[f"{backend}_s"] = round(time.perf_counter() - t0, 4)
    end_to_end["speedup"] = (
        round(end_to_end["reference_s"] / end_to_end["fast_s"], 2)
        if end_to_end["fast_s"] else None)

    record = {
        "bench": "fastsim",
        "scale": scale,
        "repeats": repeats,
        "max_steps": max_steps,
        "semantics": ("engine result cache cold; decode and lowering "
                      "caches warm (their one-time cost is charged to "
                      "end_to_end, which runs everything cold)"),
        "functional": {"workloads": functional, "total": func_total,
                       "noise_pct": noise_pct},
        "sim_path": {"workloads": sim_path, "total": sim_total},
        "end_to_end": end_to_end,
        "gate_functional_ge_10x": (func_total["speedup"] or 0) >= 10.0,
        "gate_sim_path_ge_2_5x": (sim_total["speedup"] or 0) >= 2.5,
        "gate_payloads_identical": payloads_identical,
        "gate_noise_lt_5pct": abs(noise_pct) < 5.0,
    }
    Path(out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"fastsim: functional={func_total['speedup']}x "
          f"(A/A noise={noise_pct}%) sim-path={sim_total['speedup']}x "
          f"end-to-end={end_to_end['speedup']}x "
          f"payloads-identical={payloads_identical} -> {out}",
          file=sys.stderr)
    return record


def bench_tune(scale: float, max_steps: int, repeats: int = 9,
               budget: int = 24, out: str = "BENCH_tune.json") -> dict:
    """Measure the closed-loop tuner: learned-vs-default IPC and resume.

    One deterministic micro-search (seed 0, *budget* evaluations) over
    the paper's four Figure 6 thresholds, then:

    * **learned-vs-paper gate** — the per-workload winning vector must
      strictly beat ``DEFAULT_HEURISTICS`` IPC on at least one stock
      workload while staying within 5% code growth of the default
      compile (winners are slack-constrained by construction; the gate
      asserts a strict improvement exists).  IPC comes from the
      cycle-exact timing simulator, so no repeat sampling applies to it;
    * **resume gate** — re-running the identical search against the warm
      cache must execute **zero** cells (compile/simulate counters stay
      at 0: the result-level entry answers first, and every cell behind
      it is a content-addressed hit);
    * **resume latency** — wall-clock of the warm resume, min-of-
      ``repeats`` measured twice (the A/A delta bounds timer noise),
      plus the cold-search seconds it replaces.
    """
    from repro.tune import DEFAULT_PARAM_NAMES, ParamSpec, TuneSpec, \
        run_tune

    spec = TuneSpec(
        params=tuple(ParamSpec(n) for n in DEFAULT_PARAM_NAMES),
        scale=scale, budget=budget, seed=0, max_steps=max_steps)

    with tempfile.TemporaryDirectory(prefix="bench-tune-") as d:
        cache = ArtifactCache(Path(d) / "cache")
        t0 = time.perf_counter()
        result = run_tune(spec, cache=cache, jobs=1)
        cold_s = time.perf_counter() - t0

        COUNTERS.reset()
        resumed = run_tune(spec, cache=cache, jobs=1)
        resume_compiles = COUNTERS.compiles
        resume_simulates = COUNTERS.simulates

        def _best_resume() -> float:
            times = []
            for _ in range(repeats):
                t = time.perf_counter()
                run_tune(spec, cache=cache, jobs=1)
                times.append(time.perf_counter() - t)
            return min(times)

        resume_s = _best_resume()
        resume_again_s = _best_resume()

    def _pct(new: float, base: float) -> float:
        return round(100.0 * (new - base) / base, 2) if base else 0.0

    workloads = {
        bench: {
            "candidate": w["candidate"],
            "params": w["params"],
            "ipc_tuned": round(w["ipc"], 4),
            "ipc_default": round(w["default_ipc"], 4),
            "ipc_gain_pct": round(w["ipc_gain_pct"], 2),
            "code_growth": round(w["code_growth"], 4),
            "code_growth_vs_default_pct": _pct(
                w["code_growth"], w["default_code_growth"]),
        }
        for bench, w in sorted(result.per_workload.items())
    }
    improved = [b for b, w in workloads.items()
                if w["ipc_tuned"] > w["ipc_default"]
                and w["code_growth_vs_default_pct"] <= 5.0]

    record = {
        "bench": "tune",
        "scale": scale,
        "budget": budget,
        "seed": spec.seed,
        "repeats": repeats,
        "evaluations": result.evaluations,
        "candidates": len(result.candidates),
        "pareto_size": len(result.pareto),
        "cells_hit": result.cells_hit,
        "cells_executed": result.cells_executed,
        "cold_seconds": round(cold_s, 4),
        "resume_seconds": round(resume_s, 4),
        "resume_seconds_again": round(resume_again_s, 4),
        "noise_pct": _pct(resume_again_s, resume_s),
        "gate_noise_lt_5pct": abs(_pct(resume_again_s, resume_s)) < 5.0,
        "resume_compiles": resume_compiles,
        "resume_simulates": resume_simulates,
        "gate_resume_zero_cells": (resume_compiles == 0
                                   and resume_simulates == 0),
        "resume_identical": resumed.to_dict() == result.to_dict(),
        "improved_workloads": improved,
        "gate_tuned_beats_default": bool(improved),
        "workloads": workloads,
    }
    Path(out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    gains = ", ".join(f"{b}=+{workloads[b]['ipc_gain_pct']}%"
                      for b in improved) or "none"
    print(f"tune: {result.evaluations} evaluations cold={cold_s:.2f}s "
          f"resume={resume_s:.4f}s (0 cells: "
          f"{record['gate_resume_zero_cells']}) improved [{gains}] "
          f"-> {out}", file=sys.stderr)
    return record


def bench_ingest(max_steps: int, repeats: int = 9,
                 fixtures: str = "tests/ingest/fixtures",
                 out: str = "BENCH_ingest.json") -> dict:
    """Measure the import front end and the melded scheme (ISSUE 10).

    Two questions over the committed fixture corpus:

    * **front-end cost** — wall-clock of parse + lower + verify for the
      whole corpus (sources and traces), min-of-``repeats`` measured
      twice so the A/A delta bounds timer noise (the same estimator as
      :func:`bench_obs_overhead`);
    * **melded vs guarded** — for every imported *source* workload, one
      deterministic compile per scheme (plain ``Proposed`` = guarded
      baseline, ``enable_meld`` = melded) and the cycle-exact IPC from
      the timing simulator, plus static code growth and the number of
      diamonds actually melded.  Simulation is deterministic, so no
      repeat sampling applies there.  The gate demands that at least one
      imported workload melds at least one diamond — otherwise the
      scheme column would be measuring nothing.
    """
    from dataclasses import replace

    from repro.core import compile_proposed
    from repro.core.heuristics import DEFAULT_HEURISTICS
    from repro.ingest import expand_fixtures, import_path
    from repro.sim import r10k_config, simulate

    root = Path(fixtures)
    files = expand_fixtures([root])
    if not files:
        raise SystemExit(f"no ingest fixtures under {root}")
    config = r10k_config("twobit")
    meld_heur = replace(DEFAULT_HEURISTICS, enable_meld=True)

    def _best_ingest() -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for path in files:
                import_path(path)
            times.append(time.perf_counter() - t0)
        return min(times)

    ingest_s = _best_ingest()
    ingest_again_s = _best_ingest()

    workloads: dict[str, dict] = {}
    for path in files:
        if path.suffix != ".bril":
            continue  # traces measure the front end; schemes want sources
        prog = import_path(path)
        guarded = compile_proposed(prog, max_steps=max_steps)
        melded = compile_proposed(prog, heur=meld_heur, max_steps=max_steps)
        g_ipc = simulate(guarded.program, config).ipc
        m_ipc = simulate(melded.program, config).ipc
        workloads[path.stem] = {
            "program": prog.name,
            "melds_applied": melded.melds_applied,
            "ipc_guarded": round(g_ipc, 4),
            "ipc_melded": round(m_ipc, 4),
            "ipc_delta_pct": round(100.0 * (m_ipc - g_ipc) / g_ipc, 2)
            if g_ipc else 0.0,
            "code_growth_pct": round(
                100.0 * (len(melded.program) - len(guarded.program))
                / len(guarded.program), 2) if len(guarded.program) else 0.0,
        }

    def _pct(new: float, base: float) -> float:
        return round(100.0 * (new - base) / base, 2) if base else 0.0

    record = {
        "bench": "ingest",
        "fixtures": len(files),
        "repeats": repeats,
        "ingest_seconds": round(ingest_s, 4),
        "ingest_seconds_again": round(ingest_again_s, 4),
        # A/A delta: the same front-end pass measured against itself.
        "noise_pct": _pct(ingest_again_s, ingest_s),
        "gate_noise_lt_5pct": abs(_pct(ingest_again_s, ingest_s)) < 5.0,
        "melds_total": sum(w["melds_applied"] for w in workloads.values()),
        "gate_some_workload_melds": any(w["melds_applied"] > 0
                                        for w in workloads.values()),
        "workloads": workloads,
    }
    Path(out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    deltas = ", ".join(
        f"{n}={w['ipc_delta_pct']}%({w['melds_applied']})"
        for n, w in workloads.items() if w["melds_applied"])
    print(f"ingest: {len(files)} fixtures in {record['ingest_seconds']}s "
          f"A/A noise={record['noise_pct']}% melded-vs-guarded IPC "
          f"[{deltas or 'no melds'}] -> {out}", file=sys.stderr)
    return record


def main(argv: list[str] | None = None) -> int:
    """Time the three phases and write the JSON record."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=0.1,
                    help="workload scale factor (default 0.1)")
    ap.add_argument("--jobs", type=int, default=max(2, os.cpu_count() or 2),
                    help="worker processes for the parallel phase")
    ap.add_argument("--max-steps", type=int, default=50_000_000,
                    help="per-cell functional step budget")
    ap.add_argument("--out", default="BENCH_engine.json",
                    help="output path (default BENCH_engine.json)")
    ap.add_argument("--obs-out", default="BENCH_obs.json",
                    help="observability-overhead output path "
                         "(default BENCH_obs.json)")
    ap.add_argument("--skip-obs", action="store_true",
                    help="skip the observability-overhead phase")
    ap.add_argument("--spectre-out", default="BENCH_spectre.json",
                    help="speculative-safety output path "
                         "(default BENCH_spectre.json)")
    ap.add_argument("--skip-spectre", action="store_true",
                    help="skip the speculative-safety phase")
    ap.add_argument("--fastsim-out", default="BENCH_fastsim.json",
                    help="fast-backend output path "
                         "(default BENCH_fastsim.json)")
    ap.add_argument("--skip-fastsim", action="store_true",
                    help="skip the fast-backend phase")
    ap.add_argument("--tune-out", default="BENCH_tune.json",
                    help="autotuning output path (default BENCH_tune.json)")
    ap.add_argument("--skip-tune", action="store_true",
                    help="skip the autotuning phase")
    ap.add_argument("--tune-budget", type=int, default=24,
                    help="candidate-evaluation budget for the tune phase")
    ap.add_argument("--ingest-out", default="BENCH_ingest.json",
                    help="ingest/meld output path "
                         "(default BENCH_ingest.json)")
    ap.add_argument("--skip-ingest", action="store_true",
                    help="skip the ingest/meld phase")
    args = ap.parse_args(argv)

    phases: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as d:
        cache = ArtifactCache(Path(d) / "serial")
        print(f"cold   (scale={args.scale}, jobs=1) ...", file=sys.stderr)
        phases["cold"] = _timed_run(args.scale, args.max_steps, cache)
        print(f"warm   (scale={args.scale}, jobs=1) ...", file=sys.stderr)
        phases["warm"] = _timed_run(args.scale, args.max_steps, cache)
        par_cache = ArtifactCache(Path(d) / "parallel")
        print(f"parallel (scale={args.scale}, jobs={args.jobs}) ...",
              file=sys.stderr)
        phases["parallel"] = _timed_run(args.scale, args.max_steps,
                                        par_cache, jobs=args.jobs)

    cold_s = phases["cold"]["seconds"]
    record = {
        "bench": "engine_suite",
        "scale": args.scale,
        "jobs": args.jobs,
        # Parallel speedup is bounded by physical cores; a 1-core host
        # can only show that fan-out overhead is small, not a win.
        "cpu_count": os.cpu_count(),
        "max_steps": args.max_steps,
        "phases": phases,
        "speedup_warm_over_cold": round(
            cold_s / phases["warm"]["seconds"], 2)
        if phases["warm"]["seconds"] else None,
        "speedup_parallel_over_cold": round(
            cold_s / phases["parallel"]["seconds"], 2)
        if phases["parallel"]["seconds"] else None,
        "cold_gt_warm": cold_s > phases["warm"]["seconds"],
    }
    Path(args.out).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"cold={cold_s}s warm={phases['warm']['seconds']}s "
          f"parallel={phases['parallel']['seconds']}s "
          f"-> {args.out}", file=sys.stderr)
    rc = 0
    if not args.skip_obs:
        print(f"obs overhead (scale={args.scale}) ...", file=sys.stderr)
        obs = bench_obs_overhead(args.scale, args.max_steps,
                                 out=args.obs_out)
        if not obs["gate_disabled_lt_5pct"]:
            print("WARNING: disabled-observability overhead exceeded 5%",
                  file=sys.stderr)
            rc = 1
    if not args.skip_spectre:
        print(f"spectre (scale={args.scale}) ...", file=sys.stderr)
        spec = bench_spectre(args.scale, args.max_steps,
                             out=args.spectre_out)
        if not spec["gate_stock_clean"]:
            print("WARNING: spectre analysis flagged a stock workload",
                  file=sys.stderr)
            rc = 1
        if not spec["gate_noise_lt_5pct"]:
            print("WARNING: spectre analysis A/A noise exceeded 5%",
                  file=sys.stderr)
            rc = 1
    if not args.skip_fastsim:
        print(f"fastsim (scale={args.scale}) ...", file=sys.stderr)
        fs = bench_fastsim(args.scale, args.max_steps,
                           out=args.fastsim_out)
        if not fs["gate_payloads_identical"]:
            print("WARNING: fast backend payloads diverged from reference",
                  file=sys.stderr)
            rc = 1
        if not fs["gate_functional_ge_10x"]:
            print("WARNING: fast functional speedup fell below 10x",
                  file=sys.stderr)
            rc = 1
        if not fs["gate_sim_path_ge_2_5x"]:
            print("WARNING: fast sim-path speedup fell below 2.5x",
                  file=sys.stderr)
            rc = 1
        if not fs["gate_noise_lt_5pct"]:
            print("WARNING: fastsim A/A noise exceeded 5%", file=sys.stderr)
            rc = 1
    if not args.skip_tune:
        print(f"tune (scale={args.scale}, budget={args.tune_budget}) ...",
              file=sys.stderr)
        tn = bench_tune(args.scale, args.max_steps,
                        budget=args.tune_budget, out=args.tune_out)
        if not tn["gate_tuned_beats_default"]:
            print("WARNING: tuner found no workload beating the paper "
                  "defaults within 5% code growth", file=sys.stderr)
            rc = 1
        if not tn["gate_resume_zero_cells"]:
            print("WARNING: resumed tune search executed cells",
                  file=sys.stderr)
            rc = 1
        if not tn["gate_noise_lt_5pct"]:
            print("WARNING: tune resume A/A noise exceeded 5%",
                  file=sys.stderr)
            rc = 1
    if not args.skip_ingest:
        print("ingest (fixture corpus) ...", file=sys.stderr)
        ing = bench_ingest(args.max_steps, out=args.ingest_out)
        if not ing["gate_some_workload_melds"]:
            print("WARNING: no imported workload melded any diamond",
                  file=sys.stderr)
            rc = 1
        if not ing["gate_noise_lt_5pct"]:
            print("WARNING: ingest A/A noise exceeded 5%", file=sys.stderr)
            rc = 1
    if not record["cold_gt_warm"]:
        print("WARNING: warm run was not faster than cold", file=sys.stderr)
        return 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
