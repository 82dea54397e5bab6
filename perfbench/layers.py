"""The traced run: each layer's public function called directly, in the
order the engine calls it, each call wrapped in a span of this file.

Spans are timed from outside the program: nothing in ``src/`` is
instrumented.  A span's *self time* is its duration minus the time its
child spans cover, so ``FastTimingSim.run`` (which pulls batches from the
functional executor) and the functional ``next()`` calls nested inside it
split cleanly.  The metrics registry stays disabled throughout, because
an active pipeline observer would send every fast cell to the reference
simulator.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import replace

from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.core.pipeline import compile_baseline, compile_proposed
from repro.engine.cells import SCHEME_PLAN
from repro.engine.keys import cell_key
# the flat record Session.sweep emits per cell
from repro.engine.sweep import _cell_record as cell_record
from repro.eval.runner import SchemeResult
from repro.fastsim.backend import (clear_fallback_trail, fallback_trail,
                                   simulate as fast_simulate)
from repro.fastsim.codegen import get_compiled
from repro.fastsim.decode import decode_program
from repro.fastsim.functional import FastFunctionalSim
from repro.fastsim.timing import FastTimingSim
from repro.profilefb.profiledb import ProfileDB
from repro.sim.config import r10k_config
from repro.tune import evaluate as tune_evaluate
from repro.tune import search as tune_search
from repro.workloads import benchmark_programs

from bench import (BACKEND, MAX_STEPS, SCHEMES, ColdSuite, GateError,
                   SweepWarm, TunePool, geomean, payload_ipc,
                   payload_mismatches, sweep_payloads)


class Tracer:
    """In-memory span aggregation (self time and calls per span name),
    plus counts recorded at the same boundaries."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._children: list[float] = []

    @contextlib.contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            covered = self._children.pop()
            self.self_time[name] += dt - covered
            self.calls[name] += 1
            if self._children:
                self._children[-1] += dt

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named *name*."""
        with self.span(name):
            return fn(*args, **kwargs)

    def iterate(self, name: str, iterable):
        """Yield from *iterable*, each ``next()`` inside a span."""
        it = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    def wrap(self, name: str, fn):
        """*fn* with every call inside a span named *name*."""
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapped

    @contextlib.contextmanager
    def patched(self, module, attr: str, name: str):
        """Time every call a module makes through its *attr* binding."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original))
        try:
            yield
        finally:
            setattr(module, attr, original)


def cache_marks(store) -> tuple:
    """(hits, misses, bytes on disk) of an artifact cache."""
    return (store.counters.hits, store.counters.misses,
            store.stats()["total_bytes"])


def count_cache(tr: Tracer, store, since: tuple = (0, 0, 0)) -> None:
    """Add the cache's lookups, hits and written bytes since *since*."""
    hits, misses, size = (now - then for now, then
                          in zip(cache_marks(store), since))
    tr.counts["engine.cache.hits"] += hits
    tr.counts["engine.cache.lookups"] += hits + misses
    tr.counts["engine.cache.bytes"] += size


# -- one cold cell, layer by layer --------------------------------------------

def traced_compile(kind: str, prog, tr: Tracer):
    """The engine's compile of one pipeline *kind* (see
    ``engine.cells.counted_compile``), with the profile run of the
    proposed pipelines made explicitly so it gets its own span."""
    if kind == "base":
        return tr.call("core.compile_baseline", compile_baseline, prog)
    heur = DEFAULT_HEURISTICS
    if kind == "safe":
        heur = replace(heur, spectre_safe=True)
    elif kind == "meld":
        heur = replace(heur, enable_meld=True)
    clear_fallback_trail()
    profile = tr.call("profilefb.profile", ProfileDB.from_run, prog,
                      max_steps=MAX_STEPS, config=heur.classify,
                      backend=BACKEND)
    tr.counts["fastsim.fallbacks"] += len(fallback_trail())
    return tr.call("core.compile_proposed", compile_proposed, prog,
                   heur=heur, max_steps=MAX_STEPS, backend=BACKEND,
                   profile=profile)


def traced_simulate(prog, config, tr: Tracer, sources: dict):
    """``fastsim.backend.simulate`` taken apart: decode, codegen,
    functional and timing.  Any exception hands the cell to the contained
    entry point itself, which re-raises a program-semantic failure and
    reruns an internal one on the reference (counted as a fallback)."""
    try:
        dec = tr.call("fastsim.decode", decode_program, prog)
        compiled = tr.call("fastsim.codegen", get_compiled, dec,
                           record=False, trace=True)
        sources[id(compiled)] = len(compiled.source)
        fsim = tr.call("fastsim.functional", FastFunctionalSim, prog,
                       max_steps=MAX_STEPS, record_outcomes=False,
                       decoded=dec)
        with tr.span("fastsim.timing"):
            tsim = FastTimingSim(config, decoded=dec)
            stats = tsim.run(tr.iterate("fastsim.functional",
                                        fsim.batches()))
        return stats, fsim.stats
    except Exception:  # noqa: BLE001 - the contained entry decides
        clear_fallback_trail()
        with tr.span("fastsim.fallback"):
            result = fast_simulate(prog, config, max_steps=MAX_STEPS)
        tr.counts["fastsim.fallbacks"] += max(1, len(fallback_trail()))
        return result


def traced_cold(wl: ColdSuite, tr: Tracer) -> tuple[dict, list]:
    """One cold pass in engine order: keys and cache lookups, then each
    program's compiles and simulations, then the cache write-back."""
    store = wl.fresh_cache()
    progs = tr.call("workloads.generate", wl.programs)
    keys = {}
    for name, prog in progs.items():
        for scheme, _, predictor in SCHEME_PLAN:
            key = tr.call("engine.keys", cell_key, prog, scheme,
                          DEFAULT_HEURISTICS, r10k_config(predictor),
                          MAX_STEPS, backend=BACKEND)
            if tr.call("engine.cache.get", store.get, key) is not None:
                raise GateError(f"{name}/{scheme}: hit in an empty cache")
            keys[f"{name}/{scheme}"] = key
    cells = {}
    sources: dict = {}
    for name, prog in progs.items():
        compiles = {}
        for scheme, kind, predictor in SCHEME_PLAN:
            if kind not in compiles:
                compiles[kind] = traced_compile(kind, prog, tr)
            cr = compiles[kind]
            stats, exec_stats = traced_simulate(
                cr.program, r10k_config(predictor), tr, sources)
            cells[f"{name}/{scheme}"] = SchemeResult(
                name, scheme, stats, exec_stats, cr)
    payloads = {}
    for cid, cell in cells.items():
        with tr.span("engine.cache.put"):
            payloads[cid] = cell.to_dict()
            store.put(keys[cid], payloads[cid])
    tr.counts["fastsim.codegen.bytes"] += sum(sources.values())
    count_cache(tr, store)
    wl.drop_caches()
    return payloads, list(payloads.values())


def traced_sweep(wl: SweepWarm, tr: Tracer) -> tuple[dict, list]:
    """One warm replay: every grid cell keyed, read and decoded."""
    store = wl.session.cache
    before = cache_marks(store)
    records = []
    cells = []
    for point in wl.spec.points():
        heur = replace(DEFAULT_HEURISTICS, **point["heur"])
        progs = tr.call("workloads.generate", benchmark_programs,
                        point["scale"], seed=wl.spec.seed)
        for name, prog in progs.items():
            for scheme, _, predictor in SCHEME_PLAN:
                key = tr.call("engine.keys", cell_key, prog, scheme, heur,
                              r10k_config(predictor, **point["config"]),
                              wl.spec.max_steps, backend=BACKEND)
                payload = tr.call("engine.cache.get", store.get, key)
                if payload is None:
                    raise GateError(f"{name}/{scheme}: replay missed the "
                                    f"cache at {point}")
                cell = tr.call("core.serde.decode", SchemeResult.from_dict,
                               payload)
                records.append(cell_record(point, name, cell))
                cells.append(payload)
    count_cache(tr, store, before)
    return sweep_payloads(records), cells


def traced_tune(wl: TunePool, tr: Tracer) -> tuple[dict, list]:
    """One search from a fresh cache, timed at the call sites the search
    uses: input generation, keys, cache reads and writes, the pool
    fan-out and payload decoding.  Compile and simulation run inside the
    pool's worker processes and are counted from the payloads."""
    store = wl.fresh_cache()
    executed = []
    get, put = store.get, store.put

    def traced_put(key, payload):
        if "stats" in payload:
            executed.append(payload)
        tr.call("engine.cache.put", put, key, payload)

    store.get = tr.wrap("engine.cache.get", get)
    store.put = traced_put
    with contextlib.ExitStack() as stack:
        for module, attr, name in (
                (tune_search, "benchmark_programs", "workloads.generate"),
                (tune_search, "measure", "core.serde.decode"),
                (tune_evaluate, "cell_key", "engine.keys"),
                (tune_evaluate, "run_cells", "engine.pool")):
            stack.enter_context(tr.patched(module, attr, name))
        result = tr.call("tune.search", wl.session(store).tune, wl.spec)
    count_cache(tr, store)
    wl.drop_caches()
    return ({"TuneResult": json.dumps(result.to_dict(), sort_keys=True)},
            executed)


# -- the traced run and its metrics ---------------------------------------------

#: Per-layer host self-time metrics: metric name -> span name.
SELF_TIMES = {
    "workloads.generate.s": "workloads.generate",
    "profilefb.profile.s": "profilefb.profile",
    "core.compile_proposed.s": "core.compile_proposed",
    "core.compile_baseline.s": "core.compile_baseline",
    "fastsim.decode.s": "fastsim.decode",
    "fastsim.codegen.s": "fastsim.codegen",
    "fastsim.functional.s": "fastsim.functional",
    "fastsim.timing.s": "fastsim.timing",
    "engine.keys.s": "engine.keys",
    "engine.cache.get.s": "engine.cache.get",
    "engine.cache.put.s": "engine.cache.put",
    "core.serde.decode.s": "core.serde.decode",
    "engine.pool.s": "engine.pool",
    "tune.search.s": "tune.search",
}

#: Rows of the printed layer table: (label, span names).  The first four
#: are the ROADMAP north-star table's rows.
TABLE_ROWS = (
    ("timing model", ("fastsim.timing",)),
    ("compile (incl. profile run)", ("profilefb.profile",
                                     "core.compile_proposed",
                                     "core.compile_baseline")),
    ("functional", ("fastsim.functional",)),
    ("codegen + decode", ("fastsim.codegen", "fastsim.decode")),
    ("fallback reruns", ("fastsim.fallback",)),
    ("keys + cache + serde", ("engine.keys", "engine.cache.get",
                              "engine.cache.put", "core.serde.decode")),
    ("process pool (workers)", ("engine.pool",)),
    ("tune search", ("tune.search",)),
    ("input generation", ("workloads.generate",)),
)

DECISIONS = ("likely", "ifconvert", "split", "none")
KIND_OF = {scheme: kind for scheme, kind, _ in SCHEME_PLAN}


def run_traced(wl, passes: list) -> tuple[Tracer, float, list]:
    """The traced pass of *wl*; checks its payloads against the last
    timed pass and returns ``(tracer, wall seconds, cell payloads)``."""
    tr = Tracer()
    t0 = time.perf_counter()
    if isinstance(wl, ColdSuite):
        payloads, cells = traced_cold(wl, tr)
    elif isinstance(wl, SweepWarm):
        payloads, cells = traced_sweep(wl, tr)
    else:
        payloads, cells = traced_tune(wl, tr)
    wall = time.perf_counter() - t0
    errors = payload_mismatches(passes[-1].payloads, payloads,
                                "traced pass vs timed pass")
    if errors:
        raise GateError("; ".join(errors[:5]))
    return tr, wall, cells


def cell_counts(cells: list) -> Counter:
    """Simulated and compiler counts summed over cell payloads."""
    c = Counter()
    for p in cells:
        st, ex, cr = p["stats"], p["exec_stats"], p["compile_result"]
        if st:
            c["sim.cycles"] += st["cycles"]
        if ex:
            c["fastsim.dyn_instr"] += ex["steps"]
        if cr is None or KIND_OF[p["scheme"]] == "base":
            continue  # one proposed-pipeline compile per remaining cell
        for d in (cr["plan"] or {}).get("decisions", ()):
            c[f"core.decisions.{d['action']}"] += 1
        for field in ("splits_applied", "ifconverts_applied",
                      "melds_applied"):
            c[f"core.{field}"] += cr[field]
        rr = cr["region_report"] or {}
        c["sched.ops_speculated"] += rr.get("speculated", 0)
        c["sched.ops_duplicated"] += rr.get("duplicated", 0)
        c["core.degraded"] += int(cr["fallback"] is not None or any(
            f["kind"] != "skip" for f in cr["failures"]))
    return c


def per_layer(wl, passes: list, tr: Tracer, wall: float, cells: list,
              held_per_pass: float) -> dict:
    """The per-layer metrics: ``{name: (value, unit)}``.  *held_per_pass*
    is the number of ``Program`` objects each timed pass left alive."""
    out = {metric: (tr.self_time.get(span, 0.0), "s")
           for metric, span in SELF_TIMES.items()}
    counts = cell_counts(cells)
    timing = tr.self_time.get("fastsim.timing", 0.0)
    dyn = counts["fastsim.dyn_instr"]
    out["fastsim.timing.ns_per_instr"] = (
        1e9 * timing / dyn if timing and dyn else 0.0, "ns")
    out["fastsim.dyn_instr"] = (dyn, "count")
    out["fastsim.codegen.kb"] = (tr.counts["fastsim.codegen.bytes"] / 1024,
                                 "KiB")
    out["fastsim.fallbacks"] = (tr.counts["fastsim.fallbacks"], "count")
    out["fastsim.decode.held_per_pass"] = (held_per_pass, "count")
    out["profilefb.profile.runs"] = (tr.calls["profilefb.profile"], "count")
    for action in DECISIONS:
        out[f"core.decisions.{action}"] = (
            counts[f"core.decisions.{action}"], "count")
    for name in ("core.splits_applied", "core.ifconverts_applied",
                 "core.melds_applied", "core.degraded",
                 "sched.ops_speculated", "sched.ops_duplicated"):
        out[name] = (counts[name], "count")
    for scheme in SCHEMES:
        ipcs = [payload_ipc(p) for p in cells if p["scheme"] == scheme]
        out[f"sim.ipc.{scheme}"] = (geomean(ipcs) if ipcs else 0.0,
                                    "instr/cycle")
    out["sim.cycles"] = (counts["sim.cycles"], "cycles")
    lookups = tr.counts["engine.cache.lookups"]
    out["engine.cache.hit_rate"] = (
        tr.counts["engine.cache.hits"] / lookups if lookups else 0.0,
        "ratio")
    out["engine.cache.bytes"] = (tr.counts["engine.cache.bytes"], "B")
    last = passes[-1]
    out["engine.compiles"] = (last.compiles, "count")
    out["engine.simulates"] = (last.simulates, "count")
    out["engine.pool.workers"] = (last.pool_workers, "count")
    result = last.extra.get("result")
    for name in ("evaluations", "cells_executed", "cells_hit"):
        out[f"tune.{name}"] = (getattr(result, name, 0), "count")
    attributed = sum(tr.self_time.values())
    out["trace.total.s"] = (wall, "s")
    out["trace.unattributed.s"] = (wall - attributed, "s")
    median = statistics.median(p.wall_s for p in passes)
    out["trace.overhead_pct"] = (100.0 * (wall / median - 1.0), "%")
    return out


def layer_table(tr: Tracer, wall: float) -> list[str]:
    """The layer split of the traced pass as printable lines: host self
    time per layer, with the unattributed residual shown."""
    lines = [f"  {'layer':<30} {'self s':>9} {'share':>7}"]
    attributed = 0.0
    for label, spans in TABLE_ROWS:
        secs = sum(tr.self_time.get(s, 0.0) for s in spans)
        attributed += secs
        if secs:
            lines.append(f"  {label:<30} {secs:9.3f} "
                         f"{100 * secs / wall:6.1f}%")
    rest = wall - attributed
    lines.append(f"  {'unattributed':<30} {rest:9.3f} "
                 f"{100 * rest / wall:6.1f}%")
    lines.append(f"  {'total (traced pass)':<30} {wall:9.3f} {100.0:6.1f}%")
    return lines
