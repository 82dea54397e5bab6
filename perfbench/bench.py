"""The benchmark's four workloads, its correctness gate and its end-to-end
metrics.

Every workload drives the public :class:`repro.api.Session` entry points
on the ``fast`` backend.  A workload is built from the benchmark's seed
and regenerates its programs in every timed pass: ``repro.fastsim``
caches decode tables and generated code on the ``Program`` object, so a
reused object would skip the codegen that every CLI process pays.

Why each workload exists:

* ``stock-cold`` -- the stock four workloads x five schemes from an empty
  artifact cache, ``jobs=1``: what ``repro tables --backend fast`` costs.
  Simulation dominates it, so a timing-model gain shows here.
* ``randprog-cold`` -- the same settings over a seeded
  ``isa.randprog`` corpus: many distinct static programs with short
  dynamic runs, so compile (profile run included) dominates.  A
  timing-only gain must look small here, profile sharing large.
* ``sweep-warm`` -- a ``SweepSpec`` grid filled into a fresh cache at
  set-up and replayed from it in every pass: only cache keys, cache reads
  and serde decode run.  Simulator and compiler changes must not move it.
* ``tune-pool`` -- a fixed-budget ``Session.tune`` from a fresh cache with
  ``jobs = nproc``: the only workload that runs ``engine.pool``'s parallel
  fan-out and ``tune.search`` with cross-candidate cache hits.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

from repro.api import RunOptions, Session
from repro.engine import ArtifactCache
from repro.engine import pool
from repro.engine.cells import COUNTERS, SCHEME_PLAN
from repro.engine.sweep import SweepSpec, grid_from_dict
from repro.isa.randprog import BRANCH_PATTERNS, RandProgConfig, random_program
from repro.tune import DEFAULT_PARAM_NAMES, ParamSpec, TuneSpec
from repro.workloads import benchmark_programs

#: The backend every timed and traced pass runs on.  The reference
#: backend is the oracle; its speed is not a target.
BACKEND = "fast"
#: Scheme names in engine order (the oracle compares every one).
SCHEMES = tuple(scheme for scheme, _, _ in SCHEME_PLAN)
#: Per-cell step budget: the ``RunOptions`` default every CLI run uses.
MAX_STEPS = RunOptions.max_steps

#: Modules the benchmark deliberately leaves out, and why (stamped into
#: every record).
NOT_EXERCISED = {
    "serve": "remote execution is a deployment choice; its removal or "
             "reduction is decided by the tune-pool figures",
    "ingest": "about 7 ms in total: below the noise of every workload",
    "qa": "fuzzing campaigns test correctness, not throughput",
    "reference backend speed": "the reference simulator is the oracle, "
                               "so its speed is not a target",
}

#: Stamped beside every simulated figure in the record.
MODEL_VALIDATION = (
    "the timing model is not validated against hardware; eval.paper_data "
    "holds the paper's SPEC figures, which come from other inputs than the "
    "synthetic stand-ins, so no accuracy error is claimed")

#: Workload sizes: the full size the benchmark measures, and the tiny
#: size its own tests run.
SIZES = {
    "stock-cold": {"full": {"scale": 0.1},
                   "tiny": {"scale": 0.02}},
    "randprog-cold": {"full": {"programs": 32, "diamonds": 2,
                               "guard_density": 0.15},
                      "tiny": {"programs": 4, "diamonds": 3,
                               "guard_density": 0.15}},
    "sweep-warm": {"full": {"scale": 0.02,
                            "config_grid": {"fetch_width": (2, 4)},
                            "heur_grid": {"speculation_bias": (0.5, 0.8)}},
                   "tiny": {"scale": 0.02,
                            "config_grid": {"fetch_width": (4,)},
                            "heur_grid": {"speculation_bias": (0.65,)}}},
    "tune-pool": {"full": {"scale": 0.1, "budget": 12},
                  "tiny": {"scale": 0.02, "budget": 6}},
}


class GateError(RuntimeError):
    """The correctness gate rejected a run."""


@dataclass
class PassResult:
    """One timed pass: its wall time and what it delivered."""

    wall_s: float
    #: cells delivered, computed or served from the cache
    cells: int
    #: cells attempted and failed, counted from the result payloads
    attempted: int
    failed: int
    #: what the gate compares: cell id -> payload (or record)
    payloads: dict
    compiles: int
    simulates: int
    #: worker processes of the pass's last pool fan-out (1 = in-process)
    pool_workers: int = 1
    #: host slowdown (see :func:`host_slowdown`) around the pass
    slowdown: float = 1.0
    extra: dict = field(default_factory=dict)


def comparable(payload):
    """*payload* without its traceback text (``failure_detail`` names
    source lines, which differ between backends for the same failure)."""
    if isinstance(payload, dict):
        return {k: v for k, v in payload.items() if k != "failure_detail"}
    return payload


def payload_mismatches(expected: dict, got: dict, label: str) -> list[str]:
    """Every way *got* differs from *expected* (cell id -> payload)."""
    errors = []
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    if missing or extra:
        errors.append(f"{label}: cell sets differ (missing {missing[:5]}, "
                      f"unexpected {extra[:5]})")
    for cid in sorted(set(expected) & set(got)):
        if comparable(expected[cid]) != comparable(got[cid]):
            errors.append(f"{label}: {cid} differs")
    return errors


def suite_payloads(runs: dict) -> dict:
    """``{"bench/scheme": payload}`` of a ``run_suite`` result."""
    return {f"{name}/{scheme}": cell.to_dict()
            for name, run in runs.items()
            for scheme, cell in run.results.items()}


def geomean(values) -> float:
    """Geometric mean of positive *values* (nan when there are none)."""
    values = list(values)
    if not values or min(values) <= 0:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def payload_ipc(payload: dict) -> float:
    """Simulated IPC of one cell payload (0.0 for a failed cell)."""
    st = payload.get("stats")
    if not st or not st["cycles"]:
        return 0.0
    return st["committed"] / st["cycles"]


def proposed_gain(payloads: dict, ipc=payload_ipc) -> float:
    """Geometric mean over programs of Proposed / 2bitBP simulated IPC
    (the paper's headline); keys are ``.../bench/scheme`` and *ipc* reads
    one payload's IPC."""
    ratios = []
    for cid, payload in payloads.items():
        prefix, scheme = cid.rsplit("/", 1)
        if scheme != "Proposed":
            continue
        base = ipc(payloads[f"{prefix}/2bitBP"])
        if base:
            ratios.append(ipc(payload) / base)
    return geomean(ratios)


def failed_cells(payloads: dict) -> int:
    """Cell payloads that carry a failure instead of statistics."""
    return sum(1 for p in payloads.values()
               if p.get("failure") is not None or not p.get("stats"))


class Workload:
    """One named workload.  Subclasses define set-up, a timed pass, the
    correctness gate and the IPC gain."""

    name = ""
    why = ""
    #: what ``ipc_gain`` measures on this workload
    gain_name = "proposed_gain"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.size = SIZES[self.name]["tiny" if tiny else "full"]
        self.workdir = workdir
        self._dirs: list[str] = []

    def fresh_cache(self) -> ArtifactCache:
        """An empty artifact cache in its own directory of the work dir."""
        path = tempfile.mkdtemp(prefix=self.name + "-", dir=self.workdir)
        self._dirs.append(path)
        return ArtifactCache(path)

    def drop_caches(self, keep: int = 0) -> None:
        """Delete all but the newest *keep* cache directories."""
        while len(self._dirs) > keep:
            shutil.rmtree(self._dirs.pop(0), ignore_errors=True)

    def params(self) -> dict:
        """Workload parameters, stamped into the record."""
        return {"seed": self.seed, **self.size}

    def setup(self) -> None:
        """One repetition of the work done before the first timed pass."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, passes: list) -> list[str]:
        """Correctness-gate errors over *passes* (empty when correct)."""
        raise NotImplementedError

    def gain(self, result: PassResult) -> float:
        """The workload's IPC gain (Proposed / 2bitBP, or tuned /
        default for ``tune-pool``)."""
        return proposed_gain(result.payloads)


class ColdSuite(Workload):
    """Every program x every scheme from an empty cache, ``jobs=1``."""

    def programs(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        self.programs()

    def run_pass(self) -> PassResult:
        store = self.fresh_cache()
        before = (COUNTERS.compiles, COUNTERS.simulates)
        t0 = time.perf_counter()
        runs = Session(options=RunOptions(
            jobs=1, cache=store, backend=BACKEND)).run_suite(
                benchmarks=self.programs())
        wall = time.perf_counter() - t0
        payloads = suite_payloads(runs)
        self.drop_caches()
        return PassResult(
            wall_s=wall, cells=len(payloads), attempted=len(payloads),
            failed=failed_cells(payloads), payloads=payloads,
            compiles=COUNTERS.compiles - before[0],
            simulates=COUNTERS.simulates - before[1])

    def oracle(self) -> dict:
        """The same cells on the reference backend (uncached; fanned out
        over every CPU, since the oracle's own speed is not measured)."""
        runs = Session(options=RunOptions(
            jobs=os.cpu_count() or 1, backend="reference")).run_suite(
                benchmarks=self.programs())
        return suite_payloads(runs)

    def check(self, passes: list) -> list[str]:
        expected = self.oracle()
        errors = []
        for i, p in enumerate(passes):
            errors += payload_mismatches(expected, p.payloads,
                                         f"pass {i} vs reference")
        return errors


class StockCold(ColdSuite):
    name = "stock-cold"
    why = ("stock four workloads x five schemes from an empty cache, "
           "jobs=1: simulation dominates, so timing-model gains show here")

    def programs(self) -> dict:
        return benchmark_programs(self.size["scale"], seed=self.seed)


def randprog_seeds(seed: int, count: int, diamonds: int,
                   guard_density: float) -> list[tuple[int, str]]:
    """(program seed, branch pattern) of a corpus of *count* programs with
    exactly *diamonds* diamonds each, cycling through every branch
    pattern.  The diamond count of ``random_program`` is itself random;
    fixing it keeps the corpus's static size, and so its compile cost,
    the same for every benchmark seed."""
    out = []
    draw = seed * 1_000_003
    while len(out) < count:
        pattern = BRANCH_PATTERNS[len(out) % len(BRANCH_PATTERNS)]
        prog = random_program(draw, randprog_config(
            diamonds, guard_density, pattern))
        if sum(1 for label in prog.labels if label.startswith("then_")) \
                == diamonds:
            out.append((draw, pattern))
        draw += 1
    return out


def randprog_config(diamonds: int, guard_density: float,
                    pattern: str) -> RandProgConfig:
    """Generator knobs of one corpus program (``num_blocks`` is an
    exclusive upper bound on the diamond count)."""
    return RandProgConfig(num_blocks=diamonds + 1,
                          guard_density=guard_density,
                          branch_pattern=pattern)


class RandprogCold(ColdSuite):
    name = "randprog-cold"
    why = ("seeded random-program corpus x five schemes from an empty "
           "cache: many short programs, so compile and profile runs "
           "dominate")

    def setup(self) -> None:
        self.corpus = randprog_seeds(self.seed, self.size["programs"],
                                     self.size["diamonds"],
                                     self.size["guard_density"])
        super().setup()

    def params(self) -> dict:
        return {**super().params(), "patterns": list(BRANCH_PATTERNS)}

    def programs(self) -> dict:
        progs = {}
        for draw, pattern in self.corpus:
            prog = random_program(draw, randprog_config(
                self.size["diamonds"], self.size["guard_density"], pattern))
            progs[prog.name] = prog
        return progs


class SweepWarm(Workload):
    name = "sweep-warm"
    why = ("sweep grid replayed from a cache filled at set-up: only keys, "
           "cache reads and serde decode run; simulator changes must not "
           "move it")

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__(seed, tiny, workdir)
        self.spec = SweepSpec(
            scales=(self.size["scale"],),
            config_grid=grid_from_dict(self.size["config_grid"]),
            heur_grid=grid_from_dict(self.size["heur_grid"]),
            seed=seed, max_steps=MAX_STEPS)

    def params(self) -> dict:
        return {**super().params(), "points": self.spec.num_points}

    def setup(self) -> None:
        store = self.fresh_cache()
        self.session = Session(options=RunOptions(
            jobs=1, cache=store, backend=BACKEND))
        self.filled = sweep_payloads(self.session.sweep(self.spec))
        self.drop_caches(keep=1)

    def run_pass(self) -> PassResult:
        before = (COUNTERS.compiles, COUNTERS.simulates)
        t0 = time.perf_counter()
        records = self.session.sweep(self.spec)
        wall = time.perf_counter() - t0
        payloads = sweep_payloads(records)
        return PassResult(
            wall_s=wall, cells=len(payloads), attempted=len(payloads),
            failed=sum(1 for r in records if not r["ok"]),
            payloads=payloads,
            compiles=COUNTERS.compiles - before[0],
            simulates=COUNTERS.simulates - before[1])

    def check(self, passes: list) -> list[str]:
        errors = []
        for i, p in enumerate(passes):
            errors += payload_mismatches(self.filled, p.payloads,
                                         f"pass {i} vs cold fill")
            if p.compiles or p.simulates:
                errors.append(f"pass {i}: replay compiled {p.compiles} and "
                              f"simulated {p.simulates} cells")
        return errors

    def gain(self, result: PassResult) -> float:
        return proposed_gain(result.payloads,
                             ipc=lambda record: record["ipc"] or 0.0)


def sweep_payloads(records: list) -> dict:
    """``{"point/bench/scheme": record}`` of a sweep's flat records."""
    points = {}
    out = {}
    for rec in records:
        point = json.dumps([rec["scale"], rec["config"], rec["heur"]],
                           sort_keys=True)
        index = points.setdefault(point, len(points))
        out[f"{index}/{rec['benchmark']}/{rec['scheme']}"] = rec
    return out


class TunePool(Workload):
    name = "tune-pool"
    gain_name = "tuned_gain"
    why = ("fixed-budget tune search from a fresh cache with jobs=nproc: "
           "the only workload running the process pool and tune.search")

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__(seed, tiny, workdir)
        self.jobs = os.cpu_count() or 1
        self.spec = TuneSpec(
            params=tuple(ParamSpec(n) for n in DEFAULT_PARAM_NAMES),
            scale=self.size["scale"], budget=self.size["budget"],
            seed=seed, max_steps=MAX_STEPS)

    def params(self) -> dict:
        return {**super().params(), "jobs": self.jobs,
                "params": list(DEFAULT_PARAM_NAMES)}

    def setup(self) -> None:
        self.spec.validate()

    def session(self, store: ArtifactCache) -> Session:
        return Session(options=RunOptions(
            jobs=self.jobs, cache=store, backend=BACKEND))

    def run_pass(self) -> PassResult:
        store = self.fresh_cache()
        last = pool.LAST_DECISION
        before = (COUNTERS.compiles, COUNTERS.simulates)
        t0 = time.perf_counter()
        result = self.session(store).tune(self.spec)
        wall = time.perf_counter() - t0
        decision = pool.LAST_DECISION
        self.drop_caches()
        measured = [m for cand in result.candidates
                    for rung in cand["rungs"].values()
                    for m in rung["per_workload"].values()]
        return PassResult(
            wall_s=wall, cells=result.cells_hit + result.cells_executed,
            attempted=len(measured),
            failed=sum(1 for m in measured if not m["ok"]),
            payloads={"TuneResult": json.dumps(result.to_dict(),
                                               sort_keys=True)},
            compiles=COUNTERS.compiles - before[0],
            simulates=COUNTERS.simulates - before[1],
            pool_workers=(decision.workers
                          if decision is not last and decision else 1),
            extra={"result": result})

    def check(self, passes: list) -> list[str]:
        errors = []
        for i, p in enumerate(passes[1:], start=1):
            errors += payload_mismatches(passes[0].payloads, p.payloads,
                                         f"pass {i} vs pass 0")
        return errors

    def gain(self, result: PassResult) -> float:
        winners = result.extra["result"].per_workload.values()
        return geomean(w["ipc"] / w["default_ipc"] for w in winners
                       if w["default_ipc"])


WORKLOADS = {cls.name: cls for cls in (StockCold, RandprogCold, SweepWarm,
                                       TunePool)}


def _arith_kernel() -> int:
    total = 0
    for i in range(300_000):
        total += i * i
    return total


def _table_kernel() -> int:
    table: dict = {}
    rows = []
    for i in range(60_000):
        k = i & 1023
        table[k] = table.get(k, 0) + (i ^ k)
        if i % 7 == 0:
            rows.append((k, i >> 3))
    rows.sort()
    return len(table) + len(rows)


#: Calibration kernels -- fixed interpreter-bound work that shares no code
#: with the program under test -- with their best-of-three seconds on the
#: reference host, a shared 2-vCPU Xeon VM.  That host's speed drifts by
#: tens of percent within seconds to minutes, for every program alike; the
#: kernels, timed next to each pass, track the drift.  On it, normalizing
#: by the two together cut the spread (quartile distance over median) of
#: 10-second medians of stock-cold throughput from 15 % to 6 %.
CALIBRATION = ((_arith_kernel, 0.024), (_table_kernel, 0.0175))


def host_slowdown() -> float:
    """How many times slower than the reference host this host runs right
    now: the geometric mean over :data:`CALIBRATION` of each kernel's best
    of three timings over its reference time."""
    ratios = []
    for kernel, ref_s in CALIBRATION:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        ratios.append(best / ref_s)
    return geomean(ratios)


def end_to_end(workload: Workload, passes: list, setup_s: float,
               peak_rss_mb: float) -> dict:
    """The end-to-end metrics: ``{name: (value, unit)}``.

    Times are in reference-host seconds: each pass's wall time (and the
    set-up time, which the caller scales) is divided by the host slowdown
    measured around it.  The failure share is reported as ``ok_pct``
    (100 - ``fail_pct``), a figure that is never 0, and the workload's
    gain as ``ipc_gain``."""
    rates = [p.cells * p.slowdown / p.wall_s for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (statistics.median(rates), "cells/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_pct": (100.0 * (attempted - failed) / attempted, "%"),
        "ipc_gain": (workload.gain(passes[0]), "ratio"),
    }


def report_view(workload: Workload, e2e: dict) -> dict:
    """*e2e* as printed and recorded: ``fail_pct`` in place of
    ``ok_pct``, and the gain under the workload's own name."""
    out = {k: v for k, v in e2e.items() if k not in ("ok_pct", "ipc_gain")}
    out["fail_pct"] = (100.0 - e2e["ok_pct"][0], "%")
    out[workload.gain_name] = e2e["ipc_gain"]
    return out
