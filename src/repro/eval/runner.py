"""Scheme runner: executes the paper's three-way comparison.

The paper's Tables 3 and 4 compare, per benchmark:

1. ``2bitBP``      — native code, 512-entry 2-bit prediction;
2. ``Proposed``    — the combined approach (branch splitting + guarded
   execution + branch-likelies + prioritized speculation) *in addition to*
   the same 2-bit prediction;
3. ``PerfectBP``   — native code, perfect prediction (theoretical bound).

Suite isolation
---------------
Each (benchmark, scheme) cell runs in containment: a cell that raises is
retried once (transient allocator/recursion issues), then recorded as a
*failed cell* — ``SchemeResult.failure`` holds the classified reason and
the tables render ``FAIL(<reason>)`` instead of the whole run aborting.
``strict=True`` restores fail-fast for debugging.

Engine integration
------------------
:func:`run_suite` routes through :mod:`repro.engine`: pass ``cache`` to
reuse previously computed cells from the content-addressed artifact store
and ``jobs`` to fan cache misses out over worker processes.  The default
(``jobs=1``, no cache) behaves exactly like the original serial loop —
including calling :func:`run_benchmark` through this module's namespace,
so monkeypatched fault injection keeps working.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from .._deprecation import deprecated
from ..core import serde
from ..core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from ..core.pipeline import (CompileResult, compile_baseline,
                             compile_proposed)
from ..engine.cells import COUNTERS, kind_heuristics
from ..isa.program import Program
from ..obs.pipeline_obs import maybe_observer
from ..obs.trace import span as obs_span
from ..sim.config import MachineConfig, r10k_config
from ..sim.functional import ExecStats, FunctionalSim
from ..sim.pipeline import TimingSim
from ..sim.stats import SimStats
from ..workloads import benchmark_programs

#: Scheme names in the paper's column order, plus the speculative-safety
#: variant (``safe-speculative``: the Proposed pipeline with every
#: Spectre-flagged hoist fenced, see :mod:`repro.robust.spectre`) and the
#: branch-melding variant (``melded``: if-conversion decisions flattened
#: into native conditional-move selects, see :mod:`repro.transform.meld`).
SCHEMES = ("2bitBP", "Proposed", "PerfectBP", "safe-speculative", "melded")

#: Per-cell retry count before a failure is recorded (transient faults).
CELL_RETRIES = 1


@dataclass
class SchemeResult:
    """One (benchmark, scheme) cell of the evaluation.

    A failed cell carries ``failure`` (one-line reason) instead of stats;
    check :attr:`ok` before dereferencing ``stats``/``exec_stats``.
    """

    benchmark: str
    scheme: str
    stats: Optional[SimStats] = None
    exec_stats: Optional[ExecStats] = None
    compile_result: Optional[CompileResult] = None
    failure: Optional[str] = None
    failure_detail: str = ""

    @property
    def ok(self) -> bool:
        """True when the cell produced statistics."""
        return self.failure is None and self.stats is not None

    def to_dict(self) -> dict:
        """JSON-serializable form: the engine's artifact-cache payload and
        the ``tables --json`` record for this cell."""
        return serde.stamp({
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "stats": self.stats.to_dict() if self.stats else None,
            "exec_stats": (self.exec_stats.to_dict()
                           if self.exec_stats else None),
            "compile_result": (self.compile_result.to_dict()
                               if self.compile_result else None),
            "failure": self.failure,
            "failure_detail": self.failure_detail,
        })

    @classmethod
    def from_dict(cls, d: dict) -> "SchemeResult":
        """Inverse of :meth:`to_dict` (schema-version checked)."""
        serde.check(d, "SchemeResult")
        return cls(
            benchmark=d["benchmark"],
            scheme=d["scheme"],
            stats=SimStats.from_dict(d["stats"]) if d["stats"] else None,
            exec_stats=(ExecStats.from_dict(d["exec_stats"])
                        if d["exec_stats"] else None),
            compile_result=(CompileResult.from_dict(d["compile_result"])
                            if d["compile_result"] else None),
            failure=d["failure"],
            failure_detail=d["failure_detail"],
        )


@dataclass
class BenchmarkRun:
    """All three schemes for one benchmark."""

    name: str
    results: dict[str, SchemeResult] = field(default_factory=dict)

    def __getitem__(self, scheme: str) -> SchemeResult:
        return self.results[scheme]

    @property
    def ok(self) -> bool:
        """True when every scheme cell produced statistics."""
        return all(r.ok for r in self.results.values())

    @property
    def failures(self) -> list[SchemeResult]:
        """The failed cells of this benchmark (empty when clean)."""
        return [r for r in self.results.values() if not r.ok]

    @property
    def improvement(self) -> float:
        """Proposed-over-2bitBP IPC ratio (the paper's headline metric).

        ``nan`` when either cell failed — failed cells poison ratios, not
        the whole report.
        """
        prop, base = self.results.get("Proposed"), self.results.get("2bitBP")
        if prop is None or base is None or not (prop.ok and base.ok):
            return float("nan")
        return prop.stats.ipc / base.stats.ipc

    def to_dict(self) -> dict:
        """JSON-serializable form (``tables --json`` per-benchmark record)."""
        imp = self.improvement
        return serde.stamp(
            {"name": self.name,
             "results": {s: r.to_dict() for s, r in self.results.items()},
             "improvement": None if imp != imp else imp})

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkRun":
        """Inverse of :meth:`to_dict` (``improvement`` is recomputed;
        the schema version is checked)."""
        serde.check(d, "BenchmarkRun")
        return cls(name=d["name"],
                   results={s: SchemeResult.from_dict(r)
                            for s, r in d["results"].items()})


def _short_reason(exc: BaseException) -> str:
    """One-line classification of a cell failure for table rendering."""
    text = str(exc).splitlines()[0] if str(exc) else ""
    name = type(exc).__name__
    return f"{name}: {text}"[:80] if text else name


def _run(prog: Program, config: MachineConfig,
         max_steps: int = 50_000_000,
         backend: str = "reference") -> tuple[SimStats, ExecStats]:
    COUNTERS.simulates += 1
    if backend == "fast":
        from ..fastsim.backend import simulate as fast_simulate

        return fast_simulate(prog, config, max_steps=max_steps)
    fsim = FunctionalSim(prog, max_steps=max_steps, record_outcomes=False)
    tsim = TimingSim(config, observer=maybe_observer())
    stats = tsim.run(fsim.trace())
    return stats, fsim.stats


def _run_cell(benchmark: str, scheme: str, fn: Callable[[], SchemeResult],
              strict: bool, retries: int = CELL_RETRIES) -> SchemeResult:
    """Execute one cell with retry-once and failure capture."""
    with obs_span(f"cell.{scheme}", benchmark=benchmark,
                  scheme=scheme) as sp:
        last: Optional[BaseException] = None
        for _ in range(retries + 1):
            try:
                return fn()
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                if strict:
                    raise
                last = exc
        sp.set("failure", _short_reason(last))
        detail = "".join(traceback.format_exception(
            type(last), last, last.__traceback__)[-4:])
        return SchemeResult(benchmark, scheme, failure=_short_reason(last),
                            failure_detail=detail)


def run_benchmark_impl(name: str, prog: Program,
                       heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                       config_overrides: Optional[dict] = None,
                       max_steps: int = 50_000_000,
                       strict: bool = False,
                       backend: str = "reference") -> BenchmarkRun:
    """Run every scheme in :data:`SCHEMES` on one benchmark program.

    With ``strict=False`` (default) a crashing cell is retried once and
    then recorded as failed; with ``strict=True`` the exception propagates.
    ``backend="fast"`` runs every cell on the :mod:`repro.fastsim`
    backend (byte-identical results, transparent reference fallback).
    """
    overrides = config_overrides or {}
    run = BenchmarkRun(name=name)

    # Compiles are shared across cells, and the proposed-pipeline kinds
    # share one profiling run (failure included) and the pipeline stages
    # they have in common (compile_proposed's *share*); a failed compile
    # fails only the cells that need its output.
    compiles: dict = {}

    def _compiled(kind: str) -> CompileResult:
        if kind not in compiles:
            COUNTERS.compiles += 1
            if kind == "base":
                compiles[kind] = compile_baseline(prog)
            else:
                compiles[kind] = compile_proposed(
                    prog, heur=kind_heuristics(kind, heur),
                    max_steps=max_steps, backend=backend, share=compiles)
        return compiles[kind]

    def _cell(scheme: str, kind: str, predictor: str) -> SchemeResult:
        cr = _compiled(kind)
        st, ex = _run(cr.program, r10k_config(predictor, **overrides),
                      max_steps, backend=backend)
        return SchemeResult(name, scheme, st, ex, cr)

    for scheme, kind, predictor in (("2bitBP", "base", "twobit"),
                                    ("Proposed", "prop", "twobit"),
                                    ("PerfectBP", "base", "perfect"),
                                    ("safe-speculative", "safe", "twobit"),
                                    ("melded", "meld", "twobit")):
        run.results[scheme] = _run_cell(
            name, scheme,
            lambda s=scheme, k=kind, p=predictor: _cell(s, k, p),
            strict=strict)
    return run


run_benchmark = deprecated(
    "repro.api.Session.run_benchmark")(run_benchmark_impl)


def run_suite_impl(scale: float = 1.0,
                   heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                   benchmarks: Optional[dict[str, Program]] = None,
                   config_overrides: Optional[dict] = None,
                   progress: Optional[Callable[[str], None]] = None,
                   max_steps: int = 50_000_000,
                   strict: bool = False,
                   jobs: int = 1,
                   cache=None,
                   timeout: Optional[float] = None,
                   seed: Optional[int] = None,
                   backend: Optional[str] = None) -> dict[str, BenchmarkRun]:
    """Run the full benchmark suite through all three schemes.

    Returns ``{benchmark: BenchmarkRun}`` in the paper's benchmark order.
    A benchmark whose *construction* fails is recorded as a run whose three
    cells all failed (unless ``strict``); cell-level failures are handled
    by :func:`run_benchmark`.

    Execution routes through :func:`repro.engine.run_suite`: *cache*
    (None, True, a path, or an :class:`~repro.engine.ArtifactCache`)
    enables the content-addressed artifact store, *jobs* > 1 runs cache
    misses in parallel worker processes with an optional per-cell
    *timeout* (seconds), and *seed* re-seeds the synthetic workloads.
    *backend* selects the execution backend (``"reference"``/``"fast"``;
    None defers to ``REPRO_BACKEND``, then ``"reference"``).
    """
    from ..engine.suite import run_suite as _engine_run_suite

    return _engine_run_suite(
        scale=scale, heur=heur, benchmarks=benchmarks,
        config_overrides=config_overrides, progress=progress,
        max_steps=max_steps, strict=strict, jobs=jobs, cache=cache,
        timeout=timeout, seed=seed, backend=backend)


run_suite = deprecated("repro.api.Session.run_suite")(run_suite_impl)


def suite_to_dict(runs: dict[str, BenchmarkRun]) -> dict:
    """Machine-readable form of a suite run (``tables --json``)."""
    return {name: run.to_dict() for name, run in runs.items()}


def suite_from_dict(d: dict) -> dict[str, BenchmarkRun]:
    """Inverse of :func:`suite_to_dict`."""
    return {name: BenchmarkRun.from_dict(run) for name, run in d.items()}


def suite_failures(runs: dict[str, BenchmarkRun]) -> list[SchemeResult]:
    """All failed cells across a suite run, in benchmark order."""
    out: list[SchemeResult] = []
    for run in runs.values():
        out.extend(run.failures)
    return out
