"""Evaluation cells: the unit of cached / parallel work, and its one executor.

One *cell* is one (benchmark, scheme) table entry: compile the program for
the scheme's pipeline kind, simulate it under the scheme's predictor, and
return statistics.  :class:`CellSpec` is a fully picklable description of
a cell (the program travels as printed assembly + data tables, because
:class:`~repro.isa.program.Program` objects are not picklable).
:func:`run_cell` is the only code that runs one: the suite (every
``jobs`` value), ``Session.run_benchmark``, tune and the service all
reach it, in-process or through :func:`execute_cell`, the worker-process
entry of :mod:`repro.engine.pool` and :mod:`repro.serve`.

Containment: a cell that raises is retried once, then reported as a
failed :class:`SchemeResult` the tables render as ``FAIL(<reason>)``.
When ``timeout`` is set, each attempt is additionally bounded by a
:class:`_watchdog` timer that raises :class:`CellTimeout` inside the
executing thread — it works in *any* thread (the service workers of
:mod:`repro.serve` run cells on threads, where the former ``SIGALRM``
scheme was a silent no-op), and a fired watchdog is just another
contained failure.

:data:`COUNTERS` counts every *actual* compile and simulation performed
in this process — the engine's warm-cache acceptance test asserts these
stay at zero when every cell hits the artifact cache.
"""

from __future__ import annotations

import ctypes
import threading
import traceback
from dataclasses import dataclass, replace
from typing import Optional

from ..core import serde
from ..core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from ..core.pipeline import (CompileResult, compile_baseline,
                             compile_proposed)
from ..fastsim import backend as fastsim
from ..isa.program import Program
from ..obs.metrics import REGISTRY
from ..obs.trace import span as obs_span
from ..robust.sandbox import CellTimeout
from ..sim.config import MachineConfig, r10k_config
from ..sim.functional import ExecStats
from ..sim.stats import SimStats

#: The evaluation's schemes as (scheme, pipeline kind, predictor) rows,
#: in the paper's column order: ``2bitBP`` (native code, 2-bit
#: prediction), ``Proposed`` (branch splitting + guarded execution +
#: branch-likelies + prioritized speculation, same predictor),
#: ``PerfectBP`` (native code, perfect prediction), plus the
#: speculative-safety variant of Proposed (every Spectre-flagged hoist
#: fenced, repro.robust.spectre) and the branch-melding variant (arms
#: flattened into native conditional-move selects, repro.transform.meld).
#: The one definition of the scheme set: the suite, the tables, tune,
#: the CLI, cache keys and workers all derive theirs from it.
SCHEME_PLAN = (
    ("2bitBP", "base", "twobit"),
    ("Proposed", "prop", "twobit"),
    ("PerfectBP", "base", "perfect"),
    ("safe-speculative", "safe", "twobit"),
    ("melded", "meld", "twobit"),
)

#: Per-cell retry count before a failure is recorded (transient faults).
CELL_RETRIES = 1


@dataclass
class EngineCounters:
    """Process-local count of real compile/simulate executions."""

    compiles: int = 0
    simulates: int = 0

    def reset(self) -> None:
        """Zero both counters (test isolation)."""
        self.compiles = 0
        self.simulates = 0


#: Global execution counters of this process.  Worker processes keep their
#: own instance; the parent's counters therefore measure exactly the work
#: the parent performed (zero on a fully warm cache).
COUNTERS = EngineCounters()


@dataclass(frozen=True)
class CellSpec:
    """Picklable description of one evaluation cell."""

    benchmark: str
    scheme: str
    kind: str                      # "base" | "prop" | "safe" | "meld"
    predictor: str                 # "twobit" | "perfect" | ...
    program: dict                  # Program.to_dict() payload
    heur: FeedbackHeuristics = DEFAULT_HEURISTICS
    config_overrides: tuple = ()   # sorted (field, value) pairs
    max_steps: int = 50_000_000
    timeout: Optional[float] = None
    strict: bool = False
    backend: str = "reference"     # "reference" | "fast" (repro.fastsim)

    def resolve_config(self) -> MachineConfig:
        """The fully resolved machine configuration of this cell."""
        return r10k_config(self.predictor, **dict(self.config_overrides))


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
        """JSON-serializable form: the engine's artifact-cache payload, the
        worker and service wire payload, and the ``tables --json`` record
        for this cell."""
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


def overrides_as_items(config_overrides: Optional[dict]) -> tuple:
    """Normalize a config-override dict into sorted picklable pairs."""
    return tuple(sorted((config_overrides or {}).items()))


def benchmark_cells(name: str, program: dict, **fields) -> list[CellSpec]:
    """One benchmark's row of the grid: a :class:`CellSpec` per
    :data:`SCHEME_PLAN` row, in column order.  *program* is the
    ``Program.to_dict()`` payload; *fields* are the remaining
    :class:`CellSpec` fields, shared by every cell of the row."""
    return [CellSpec(benchmark=name, scheme=scheme, kind=kind,
                     predictor=predictor, program=program, **fields)
            for scheme, kind, predictor in SCHEME_PLAN]


def kind_heuristics(kind: str,
                    heur: FeedbackHeuristics) -> FeedbackHeuristics:
    """The heuristics a proposed-pipeline *kind* compiles with.

    Kind ``"safe"`` is the proposed pipeline with the speculative-safety
    guard forced on (the safe-speculative scheme); kind ``"meld"`` forces
    branch melding in place of if-conversion (the melded scheme).  Neither
    toggle touches ``heur.classify``, so all three kinds can share one
    profiling run.
    """
    if kind == "safe":
        return replace(heur, spectre_safe=True)
    if kind == "meld":
        return replace(heur, enable_meld=True)
    return heur


def counted_compile(kind: str, prog: Program, heur: FeedbackHeuristics,
                    max_steps: int, backend: str = "reference",
                    share: Optional[dict] = None) -> CompileResult:
    """Compile *prog* for a pipeline *kind*, incrementing the counter.

    Each kind has its own entry in a benchmark's compile memo because its
    toggle (:func:`kind_heuristics`) changes the emitted code.
    ``backend="fast"`` runs the profiling pass of proposed-pipeline
    compiles on the native functional kernel (byte-identical profiles);
    *share* is the benchmark's memo, through which the proposed kinds
    share one profiling run and the pipeline stages they have in common
    (see :func:`~repro.core.pipeline.compile_proposed`).
    """
    COUNTERS.compiles += 1
    REGISTRY.inc("engine.compiles")
    if kind == "base":
        return compile_baseline(prog)
    return compile_proposed(prog, heur=kind_heuristics(kind, heur),
                            max_steps=max_steps, backend=backend,
                            share=share)


def counted_simulate(prog: Program, config: MachineConfig,
                     max_steps: int,
                     backend: str = "reference") -> tuple[SimStats,
                                                          ExecStats]:
    """Functional + timing simulation, incrementing the counter.

    ``backend="fast"`` routes through :func:`repro.fastsim.backend.simulate`
    (decode-once + native functional + event-bucket timing kernels);
    results are byte-identical and fastsim-internal failures fall back to
    the reference path transparently.
    """
    COUNTERS.simulates += 1
    REGISTRY.inc("engine.simulates")
    if backend == "fast":
        return fastsim.simulate(prog, config, max_steps=max_steps)
    return fastsim._reference_simulate(prog, config, max_steps)


def _short_reason(exc: BaseException) -> str:
    """One-line classification of a cell failure for table rendering."""
    text = str(exc).splitlines()[0] if str(exc) else ""
    name = type(exc).__name__
    return f"{name}: {text}"[:80] if text else name


def _async_raise(thread_id: int, exc_type: type) -> bool:
    """Schedule *exc_type* to be raised inside the thread *thread_id*.

    Uses ``PyThreadState_SetAsyncExc``: the exception surfaces at the
    target thread's next bytecode boundary, which is exactly how the old
    ``SIGALRM`` handler behaved for the main thread — except this works
    for *any* Python thread.  Returns False when the interpreter refused
    (unknown thread id, or a restricted runtime without ``ctypes``
    access), in which case the attempt simply runs unbounded, matching
    the previous no-op fallback semantics.
    """
    try:
        n = ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_id), ctypes.py_object(exc_type))
    except (AttributeError, ValueError):
        return False
    if n > 1:  # somehow hit several states: undo rather than spray
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_id), None)
        return False
    return n == 1


class _watchdog:
    """Context manager bounding one cell attempt in any thread.

    Arms a :class:`threading.Timer` that raises :class:`CellTimeout`
    inside the *executing* thread when the budget elapses.  Unlike the
    former ``SIGALRM`` scheme this works off the main thread (service
    workers, pool shims) and on non-POSIX hosts.  A no-op when *seconds*
    is falsy.

    Disarming takes a lock shared with the timer callback, so once
    ``__exit__`` starts no late timeout can fire.  The one unavoidable
    window — the callback scheduled the exception but the thread has not
    reached a bytecode boundary yet — surfaces inside the caller's
    containment ``try`` (:func:`run_cell` retries the cell), never in
    unrelated code.
    """

    def __init__(self, seconds: Optional[float]):
        self.seconds = float(seconds) if seconds else 0.0
        self._timer: Optional[threading.Timer] = None
        self._lock = threading.Lock()
        self._armed = False
        self.fired = False

    def __enter__(self) -> "_watchdog":
        if not self.seconds:
            return self
        thread_id = threading.get_ident()

        def _fire() -> None:
            with self._lock:
                if not self._armed:
                    return
                self.fired = _async_raise(thread_id, CellTimeout)

        self._armed = True
        self._timer = threading.Timer(self.seconds, _fire)
        self._timer.daemon = True
        self._timer.start()
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._armed = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


def run_cell(spec: CellSpec, program: Optional[Program] = None,
             compile_memo: Optional[dict] = None) -> SchemeResult:
    """Run one cell in this process: the engine's one retry/containment
    loop.

    *program* short-circuits payload deserialization when the caller
    already holds the Program.  *compile_memo* is a benchmark's memo:
    its cells share successful compiles (the 2bitBP and PerfectBP
    columns reuse one baseline compile), and its proposed-pipeline kinds
    share one profiling run and the pipeline stages they have in common
    (see :func:`~repro.core.pipeline.compile_proposed`); failed compiles
    are retried per cell.

    With ``spec.strict`` the first exception propagates; otherwise the
    cell is retried once and then returned as a failed result.
    """
    with obs_span(f"cell.{spec.scheme}", benchmark=spec.benchmark,
                  scheme=spec.scheme) as sp:
        last: Optional[BaseException] = None
        memo = compile_memo if compile_memo is not None else {}
        for _ in range(CELL_RETRIES + 1):
            try:
                with _watchdog(spec.timeout):
                    prog = program if program is not None \
                        else Program.from_dict(spec.program)
                    if spec.kind not in memo:
                        memo[spec.kind] = counted_compile(
                            spec.kind, prog, spec.heur, spec.max_steps,
                            spec.backend, memo)
                    cr = memo[spec.kind]
                    stats, exec_stats = counted_simulate(
                        cr.program, spec.resolve_config(), spec.max_steps,
                        spec.backend)
                return SchemeResult(spec.benchmark, spec.scheme, stats,
                                    exec_stats, cr)
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                if spec.strict:
                    raise
                last = exc
        reason = _short_reason(last)
        sp.set("failure", reason)
        detail = "".join(traceback.format_exception(
            type(last), last, last.__traceback__)[-4:])
        return SchemeResult(spec.benchmark, spec.scheme, failure=reason,
                            failure_detail=detail)


def execute_cell(spec: CellSpec, program: Optional[Program] = None,
                 compile_memo: Optional[dict] = None) -> dict:
    """:func:`run_cell` as a plain-dict :class:`SchemeResult` payload: the
    entry point of pool worker processes and service workers."""
    return run_cell(spec, program, compile_memo).to_dict()
