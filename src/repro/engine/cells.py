"""Evaluation cells: the unit of cached / parallel work.

One *cell* is one (benchmark, scheme) table entry: compile the program for
the scheme's pipeline kind, simulate it under the scheme's predictor, and
return statistics.  :class:`CellSpec` is a fully picklable description of
a cell (the program travels as printed assembly + data tables, because
:class:`~repro.isa.program.Program` objects are not picklable), and
:func:`execute_cell` runs one — either in-process or inside a worker
process of :mod:`repro.engine.pool`.

Containment semantics mirror the serial runner exactly (PR 1): a cell
that raises is retried once, then reported as a ``failure`` record the
tables render as ``FAIL(<reason>)``.  When ``timeout`` is set, each
attempt is additionally bounded by a :class:`_watchdog` timer that
raises :class:`CellTimeout` inside the executing thread — it works in
*any* thread (the service workers of :mod:`repro.serve` run cells on
threads, where the former ``SIGALRM`` scheme was a silent no-op), and a
fired watchdog is just another contained failure.

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
from ..core.pipeline import (CompileResult, collect_profile,
                             compile_baseline, compile_proposed)
from ..isa.program import Program
from ..obs.metrics import REGISTRY
from ..obs.pipeline_obs import maybe_observer
from ..obs.trace import span as obs_span
from ..sim.config import MachineConfig, r10k_config
from ..sim.functional import ExecStats, FunctionalSim
from ..sim.pipeline import TimingSim
from ..sim.stats import SimStats

#: The paper's three schemes — plus the speculative-safety variant of the
#: proposed one (PR 6) and the branch-melding variant (``melded``: arms
#: flattened into native conditional-move selects, repro.transform.meld)
#: — as (scheme, pipeline kind, predictor) rows: the canonical plan the
#: suite, cache keys, and workers all share.
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


class CellTimeout(RuntimeError):
    """A cell attempt exceeded its wall-clock budget."""


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


def overrides_as_items(config_overrides: Optional[dict]) -> tuple:
    """Normalize a config-override dict into sorted picklable pairs."""
    return tuple(sorted((config_overrides or {}).items()))


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
                    profile=None) -> CompileResult:
    """Compile *prog* for a pipeline *kind*, incrementing the counter.

    Each kind shares nothing with the ``"prop"`` compile memo because its
    toggle (:func:`kind_heuristics`) changes the emitted code.
    ``backend="fast"`` runs the profiling pass of proposed-pipeline
    compiles on the native functional kernel (byte-identical profiles);
    *profile* (see :func:`~repro.core.pipeline.collect_profile`) skips it.
    """
    COUNTERS.compiles += 1
    REGISTRY.inc("engine.compiles")
    if kind == "base":
        return compile_baseline(prog)
    return compile_proposed(prog, heur=kind_heuristics(kind, heur),
                            max_steps=max_steps, backend=backend,
                            profile=profile)


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
        from ..fastsim.backend import simulate as fast_simulate

        return fast_simulate(prog, config, max_steps=max_steps)
    fsim = FunctionalSim(prog, max_steps=max_steps, record_outcomes=False)
    tsim = TimingSim(config, observer=maybe_observer())
    stats = tsim.run(fsim.trace())
    return stats, fsim.stats


def _short_reason(exc: BaseException) -> str:
    """One-line classification of a cell failure for table rendering."""
    text = str(exc).splitlines()[0] if str(exc) else ""
    name = type(exc).__name__
    return f"{name}: {text}"[:80] if text else name


def _failure_payload(benchmark: str, scheme: str,
                     exc: BaseException) -> dict:
    detail = "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__)[-4:])
    return serde.stamp(
        {"benchmark": benchmark, "scheme": scheme, "stats": None,
         "exec_stats": None, "compile_result": None,
         "failure": _short_reason(exc), "failure_detail": detail})


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
    containment ``try`` (``execute_cell`` retries the cell), never in
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


def execute_cell(spec: CellSpec, program: Optional[Program] = None,
                 compile_memo: Optional[dict] = None) -> dict:
    """Run one cell; returns a plain-dict :class:`SchemeResult` payload.

    *program* short-circuits payload deserialization when the caller
    already holds the Program (in-process fast path).  *compile_memo*
    shares successful compiles across the cells of one benchmark (the
    2bitBP and PerfectBP columns reuse the same baseline compile), and
    one profiling run across its proposed-pipeline kinds, exactly as the
    serial runner does; failed compiles are retried per cell.

    With ``spec.strict`` the first exception propagates; otherwise the
    cell is retried once and then recorded as a failure payload.
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
                    # The backend kwarg travels only when non-default, so
                    # tests that monkeypatch counted_compile/counted_simulate
                    # with the original signatures keep working.
                    bk = {"backend": spec.backend} \
                        if spec.backend != "reference" else {}
                    if spec.kind not in memo:
                        shared = {}
                        if spec.kind != "base":
                            pkey = ("profile", spec.heur.classify,
                                    spec.max_steps, spec.backend)
                            if pkey not in memo:
                                memo[pkey] = collect_profile(
                                    prog, spec.heur, spec.max_steps,
                                    spec.backend)
                            shared["profile"] = memo[pkey]
                        memo[spec.kind] = counted_compile(
                            spec.kind, prog, spec.heur, spec.max_steps,
                            **bk, **shared)
                    cr = memo[spec.kind]
                    stats, exec_stats = counted_simulate(
                        cr.program, spec.resolve_config(), spec.max_steps,
                        **bk)
                return serde.stamp(
                    {"benchmark": spec.benchmark, "scheme": spec.scheme,
                     "stats": stats.to_dict(),
                     "exec_stats": exec_stats.to_dict(),
                     "compile_result": cr.to_dict(),
                     "failure": None, "failure_detail": ""})
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                if spec.strict:
                    raise
                last = exc
        sp.set("failure", _short_reason(last))
        return _failure_payload(spec.benchmark, spec.scheme, last)
