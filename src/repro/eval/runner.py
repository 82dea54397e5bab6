"""Scheme runner: executes the paper's three-way comparison.

The paper's Tables 3 and 4 compare, per benchmark:

1. ``2bitBP``      — native code, 512-entry 2-bit prediction;
2. ``Proposed``    — the combined approach (branch splitting + guarded
   execution + branch-likelies + prioritized speculation) *in addition to*
   the same 2-bit prediction;
3. ``PerfectBP``   — native code, perfect prediction (theoretical bound).

The scheme set (these three plus the ``safe-speculative`` and ``melded``
variants of Proposed) is :data:`repro.engine.cells.SCHEME_PLAN`; this
module holds the per-benchmark view of its results.

Suite isolation
---------------
Each (benchmark, scheme) cell runs in the engine's cell executor
(:func:`repro.engine.cells.run_cell`): a cell that raises is retried once
(transient allocator/recursion issues), then recorded as a *failed cell* —
``SchemeResult.failure`` holds the classified reason and the tables render
``FAIL(<reason>)`` instead of the whole run aborting.  ``strict=True``
restores fail-fast for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core import serde
from ..core.heuristics import DEFAULT_HEURISTICS, FeedbackHeuristics
from ..engine.cells import (SCHEME_PLAN, SchemeResult, benchmark_cells,
                            overrides_as_items)
from ..engine.pool import run_cells
from ..isa.program import Program

#: Scheme names in the paper's column order, plus the speculative-safety
#: and branch-melding variants (:data:`~repro.engine.cells.SCHEME_PLAN`).
SCHEMES = tuple(scheme for scheme, _, _ in SCHEME_PLAN)


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


def run_benchmark_impl(name: str, prog: Program,
                       heur: FeedbackHeuristics = DEFAULT_HEURISTICS,
                       config_overrides: Optional[dict] = None,
                       max_steps: int = 50_000_000,
                       strict: bool = False,
                       backend: str = "reference") -> BenchmarkRun:
    """Run every scheme in :data:`SCHEMES` on one benchmark program.

    The cells run in this process and share one compile memo (one
    baseline compile, one profiling run and the common pipeline stages of
    the proposed kinds).  With ``strict=False`` (default) a crashing cell
    is retried once and then recorded as failed; with ``strict=True`` the
    exception propagates.  ``backend="fast"`` runs every cell on the
    :mod:`repro.fastsim` backend (byte-identical results, transparent
    reference fallback).
    """
    specs = benchmark_cells(
        name, prog.to_dict(), heur=heur,
        config_overrides=overrides_as_items(config_overrides),
        max_steps=max_steps, strict=strict, backend=backend)
    cells = run_cells(specs, programs={name: prog})
    return BenchmarkRun(name=name, results={c.scheme: c for c in cells})


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
