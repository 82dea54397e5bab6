"""Candidate evaluation: one heuristic vector = ordinary engine cells.

A candidate is scored by compiling and simulating the **Proposed** scheme
over the workload zoo with its heuristic vector (and machine overrides)
applied — exactly the cell the suite runner would build for the same
inputs, keyed by the same content-addressed
:func:`~repro.engine.keys.cell_key`.  That identity is the whole point:
tune shares the artifact cache with ``tables``/``sweep`` runs, and
repeated or resumed searches re-execute nothing.

Objectives extracted per (candidate, workload) cell:

* ``ipc`` — timing-simulator instructions per cycle (maximize);
* ``code_growth`` — transformed / original static instruction count
  (minimize; the cost axis of the paper's Figure 7 discussion);
* ``compile_cost`` — deterministic transform-count proxy for compile
  time (minimize; see :func:`compile_cost` for why not wall-clock).
"""

from __future__ import annotations

from typing import Optional

from ..engine.cells import (COUNTERS, SCHEME_PLAN, CellSpec, SchemeResult,
                            overrides_as_items)
from ..engine.keys import cell_key
from ..engine.pool import run_cells
from ..obs.metrics import REGISTRY

#: The scheme every candidate is scored on: the paper's combined
#: speculative+guarded pipeline — the one whose decisions the heuristic
#: vector actually steers.  Its (scheme, kind, predictor) row of
#: SCHEME_PLAN.
TUNE_SCHEME = next(row for row in SCHEME_PLAN if row[0] == "Proposed")


def compile_cost(cr) -> int:
    """Deterministic compile-time proxy: total transforms applied.

    Wall-clock compile time would break the tuner's reproducibility
    contract (same seed + budget → identical Pareto front), so the cost
    objective counts the work the pipeline performed instead: splits,
    if-conversions, branch-likelies, speculated and duplicated
    operations, and planted fences.  Monotone in real compile time for a
    fixed input, and bit-stable across hosts and runs.
    """
    cost = cr.splits_applied + cr.ifconverts_applied
    if cr.likely_report is not None:
        cost += cr.likely_report.converted
    if cr.region_report is not None:
        cost += (cr.region_report.speculated + cr.region_report.duplicated
                 + cr.region_report.fenced)
    return cost


def candidate_cells(heur, config_overrides: dict, programs: dict,
                    max_steps: int, timeout: Optional[float],
                    backend: str) -> list[tuple[str, str, CellSpec]]:
    """The (benchmark, key, spec) grid of one candidate vector.

    One Proposed-scheme cell per workload, keyed exactly like the suite
    runner's Proposed cell for the same inputs — a candidate whose
    vector equals the session default therefore costs nothing after any
    ``tables`` run at the same scale.
    """
    scheme, kind, predictor = TUNE_SCHEME
    over_items = overrides_as_items(config_overrides)
    out = []
    for name, prog in programs.items():
        spec = CellSpec(
            benchmark=name, scheme=scheme, kind=kind, predictor=predictor,
            program=prog.to_dict(), heur=heur, config_overrides=over_items,
            max_steps=max_steps, timeout=timeout, backend=backend)
        key = cell_key(prog, scheme, heur, spec.resolve_config(),
                       max_steps, backend=backend)
        out.append((name, key, spec))
    return out


def measure(cell: SchemeResult, original_len: int) -> dict:
    """Objective vector of one cell (``ok=False`` on failure)."""
    if not cell.ok or cell.compile_result is None:
        return {"ok": False, "ipc": 0.0, "code_growth": float("inf"),
                "compile_cost": 0, "failure": cell.failure}
    size = len(cell.compile_result.program)
    return {"ok": True,
            "ipc": cell.stats.ipc,
            "code_growth": (size / original_len if original_len else 1.0),
            "compile_cost": compile_cost(cell.compile_result),
            "failure": None}


def evaluate_batch(cells: list[tuple[str, str, CellSpec]], programs: dict,
                   cache, jobs: int) -> tuple[dict, int, int]:
    """Execute one round's cell grid through the cache and the pool.

    *cells* is the concatenated ``candidate_cells`` output of every
    candidate in the round (duplicate keys collapse — two candidates
    whose vectors compile identically share one execution).  Returns
    ``({key: SchemeResult}, hits, executed)``; ``hits`` counts
    artifact-cache hits, ``executed`` the unique cells actually run.
    """
    results: dict[str, SchemeResult] = {}
    miss: dict[str, CellSpec] = {}
    for _, key, spec in cells:
        if key in results or key in miss:
            continue
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            results[key] = SchemeResult.from_dict(cached)
            continue
        miss[key] = spec
    hits = len(results)
    REGISTRY.inc("tune.cells.hit", hits)
    REGISTRY.inc("tune.cells.miss", len(miss))
    if miss:
        fresh = dict(zip(miss, run_cells(list(miss.values()), jobs=jobs,
                                         programs=programs)))
        for key, cell in fresh.items():
            results[key] = cell
            if cache is not None and cell.failure is None:
                cache.put(key, cell.to_dict())
    return results, hits, len(miss)


def reset_counters() -> None:
    """Zero the engine's compile/simulate counters (zero-work asserts)."""
    COUNTERS.reset()
