"""Parallel evaluation engine with a content-addressed artifact cache.

The compile→simulate pipeline behind every ``tables``/``verify``/benchmark
run, turned into a proper execution engine:

* :mod:`~repro.engine.keys` — canonical, process-stable cache keys
  (dataclass → canonical JSON → sha256, salted with a schema version);
* :mod:`~repro.engine.cache` — content-addressed on-disk artifact store
  (``.repro-cache/`` or ``$REPRO_CACHE_DIR``) with atomic writes,
  corrupted-entry recovery, and size-capped LRU eviction;
* :mod:`~repro.engine.cells` — the scheme plan, the picklable unit of
  work (one benchmark × scheme cell), and the one cell executor, with
  crash containment, retry, and an optional per-attempt timeout;
* :mod:`~repro.engine.pool` — process-pool fan-out with an in-process
  fallback at ``jobs=1`` and worker-death recovery;
* :mod:`~repro.engine.suite` — the cached/parallel suite runner behind
  ``Session.run_suite``;
* :mod:`~repro.engine.sweep` — declarative cartesian design-space sweeps
  reusing the same cache and pool.

A warm cache makes ``python -m repro tables`` perform **zero** compiles
and simulations (assert via :data:`~repro.engine.cells.COUNTERS`); a cold
``--jobs N`` run fans cells out over worker processes.  See
docs/ENGINE.md for the cache layout and invalidation rules.
"""

from .cache import ArtifactCache, CacheCounters, default_cache_dir
from .cells import (
    CELL_RETRIES, COUNTERS, SCHEME_PLAN, CellSpec, CellTimeout,
    EngineCounters, execute_cell,
)
from .keys import (
    canonical, canonical_json, cell_key, digest, program_digest,
    program_fingerprint,
)
from .pool import PoolDecision, execution_mode, run_cells, run_tasks
from .suite import coerce_cache, run_suite
from .sweep import SweepSpec, grid_from_dict

__all__ = [
    "ArtifactCache", "CacheCounters", "default_cache_dir",
    "CELL_RETRIES", "COUNTERS", "SCHEME_PLAN", "CellSpec", "CellTimeout",
    "EngineCounters", "execute_cell",
    "canonical", "canonical_json", "cell_key", "digest", "program_digest",
    "program_fingerprint",
    "PoolDecision", "execution_mode", "run_cells", "run_tasks",
    "coerce_cache", "run_suite",
    "SweepSpec", "grid_from_dict",
]
