"""Canonical cache-key derivation for the evaluation engine.

A cache key must satisfy two properties:

1. **Stability** — the same logical inputs hash to the same key in every
   process, interpreter invocation, and ``PYTHONHASHSEED``.  Everything is
   therefore serialized through :func:`canonical` (dataclasses to plain
   dicts, dict keys stringified and sorted, tuples to lists) and dumped as
   minified sorted-key JSON before hashing.  Programs contribute their
   printed assembly text (uid-free) plus explicit data-segment tables, so
   two structurally identical programs key identically regardless of how
   they were built.
2. **Collision resistance across code changes** — a change to the
   compiler, simulator, or result schema must not resurrect stale
   artifacts.  :data:`repro.core.serde.SCHEMA_VERSION`, the one schema
   version of the project, is folded into every key as a salt (see its
   comment for when to bump it).

The full key of one evaluation cell is
``sha256(canonical_json({schema_version, program, scheme, heur, config,
max_steps, extra, backend}))`` — see :func:`cell_key`.  Keys written
before the version had one definition salted a field named ``schema``
(values 1–5), so no old key can equal a new one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Optional

from ..core import serde
from ..core.heuristics import FeedbackHeuristics
from ..isa.program import Program
from ..sim.config import MachineConfig

def canonical(obj: Any) -> Any:
    """Reduce *obj* to a canonical JSON-compatible structure.

    Dataclasses become dicts tagged with their class name (so two distinct
    config types with identical fields cannot alias); dict keys are
    stringified (JSON dumps then sorts them); tuples and sets become lists
    (sets sorted).  Raises ``TypeError`` for objects with no canonical
    form — keys must never silently depend on ``repr`` or identity.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            if f.name.startswith("_"):
                continue  # private machinery (e.g. RNG handles), not state
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(v) for v in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for a cache key")


def canonical_json(obj: Any) -> str:
    """Minified, sorted-key JSON of :func:`canonical` output."""
    return json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":"))


def digest(obj: Any) -> str:
    """sha256 hex digest of *obj*'s canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def program_fingerprint(prog: Program) -> dict:
    """The key-relevant content of a program.

    Delegates to :meth:`Program.to_dict`: printed assembly (uid-free,
    deterministic) plus the data segment, symbols, and code references.
    """
    return prog.to_dict()


def program_digest(prog: Program) -> str:
    """sha256 hex digest of one program's fingerprint."""
    return digest(program_fingerprint(prog))


def cell_key(prog: Program, scheme: str, heur: FeedbackHeuristics,
             config: MachineConfig, max_steps: int,
             schema_version: int = serde.SCHEMA_VERSION,
             extra: Optional[dict] = None,
             backend: str = "reference") -> str:
    """Cache key of one (program, scheme) evaluation cell.

    *config* is the fully resolved :class:`MachineConfig` (predictor and
    overrides applied), so any machine-parameter sweep point keys
    distinctly.  *extra* lets callers fold additional discriminators in
    (it must be canonicalizable).  *backend* names the execution backend
    (``"reference"`` or ``"fast"``); backends are required to produce
    byte-identical payloads, but they key separately so a fastsim bug can
    never poison reference results (and the conformance suite can hold
    both results side by side in one cache).
    """
    return digest({
        serde.VERSION_KEY: schema_version,
        "program": program_fingerprint(prog),
        "scheme": scheme,
        "heur": heur,
        "config": config,
        "max_steps": max_steps,
        "extra": extra,
        "backend": backend,
    })
