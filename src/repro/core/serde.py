"""Shared serialization helpers: one schema-version discipline for all
result types.

Every serializable result type (``SimStats``, ``ExecStats``,
``CompileResult``, ``SchemeResult``, ``BenchmarkRun``, ``DiffReport``,
``CampaignSummary``) stamps :data:`SCHEMA_VERSION` into its ``to_dict``
payload via :func:`stamp` and validates it in ``from_dict`` via
:func:`check`.  A payload written by a different schema generation fails
loudly with :class:`SchemaMismatch` instead of deserializing into
silently wrong fields.  The same constant salts every cache key
(:mod:`repro.engine.keys`, fuzz cells, tune results) and versions the
artifact-cache envelope (:mod:`repro.engine.cache`), so stale cached
payloads stop matching before they ever reach a ``from_dict``.

:func:`dump_fields`/:func:`load_fields` factor the flat-scalar part of
the five formerly copy-pasted round-trip patterns.
"""

from __future__ import annotations

from typing import Any, Sequence

#: The project's one schema version: stamped into every result payload,
#: folded into every cache key and carried by the cache envelope.  The
#: rule: bump it on ANY change to a result type's serialized shape or
#: meaning, or to code whose output the cache stores (compiler passes,
#: simulators) — payloads, keys and cached entries then all roll at once.
#: v2: fence counters in ExecStats/SimStats, spectre fields in the
#: compile-result region report, SpectreFinding payloads.
#: v3: SchemeResult/BenchmarkRun payloads carry the execution backend
#: that produced them (repro.fastsim).
#: v4: ``melds_applied`` in CompileResult payloads and the melded scheme
#: in suite records.
SCHEMA_VERSION = 4

#: The key carrying the version inside every payload.
VERSION_KEY = "schema_version"


class SchemaMismatch(ValueError):
    """A payload's schema version is missing or from another generation."""


def stamp(payload: dict, version: int = SCHEMA_VERSION) -> dict:
    """Add the schema version to *payload* (returned for chaining)."""
    payload[VERSION_KEY] = version
    return payload


def check(payload: dict, kind: str,
          version: int = SCHEMA_VERSION) -> dict:
    """Validate *payload*'s schema version; returns it for chaining.

    *kind* names the result type in the error message.  Raises
    :class:`SchemaMismatch` when the version key is absent (pre-versioned
    payload) or differs from *version*.
    """
    got = payload.get(VERSION_KEY)
    if got != version:
        raise SchemaMismatch(
            f"{kind} payload schema_version={got!r}, expected {version} "
            f"(stale artifact? recompute or clear the cache)")
    return payload


def dump_fields(obj: Any, names: Sequence[str]) -> dict:
    """``{name: getattr(obj, name)}`` for the flat fields of a payload."""
    return {name: getattr(obj, name) for name in names}


def load_fields(payload: dict, names: Sequence[str]) -> dict:
    """``{name: payload[name]}`` — kwargs for a dataclass constructor."""
    return {name: payload[name] for name in names}
