"""Shared schema-version discipline for every serializable result type."""

import pytest

from repro.core import serde
from repro.core.serde import (
    SCHEMA_VERSION, SchemaMismatch, VERSION_KEY, check, dump_fields,
    load_fields, stamp,
)


def test_stamp_adds_version_and_chains():
    payload = {"a": 1}
    assert stamp(payload) is payload
    assert payload[VERSION_KEY] == SCHEMA_VERSION


def test_check_round_trip():
    payload = stamp({"a": 1})
    assert check(payload, "Thing") is payload


def test_check_rejects_missing_version():
    with pytest.raises(SchemaMismatch, match="Thing payload"):
        check({"a": 1}, "Thing")


def test_check_rejects_other_generation():
    payload = stamp({}, version=SCHEMA_VERSION + 1)
    with pytest.raises(SchemaMismatch, match="stale artifact"):
        check(payload, "Thing")


def test_schema_mismatch_is_a_value_error():
    assert issubclass(SchemaMismatch, ValueError)


def test_dump_and_load_fields():
    class Obj:
        x = 1
        y = "two"

    payload = dump_fields(Obj(), ["x", "y"])
    assert payload == {"x": 1, "y": "two"}
    assert load_fields(stamp(payload), ["x", "y"]) == {"x": 1, "y": "two"}


def test_load_fields_missing_key_raises():
    with pytest.raises(KeyError):
        load_fields({"x": 1}, ["x", "missing"])


def test_sim_stats_round_trip_carries_version():
    from repro.sim import SimStats

    payload = SimStats().to_dict()
    assert payload[VERSION_KEY] == SCHEMA_VERSION
    assert SimStats.from_dict(payload).to_dict() == payload


def test_from_dict_rejects_pre_versioned_payload():
    from repro.sim import SimStats

    payload = SimStats().to_dict()
    del payload[VERSION_KEY]
    with pytest.raises(SchemaMismatch):
        SimStats.from_dict(payload)


def test_engine_cache_envelope_bumped_with_serde(tmp_path):
    # The artifact-cache envelope carries the payload schema version
    # itself, so a payload bump rolls the envelope with it and stale
    # cached payloads die as misses (see serde doc).
    import json

    from repro.engine.cache import ArtifactCache

    cache = ArtifactCache(tmp_path)
    cache.put("cd" * 32, {"x": 1})
    (entry,) = tmp_path.glob("??/*.json")
    assert json.loads(entry.read_text())[VERSION_KEY] == \
        serde.SCHEMA_VERSION
