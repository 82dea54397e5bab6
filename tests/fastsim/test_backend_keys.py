"""Backend identity and the schema version in cache keys.

Before the execution-backend layer existed, a cell's cache key
identified only (program, scheme, heuristics, config, budget).  A
fast-backend run would therefore have *shared cache lines* with
reference runs — a fastsim bug could poison reference results.  These
tests pin the fix:

* engine cell keys carry the backend (distinct keys per backend,
  reference unchanged semantics via the default),
* one schema version (``repro.core.serde.SCHEMA_VERSION``) salts keys
  and versions the cache envelope, and nothing written by an earlier
  generation (a ``"schema"`` field, values 1–5) can match,
* while the *payloads* under the distinct keys stay byte-identical —
  distinct keys are a safety property, not a result difference.
"""

import json

import pytest

from repro.core import serde
from repro.core.heuristics import DEFAULT_HEURISTICS
from repro.engine.cache import ArtifactCache
from repro.engine.keys import cell_key, digest, program_fingerprint
from repro.fastsim.backend import resolve_backend
from repro.sim.config import r10k_config
from repro.workloads import benchmark_programs


@pytest.fixture(scope="module")
def prog():
    return benchmark_programs(scale=0.05)["compress"]


def test_cell_keys_distinct_per_backend(prog):
    cfg = r10k_config("twobit")
    ref = cell_key(prog, "Proposed", DEFAULT_HEURISTICS, cfg, 1000)
    fast = cell_key(prog, "Proposed", DEFAULT_HEURISTICS, cfg, 1000,
                    backend="fast")
    explicit_ref = cell_key(prog, "Proposed", DEFAULT_HEURISTICS, cfg,
                            1000, backend="reference")
    assert ref != fast
    assert ref == explicit_ref  # default is spelled "reference"


def test_version_lockstep():
    # core.serde's constant is the only version: payloads carry it, and
    # cache keys and the cache envelope carry it under the same field.
    assert serde.SCHEMA_VERSION == 4
    assert serde.VERSION_KEY == "schema_version"
    import repro.engine.keys as keys

    assert not hasattr(keys, "SCHEMA_VERSION")


def test_old_generation_keys_never_match(prog):
    # Every earlier generation salted cell keys with "schema": 1..5 —
    # including a bare 4, which predates the melded scheme.
    cfg = r10k_config("twobit")
    new = cell_key(prog, "Proposed", DEFAULT_HEURISTICS, cfg, 1000)
    fields = {"program": program_fingerprint(prog), "scheme": "Proposed",
              "heur": DEFAULT_HEURISTICS, "config": cfg,
              "max_steps": 1000, "extra": None, "backend": "reference"}
    assert new == digest({serde.VERSION_KEY: serde.SCHEMA_VERSION,
                          **fields})
    for old in range(1, 6):
        assert new != digest({"schema": old, **fields})


@pytest.mark.parametrize("old", [4, 5])
def test_old_envelope_is_a_miss(tmp_path, old):
    cache = ArtifactCache(tmp_path)
    key = "ab" * 32
    payload = {"schema_version": serde.SCHEMA_VERSION, "x": 1}
    path = tmp_path / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"schema": old, "key": key,
                                "payload": payload}))
    assert cache.get(key) is None
    assert cache.counters.misses == 1 and cache.counters.hits == 0
    assert not path.exists()  # a stale entry is dropped, not kept
    cache.put(key, payload)
    entry = json.loads(path.read_text())
    assert entry[serde.VERSION_KEY] == serde.SCHEMA_VERSION
    assert "schema" not in entry
    assert cache.get(key) == payload


def test_meld_knobs_change_cell_keys(prog):
    # enable_meld is a compile-changing knob: it must key distinctly so
    # melded cells can never alias Proposed cells.
    from dataclasses import replace

    cfg = r10k_config("twobit")
    base = cell_key(prog, "Proposed", DEFAULT_HEURISTICS, cfg, 1000)
    meld = cell_key(prog, "Proposed",
                    replace(DEFAULT_HEURISTICS, enable_meld=True),
                    cfg, 1000)
    assert base != meld


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None) == "reference"
    assert resolve_backend("fast") == "fast"
    monkeypatch.setenv("REPRO_BACKEND", "fast")
    assert resolve_backend(None) == "fast"
    assert resolve_backend("reference") == "reference"  # arg beats env
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("warp")
    monkeypatch.setenv("REPRO_BACKEND", "warp")
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend(None)
