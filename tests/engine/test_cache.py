"""Artifact-cache behavior: round-trips, corruption recovery, eviction."""

import json
import os

from repro.engine import ArtifactCache, default_cache_dir
from repro.engine.keys import digest


def _key(i=0):
    return digest({"test-entry": i})


def test_miss_then_hit_round_trip(tmp_path):
    cache = ArtifactCache(tmp_path)
    payload = {"stats": {"cycles": 123}, "nested": [1, 2, {"a": None}]}
    assert cache.get(_key()) is None
    cache.put(_key(), payload)
    assert cache.get(_key()) == payload
    assert cache.counters.misses == 1
    assert cache.counters.hits == 1
    assert cache.counters.puts == 1


def test_entries_survive_reopen(tmp_path):
    ArtifactCache(tmp_path).put(_key(), {"v": 1})
    assert ArtifactCache(tmp_path).get(_key()) == {"v": 1}


def test_corrupted_entry_is_a_miss_not_a_crash(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put(_key(), {"v": 1})
    path = cache._path(_key())
    path.write_text("{ not json at all")
    assert cache.get(_key()) is None
    assert cache.counters.corrupt == 1
    assert not path.exists()  # bad entry deleted


def test_wrong_shape_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    path = cache._path(_key())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([1, 2, 3]))  # valid JSON, wrong shape
    assert cache.get(_key()) is None
    assert cache.counters.corrupt == 1


def test_key_mismatch_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put(_key(0), {"v": 1})
    # Simulate a hash-prefix collision/rename: entry stored under the
    # wrong name must not be served.
    target = cache._path(_key(1))
    target.parent.mkdir(parents=True, exist_ok=True)
    os.replace(cache._path(_key(0)), target)
    assert cache.get(_key(1)) is None


def test_lru_eviction_keeps_newest(tmp_path):
    small = ArtifactCache(tmp_path, max_bytes=400)
    for i in range(10):
        small.put(_key(i), {"v": "x" * 50, "i": i})
    assert small.counters.evictions > 0
    assert small.stats()["total_bytes"] <= 400
    # The most recent entry always survives its own put.
    assert small.get(_key(9)) == {"v": "x" * 50, "i": 9}


def test_clear(tmp_path):
    cache = ArtifactCache(tmp_path)
    for i in range(3):
        cache.put(_key(i), {"i": i})
    assert cache.clear() == 3
    assert cache.stats()["entries"] == 0
    assert cache.get(_key(0)) is None


def test_default_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    assert default_cache_dir() == tmp_path / "envcache"
    cache = ArtifactCache()
    cache.put(_key(), {"v": 1})
    assert (tmp_path / "envcache").is_dir()


def test_stats_shape(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put(_key(), {"v": 1})
    s = cache.stats()
    for field in ("root", "entries", "total_bytes", "max_bytes", "hits",
                  "misses", "puts", "evictions", "corrupt", "hit_rate"):
        assert field in s
    assert s["entries"] == 1


def test_puts_below_the_cap_do_not_rescan(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path, max_bytes=10_000)
    scans = []
    real = cache._entry_files

    def counted():
        scans.append(1)
        return real()

    monkeypatch.setattr(cache, "_entry_files", counted)
    for i in range(20):
        cache.put(_key(i), {"i": i})
    assert len(scans) == 1                    # the seeding scan only
    cache.put(_key(0), {"i": 0, "pad": "x" * 200})   # overwrite: +200 B
    assert len(scans) == 1
    assert cache._total == sum(p.stat().st_size for p in real())
    for i in range(20, 200):                  # cross the cap
        cache.put(_key(i), {"i": i})
    assert len(scans) > 1
    assert cache.stats()["total_bytes"] <= 10_000
    assert cache.counters.evictions > 0
