"""Persistent result cache: keying, round-trip, merge, corruption."""

import json
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.config import MachineConfig
from repro.core.stats import SimStats
from repro.harness.diskcache import (CacheCorruptionWarning, DiskResultCache,
                                     FILE_FORMAT, hash_key)
from repro.harness.parallel import run_grid
from repro.harness.runner import Runner, _config_key, program_hash
from repro.workloads import by_name


def test_hash_key_stable_and_order_sensitive():
    assert hash_key(1, "a", [2, 3]) == hash_key(1, "a", [2, 3])
    assert hash_key(1, "a") != hash_key("a", 1)


def test_get_put_roundtrip(tmp_path):
    cache = DiskResultCache(tmp_path / "cache.json")
    assert cache.get("k") is None
    cache.put("k", {"cycles": 42})
    assert cache.get("k") == {"cycles": 42}
    # A fresh instance reads the persisted file.
    again = DiskResultCache(tmp_path / "cache.json")
    assert again.get("k") == {"cycles": 42}
    assert again.hits == 1 and cache.misses == 1


def test_save_merges_concurrent_entries(tmp_path):
    path = tmp_path / "cache.json"
    a = DiskResultCache(path, autosave=False)
    b = DiskResultCache(path, autosave=False)
    a.put("from-a", 1)
    b.put("from-b", 2)
    a.save()
    b.save()  # must not clobber a's entry
    merged = DiskResultCache(path)
    assert merged.get("from-a") == 1
    assert merged.get("from-b") == 2
    document = json.loads(path.read_text())
    assert document["format"] == FILE_FORMAT
    assert set(document["entries"]) == {"from-a", "from-b"}


def _hammer_cache(job):
    """Module-level so it pickles into pool workers."""
    path, worker, count = job
    cache = DiskResultCache(path, autosave=False)
    for n in range(count):
        cache.put(f"w{worker}-k{n}", {"worker": worker, "n": n})
    cache.save()
    return worker


def test_save_survives_concurrent_writer_processes(tmp_path):
    """N processes saving disjoint keys: every key survives the races."""
    path = tmp_path / "cache.json"
    workers, keys_each = 4, 8
    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = list(pool.map(_hammer_cache,
                             [(str(path), w, keys_each)
                              for w in range(workers)]))
    assert sorted(done) == list(range(workers))
    merged = DiskResultCache(path)
    assert len(merged) == workers * keys_each
    for w in range(workers):
        for n in range(keys_each):
            assert merged.get(f"w{w}-k{n}") == {"worker": w, "n": n}


def test_corrupt_file_quarantined_not_deleted(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{not json")
    with pytest.warns(CacheCorruptionWarning, match="quarantined"):
        cache = DiskResultCache(path)
    assert len(cache) == 0
    corpse = tmp_path / "cache.json.corrupt-1"
    assert corpse.read_text() == "{not json"  # evidence preserved
    cache.put("k", 1)
    assert DiskResultCache(path).get("k") == 1


def test_quarantine_numbering_never_overwrites(tmp_path):
    path = tmp_path / "cache.json"
    for n in (1, 2):
        path.write_text(f"garbage #{n}")
        with pytest.warns(CacheCorruptionWarning):
            DiskResultCache(path)
    assert (tmp_path / "cache.json.corrupt-1").read_text() == "garbage #1"
    assert (tmp_path / "cache.json.corrupt-2").read_text() == "garbage #2"


def test_non_object_top_level_quarantined(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("[1, 2, 3]")
    with pytest.warns(CacheCorruptionWarning, match="top level"):
        cache = DiskResultCache(path)
    assert len(cache) == 0


def test_legacy_plain_dict_file_loads(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"old-key": {"cycles": 7}}))
    cache = DiskResultCache(path)
    assert cache.get("old-key") == {"cycles": 7}


def test_schema_drops_entry_missing_required_field(tmp_path):
    path = tmp_path / "cache.json"
    cache = DiskResultCache(path, schema=("cycles", "checksum"))
    cache.put("good", {"cycles": 1, "checksum": 2})
    cache.put("bad", {"cycles": 1})  # missing "checksum"
    with pytest.warns(CacheCorruptionWarning):
        again = DiskResultCache(path, schema=("cycles", "checksum"))
    assert again.get("good") == {"cycles": 1, "checksum": 2}
    assert again.get("bad") is None
    assert again.dropped == 1


def test_schema_tolerates_extra_fields(tmp_path):
    path = tmp_path / "cache.json"
    DiskResultCache(path).put("k", {"cycles": 1, "checksum": 2,
                                    "future-field": True})
    cache = DiskResultCache(path, schema=("cycles", "checksum"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.get("k")["future-field"] is True


def test_get_drops_invalid_in_memory_entry():
    cache = DiskResultCache("/nonexistent/never-written.json",
                            autosave=False, schema=("cycles",))
    cache._entries["bad"] = ["not", "a", "dict"]
    with pytest.warns(CacheCorruptionWarning):
        assert cache.get("bad") is None
    assert cache.misses == 1 and cache.dropped == 1


def test_stale_engine_entries_dropped(tmp_path):
    path = tmp_path / "cache.json"
    document = {"format": FILE_FORMAT, "entries": {
        "stale": {"engine": 10_000, "payload": {"cycles": 1}},
        "fresh": {"engine": None, "payload": {"cycles": 2}},
    }}
    path.write_text(json.dumps(document))
    with pytest.warns(CacheCorruptionWarning):
        cache = DiskResultCache(path)
    assert cache.get("stale") is None
    assert cache.get("fresh") == {"cycles": 2}


def _grid_run(workload, config, cache):
    """One job through run_grid, which does the disk-cache get and put."""
    return run_grid([(workload, config)], workers=1, disk_cache=cache,
                    strict=True)[0]


def test_engine_version_bump_never_serves_stale_cycles(tmp_path):
    """A version bump turns every cached entry into a miss, not a lie.

    Simulate once under the current ENGINE_VERSION, then rewrite the
    cache file as if a *previous* engine had produced it — with
    poisoned cycle counts. A fresh cache must drop the stale entries
    and the grid re-simulate, returning the true cycles; serving the
    poisoned payload would mean a timing-model change could leak
    through the cache.
    """
    from repro.core.pipeline import ENGINE_VERSION

    workload = by_name("LL2")
    config = MachineConfig(nthreads=2)
    path = tmp_path / "cache.json"
    baseline = _grid_run(workload, config, path)

    document = json.loads(path.read_text())
    for entry in document["entries"].values():
        entry["engine"] = ENGINE_VERSION - 1
        entry["payload"]["cycles"] = 1  # poison: must never be served
    path.write_text(json.dumps(document))

    with pytest.warns(CacheCorruptionWarning, match="stale"):
        fresh = DiskResultCache(path, schema=Runner.RESULT_SCHEMA)
    result = _grid_run(workload, config, fresh)
    assert fresh.hits == 0
    assert result.cycles == baseline.cycles != 1


def test_runner_disk_cache_skips_simulation(tmp_path, monkeypatch):
    workload = by_name("LL2")
    config = MachineConfig(nthreads=2)
    path = tmp_path / "cache.json"

    first = DiskResultCache(path, schema=Runner.RESULT_SCHEMA)
    baseline = _grid_run(workload, config, first)
    assert first.misses == 1

    second = DiskResultCache(path, schema=Runner.RESULT_SCHEMA)
    # Prove the replay path never simulates.
    monkeypatch.setattr(
        "repro.harness.runner.PipelineSim",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("simulated")))
    replayed = _grid_run(workload, config, second)
    assert second.hits == 1
    assert replayed.cycles == baseline.cycles
    assert replayed.checksum == baseline.checksum
    assert replayed.verified
    assert replayed.stats.to_dict() == baseline.stats.to_dict()


def test_runner_replays_payloads_with_legacy_backend_field(tmp_path):
    # Payloads written by the removed batch/spec engines carry a
    # "backend" field; they replay like any other (same cycle counts,
    # same ENGINE_VERSION, so the same keys).
    workload = by_name("LL5")
    config = MachineConfig(nthreads=1)
    cache_path = tmp_path / "results.json"
    fresh = _grid_run(workload, config, cache_path)
    document = json.loads(cache_path.read_text())
    for entry in document["entries"].values():
        assert "backend" not in entry["payload"]
        entry["payload"]["backend"] = "batch"
    cache_path.write_text(json.dumps(document))
    replay = _grid_run(workload, config, cache_path)
    assert replay.stats.to_dict() == fresh.stats.to_dict()
    assert replay.checksum == fresh.checksum


def test_config_key_covers_mem_words():
    base = MachineConfig()
    assert _config_key(base) != _config_key(base.replace(mem_words=1 << 16))


def test_config_key_ignores_hang_cycles():
    # Like max_cycles, the watchdog threshold cannot change a completed
    # run's counts, so it must not invalidate disk caches.
    base = MachineConfig()
    assert _config_key(base) == _config_key(base.replace(hang_cycles=None))


def test_program_hash_tracks_content():
    workload = by_name("LL2")
    one = program_hash(workload.program(1))
    assert one == program_hash(workload.program(1))
    assert one != program_hash(workload.program(2))


def test_stats_dict_roundtrip():
    config = MachineConfig(nthreads=2)
    stats = SimStats(config)
    stats.cycles = 123
    stats.committed = 45
    stats.committed_per_thread = [20, 25]
    for cls in stats.fu_busy:
        stats.fu_busy[cls] = [7] * len(stats.fu_busy[cls])
    rebuilt = SimStats.from_dict(config, json.loads(
        json.dumps(stats.to_dict())))
    assert rebuilt.to_dict() == stats.to_dict()
    assert rebuilt.ipc == stats.ipc
    assert rebuilt.fu_busy == stats.fu_busy


def test_save_is_byte_deterministic(tmp_path):
    """Same entries, any insertion order -> identical file bytes."""
    a = DiskResultCache(tmp_path / "a.json", autosave=False)
    b = DiskResultCache(tmp_path / "b.json", autosave=False)
    entries = [("k2", {"z": 1, "a": 2}), ("k1", {"m": 3}), ("k0", 7)]
    for key, value in entries:
        a.put(key, value)
    for key, value in reversed(entries):
        b.put(key, value)
    a.save()
    b.save()
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()
