"""Tests for the SQLite-backed service store and its cache adapters.

Covers the schema-migration machinery, parity between the JSON and SQLite
cache layouts (same keys, same entries -- including the ``Infinity``
round-trip saturated runs need), the JSON -> SQLite migration path, and a
multi-process stress test hammering one database from several writers.

The stress test is the guarantee the JSON backend explicitly does *not*
make: the JSON caches only promise atomic single-entry replacement (two
processes may duplicate work, and directory listings race writers), while
the SQLite store serializes concurrent writers via WAL + busy timeout.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis.runner import design_for, design_key_for
from repro.exec.batch import key_extra_for
from repro.exec.cache import (
    DiskDesignCache,
    ResultCache,
    config_key,
    design_to_record,
    open_caches,
)
from repro.service.store import (
    DEFAULT_DB_FILENAME,
    SCHEMA_VERSION,
    SqliteDesignCache,
    SqliteResultCache,
    SqliteStore,
    migrate_json_cache,
)
from repro.spec import DesignSpec, ExperimentSpec, PlacementSpec, TrafficSpec


def _tiny_spec(rate: float = 0.002, policy: str = "elevator_first") -> ExperimentSpec:
    return ExperimentSpec(
        placement=PlacementSpec(
            name="store-tiny", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
        ),
        traffic=TrafficSpec(pattern="uniform", injection_rate=rate),
    ).with_(policy=policy)


def _tiny_design_spec() -> DesignSpec:
    return DesignSpec().with_(
        placement=PlacementSpec(
            name="store-tiny", mesh=(2, 2, 2), columns=((0, 0), (1, 1))
        ),
        optimizer="greedy-swap",
    )


@pytest.fixture
def store(tmp_path) -> SqliteStore:
    s = SqliteStore(str(tmp_path / DEFAULT_DB_FILENAME))
    yield s
    s.close()


# ---------------------------------------------------------------------- #
# Store basics
# ---------------------------------------------------------------------- #
class TestSqliteStore:
    def test_migrates_to_current_schema_version(self, store):
        version = store.query("PRAGMA user_version")[0][0]
        assert version == SCHEMA_VERSION

    def test_reopening_is_idempotent(self, tmp_path):
        path = str(tmp_path / "db.sqlite3")
        SqliteStore(path).close()
        second = SqliteStore(path)
        assert second.query("PRAGMA user_version")[0][0] == SCHEMA_VERSION
        second.close()

    def test_rejects_memory_databases(self):
        with pytest.raises(ValueError, match=":memory:"):
            SqliteStore(":memory:")

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "db.sqlite3")
        store = SqliteStore(path)
        assert os.path.exists(path)
        store.close()

    def test_result_round_trip(self, store):
        store.put_result("k1", {"policy": "cda"}, {"average_latency": 12.5})
        assert store.get_result("k1") == {"average_latency": 12.5}
        assert store.get_result("missing") is None
        assert store.result_count() == 1

    def test_infinite_floats_round_trip(self, store):
        # Saturated runs carry infinite latencies; the store must not
        # corrupt them (same contract as the JSON backend).
        summary = {"average_latency": float("inf"), "throughput": 0.0}
        store.put_result("sat", None, summary)
        assert store.get_result("sat") == summary

    def test_design_record_round_trip(self, store):
        record = {"format": 2, "payload": [1, 2, 3]}
        store.put_design_record("h1", record)
        assert store.get_design_record("h1") == record
        assert store.get_design_record("other") is None

    def test_uses_wal_journal_mode(self, store):
        assert store.query("PRAGMA journal_mode")[0][0] == "wal"


# ---------------------------------------------------------------------- #
# Cache adapters: parity with the JSON backends
# ---------------------------------------------------------------------- #
class TestCacheAdapters:
    def test_result_cache_interface(self, store):
        cache = SqliteResultCache(store)
        key = config_key(_tiny_spec(), extra=key_extra_for(None))
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, None, {"average_latency": 3.0})
        assert key in cache
        assert cache.get(key) == {"average_latency": 3.0}
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_result_cache_survives_reopen(self, tmp_path):
        path = str(tmp_path / "db.sqlite3")
        store = SqliteStore(path)
        SqliteResultCache(store).put("k", None, {"average_latency": 1.0})
        store.close()
        reopened = SqliteStore(path)
        assert SqliteResultCache(reopened).get("k") == {"average_latency": 1.0}
        reopened.close()

    def test_design_cache_round_trips_designs(self, store):
        spec = _tiny_design_spec()
        cache = SqliteDesignCache(store)
        design = design_for(spec, cache=cache)
        assert store.design_count() == 1
        # A fresh adapter over the same database must rebuild the design.
        rebuilt_cache = SqliteDesignCache(store)
        rebuilt = rebuilt_cache.get(design_key_for(spec))
        assert rebuilt is not None
        key = design_key_for(spec)
        assert design_to_record(key, rebuilt) == design_to_record(key, design)

    def test_same_keys_as_json_backend(self, tmp_path, store):
        # The two backends must agree on identity: an entry written through
        # the JSON cache and migrated hits under the same key in SQLite.
        spec = _tiny_spec()
        key = config_key(spec, extra=key_extra_for(None))
        json_cache = ResultCache(str(tmp_path / "json"))
        json_cache.put(key, None, {"average_latency": 9.0})
        migrate_json_cache(str(tmp_path / "json"), store)
        assert SqliteResultCache(store).get(key) == {"average_latency": 9.0}

    def test_open_caches_without_directory(self):
        result_cache, design_cache = open_caches(None)
        assert isinstance(result_cache, ResultCache)
        assert design_cache is None


# ---------------------------------------------------------------------- #
# JSON -> SQLite migration
# ---------------------------------------------------------------------- #
class TestMigration:
    def test_migrates_results_and_designs(self, tmp_path, store):
        cache_dir = str(tmp_path / "json")
        json_results = ResultCache(cache_dir)
        json_results.put("aaa", {"policy": "cda"}, {"average_latency": 1.0})
        json_results.put("bbb", None, {"average_latency": float("inf")})
        spec = _tiny_design_spec()
        json_designs = DiskDesignCache(cache_dir)
        design_for(spec, cache=json_designs)

        counts = migrate_json_cache(cache_dir, store)
        assert counts == {"results": 2, "designs": 1, "skipped": 0}
        assert store.get_result("bbb") == {"average_latency": float("inf")}
        assert SqliteDesignCache(store).get(design_key_for(spec)) is not None

    def test_migration_is_idempotent(self, tmp_path, store):
        cache_dir = str(tmp_path / "json")
        ResultCache(cache_dir).put("k", None, {"average_latency": 2.0})
        assert migrate_json_cache(cache_dir, store)["results"] == 1
        again = migrate_json_cache(cache_dir, store)
        assert again == {"results": 0, "designs": 0, "skipped": 0}

    def test_skips_unreadable_and_foreign_records(self, tmp_path, store):
        cache_dir = tmp_path / "json"
        cache_dir.mkdir()
        (cache_dir / "result-bad.json").write_text("{not json")
        (cache_dir / "result-odd.json").write_text(json.dumps({"summary": 3}))
        (cache_dir / "design-old.json").write_text(json.dumps({"format": 1}))
        counts = migrate_json_cache(str(cache_dir), store)
        assert counts["results"] == 0 and counts["designs"] == 0
        # format-1 designs and non-dict summaries are counted as skipped;
        # unparseable files are silently ignored like the JSON readers do.
        assert counts["skipped"] == 2

    def test_missing_directory_is_empty_migration(self, tmp_path, store):
        counts = migrate_json_cache(str(tmp_path / "nope"), store)
        assert counts == {"results": 0, "designs": 0, "skipped": 0}


# ---------------------------------------------------------------------- #
# Multi-process stress
# ---------------------------------------------------------------------- #
def _hammer(args):
    """Write (and read back) a block of result rows from one process."""
    path, worker, count = args
    store = SqliteStore(path)
    try:
        for i in range(count):
            key = f"w{worker}-k{i}"
            store.put_result(key, None, {"average_latency": float(i)})
            shared = f"shared-{i % 10}"
            store.put_result(shared, None, {"average_latency": float(i % 10)})
            assert store.get_result(key) == {"average_latency": float(i)}
        return store.result_count()
    finally:
        store.close()


class TestMultiProcessStress:
    def test_concurrent_writers_from_processes(self, tmp_path):
        """Several processes write the same database; nothing is lost.

        This is exactly the scenario the JSON backend does not guarantee
        (concurrent writers racing a directory); the SQLite store must
        survive it with every row intact.
        """
        path = str(tmp_path / "stress.sqlite3")
        SqliteStore(path).close()  # migrate once up front
        workers, per_worker = 4, 25
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_hammer, [(path, w, per_worker) for w in range(workers)]))
        store = SqliteStore(path)
        try:
            # workers * per_worker unique keys + 10 shared (overwritten) keys
            assert store.result_count() == workers * per_worker + 10
            for w in range(workers):
                for i in range(per_worker):
                    expected = {"average_latency": float(i)}
                    assert store.get_result(f"w{w}-k{i}") == expected
        finally:
            store.close()

    def test_concurrent_first_open_migrates_once(self, tmp_path):
        """Racing first-openers must not corrupt the migration."""
        path = str(tmp_path / "race.sqlite3")
        with ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(_hammer, [(path, w, 5) for w in range(4)]))
        conn = sqlite3.connect(path)
        try:
            assert conn.execute("PRAGMA user_version").fetchone()[0] == SCHEMA_VERSION
        finally:
            conn.close()

    def test_first_open_waits_out_a_held_write_lock(self, tmp_path):
        """The switch into WAL waits for another writer instead of failing.

        SQLite skips the busy handler when that switch upgrades its read
        lock, so without a retry a first-opener racing another one fails
        at once with ``database is locked``.
        """
        path = str(tmp_path / "held.sqlite3")
        writer = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False
        )
        writer.execute("CREATE TABLE other(x)")  # a rollback-journal file
        writer.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.3, writer.rollback)
        release.start()
        try:
            store = SqliteStore(path)
            try:
                assert store.query("PRAGMA journal_mode")[0][0] == "wal"
                assert store.query("PRAGMA user_version")[0][0] == SCHEMA_VERSION
            finally:
                store.close()
        finally:
            release.join()
            writer.close()
