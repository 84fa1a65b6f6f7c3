"""Tests for the SQLite store every cache directory opens, and its adapters.

Covers the schema-migration machinery, the result and design cache
adapters (including the ``Infinity`` round-trip saturated runs need) and a
multi-process stress test hammering one database from several writers:
the store serializes concurrent writers via WAL + busy timeout, so no row
is lost.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis.runner import design_for, design_key_for
from repro.exec.batch import key_extra_for
from repro.exec.cache import (
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
        # corrupt them.
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
# Cache adapters
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

    def test_open_caches_without_directory(self):
        result_cache, design_cache = open_caches(None)
        assert isinstance(result_cache, ResultCache)
        assert design_cache is None

    def test_open_caches_opens_the_directory_store(self, tmp_path):
        result_cache, design_cache = open_caches(str(tmp_path / "cache"))
        assert isinstance(result_cache, SqliteResultCache)
        assert isinstance(design_cache, SqliteDesignCache)
        assert result_cache.store is design_cache.store
        assert result_cache.store.path == str(tmp_path / "cache" / DEFAULT_DB_FILENAME)
        result_cache.store.close()


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
        """Several processes write the same database; nothing is lost."""
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
