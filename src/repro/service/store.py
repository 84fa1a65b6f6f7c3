"""SQLite-backed result/design store (the service's durable backbone).

One database file holds everything the experiment service persists: the
summary-row result cache, the AdEle offline-design cache, and the durable
job queue (tables owned by :mod:`repro.service.queue` but migrated here so
there is a single schema authority).  Compared with the JSON-per-key caches
of :mod:`repro.exec.cache` it adds what a long-running, many-client service
needs:

* **Concurrent safety** -- WAL journal mode plus a generous busy timeout
  make simultaneous readers/writers from many threads *and* processes safe;
  the JSON caches only guarantee atomic single-entry replacement (two
  processes may duplicate work; a reader listing the directory races
  writers).
* **Identical keys** -- rows are indexed by the exact canonical hashes the
  JSON caches use (:func:`repro.exec.cache.config_key` for results,
  :func:`repro.exec.cache.design_key_hash` for designs), so warm JSON
  entries migrate losslessly via :func:`migrate_json_cache` (``repro cache
  migrate``, the one bridge from a CLI cache directory to this store).
* **Schema migrations** -- ``PRAGMA user_version`` tracks the schema; new
  versions append to :data:`MIGRATIONS` and existing databases upgrade in
  one transaction on open.

:class:`SqliteResultCache` and :class:`SqliteDesignCache` implement the same
interfaces as :class:`~repro.exec.cache.ResultCache` and
:class:`~repro.exec.cache.DiskDesignCache`, so the daemon's workers run
the same :class:`~repro.exec.batch.ExperimentBatch` code path as the CLI,
whose entry points open the JSON layout
(:func:`repro.exec.cache.open_caches`).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.runner import DesignCache, DesignKey
from repro.core.pipeline import AdEleDesign
from repro.obs.tracing import span
from repro.exec.cache import (
    design_from_record,
    design_key_hash,
    design_to_record,
    iter_json_cache_entries,
)

#: File name of the service database inside a ``--cache-dir``.
DEFAULT_DB_FILENAME = "repro.sqlite3"

#: Ordered schema migrations; ``PRAGMA user_version`` records how many have
#: been applied.  Append-only -- never edit an entry that shipped.
MIGRATIONS: Tuple[Tuple[str, ...], ...] = (
    # v1: result + design caches.
    (
        """
        CREATE TABLE results (
            key        TEXT PRIMARY KEY,
            config     TEXT,
            summary    TEXT NOT NULL,
            created_at REAL NOT NULL DEFAULT (strftime('%s','now'))
        )
        """,
        """
        CREATE TABLE designs (
            key_hash   TEXT PRIMARY KEY,
            record     TEXT NOT NULL,
            created_at REAL NOT NULL DEFAULT (strftime('%s','now'))
        )
        """,
    ),
    # v2: durable job queue (jobs + per-task completion records).
    (
        """
        CREATE TABLE jobs (
            id          INTEGER PRIMARY KEY AUTOINCREMENT,
            job_hash    TEXT NOT NULL UNIQUE,
            state       TEXT NOT NULL DEFAULT 'queued',
            base_seed   INTEGER,
            num_tasks   INTEGER NOT NULL,
            error       TEXT,
            created_at  REAL NOT NULL DEFAULT (strftime('%s','now')),
            finished_at REAL
        )
        """,
        """
        CREATE TABLE tasks (
            job_id     INTEGER NOT NULL REFERENCES jobs(id),
            idx        INTEGER NOT NULL,
            key        TEXT NOT NULL,
            spec       TEXT NOT NULL,
            state      TEXT NOT NULL DEFAULT 'queued',
            attempts   INTEGER NOT NULL DEFAULT 0,
            worker     TEXT,
            claimed_at REAL,
            error      TEXT,
            PRIMARY KEY (job_id, idx)
        )
        """,
        "CREATE INDEX tasks_by_state ON tasks(state)",
        "CREATE INDEX tasks_by_key ON tasks(key)",
    ),
)

SCHEMA_VERSION = len(MIGRATIONS)

#: Seconds a connection waits on another process's lock before failing.
BUSY_TIMEOUT_S = 30.0


def _dumps(value: Any) -> str:
    """Canonical JSON text (sorted keys; ``Infinity`` allowed -- saturated
    runs carry infinite latencies and must round-trip like the JSON caches)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class SqliteStore:
    """One SQLite database shared by caches, queue and HTTP layer.

    Connections are per-thread (SQLite objects must not hop threads) and
    lazily opened; WAL mode means readers never block the writer and vice
    versa, and ``busy_timeout`` turns inter-process write contention into
    short waits instead of ``database is locked`` errors.

    Args:
        path: Database file path; parent directories are created.  The
            special name ``":memory:"`` is rejected -- a memory database is
            per-connection and this store is explicitly shared.
    """

    def __init__(self, path: str) -> None:
        if path == ":memory:":
            raise ValueError("SqliteStore needs a file path (shared across "
                             "threads/processes); ':memory:' is per-connection")
        self.path = os.path.abspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._local = threading.local()
        # Open (and migrate) eagerly so schema errors surface at
        # construction, not at first use on some worker thread.
        self._connect()

    # ------------------------------------------------------------------ #
    def _connect(self) -> sqlite3.Connection:
        conn: Optional[sqlite3.Connection] = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S)
        conn.row_factory = sqlite3.Row
        self._enable_wal(conn)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
        conn.execute("PRAGMA foreign_keys=ON")
        self._local.conn = conn
        self._migrate(conn)
        return conn

    @staticmethod
    def _enable_wal(conn: sqlite3.Connection) -> None:
        # Switching a new file into WAL upgrades a read lock to an exclusive
        # one, and SQLite skips the busy handler on that upgrade, so racing
        # first-openers get an immediate "database is locked".  Retry within
        # the busy-timeout budget instead.
        deadline = time.monotonic() + BUSY_TIMEOUT_S
        delay = 0.001
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
            time.sleep(delay)
            delay = min(2 * delay, 0.05)

    def _migrate(self, conn: sqlite3.Connection) -> None:
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version >= SCHEMA_VERSION:
            return
        # BEGIN IMMEDIATE serializes concurrent first-openers; re-read the
        # version inside the transaction in case another process migrated
        # while this one waited for the lock.
        conn.execute("BEGIN IMMEDIATE")
        try:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            for index in range(version, SCHEMA_VERSION):
                for statement in MIGRATIONS[index]:
                    conn.execute(statement)
            conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
            conn.commit()
        except BaseException:
            conn.rollback()
            raise

    def connection(self) -> sqlite3.Connection:
        """This thread's connection (opened and migrated on first use)."""
        return self._connect()

    def execute(self, sql: str, params: Tuple = ()) -> sqlite3.Cursor:
        """Run one autocommitted statement on this thread's connection."""
        conn = self._connect()
        cursor = conn.execute(sql, params)
        conn.commit()
        return cursor

    def query(self, sql: str, params: Tuple = ()) -> List[sqlite3.Row]:
        """Run a read-only statement and fetch every row."""
        return self._connect().execute(sql, params).fetchall()

    def transaction(self) -> "_Transaction":
        """An ``IMMEDIATE`` write transaction context manager."""
        return _Transaction(self._connect())

    def close(self) -> None:
        """Close this thread's connection (other threads' stay open)."""
        conn: Optional[sqlite3.Connection] = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    # ------------------------------------------------------------------ #
    # Result rows
    # ------------------------------------------------------------------ #
    def get_result(self, key: str) -> Optional[Dict[str, float]]:
        rows = self.query("SELECT summary FROM results WHERE key=?", (key,))
        if not rows:
            return None
        return json.loads(rows[0]["summary"])

    def put_result(
        self,
        key: str,
        config_data: Optional[Dict[str, Any]],
        summary: Dict[str, float],
    ) -> None:
        # Entries are deterministic functions of their key, so last-write-
        # wins replacement is harmless (same contract as the JSON backend).
        self.execute(
            "INSERT OR REPLACE INTO results(key, config, summary) VALUES(?,?,?)",
            (key, None if config_data is None else _dumps(config_data),
             _dumps(summary)),
        )

    def result_count(self) -> int:
        return self.query("SELECT COUNT(*) AS n FROM results")[0]["n"]

    def clear_results(self) -> None:
        self.execute("DELETE FROM results")

    # ------------------------------------------------------------------ #
    # Design records
    # ------------------------------------------------------------------ #
    def get_design_record(self, key_hash: str) -> Optional[Dict[str, Any]]:
        rows = self.query(
            "SELECT record FROM designs WHERE key_hash=?", (key_hash,)
        )
        if not rows:
            return None
        return json.loads(rows[0]["record"])

    def put_design_record(self, key_hash: str, record: Dict[str, Any]) -> None:
        self.execute(
            "INSERT OR REPLACE INTO designs(key_hash, record) VALUES(?,?)",
            (key_hash, _dumps(record)),
        )

    def design_count(self) -> int:
        return self.query("SELECT COUNT(*) AS n FROM designs")[0]["n"]

    def clear_designs(self) -> None:
        self.execute("DELETE FROM designs")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def table_counts(self) -> Dict[str, int]:
        """Row counts of every schema table."""
        return {
            table: self.query(f"SELECT COUNT(*) AS n FROM {table}")[0]["n"]
            for table in ("results", "designs", "jobs", "tasks")
        }

    def stats(self) -> Dict[str, Any]:
        """Table row counts and on-disk bytes (WAL/SHM sidecars included).

        The ``cache`` block of ``GET /api/health`` and the ``store`` block
        of ``repro cache stats``.
        """
        stats: Dict[str, Any] = {
            "backend": "sqlite",
            "tables": self.table_counts(),
            "bytes": 0,
        }
        for suffix in ("", "-wal", "-shm"):
            try:
                stats["bytes"] += os.path.getsize(self.path + suffix)
            except OSError:
                pass
        return stats


class _Transaction:
    """``with store.transaction() as conn:`` -- IMMEDIATE begin, commit on
    success, rollback on error.  IMMEDIATE takes the write lock up front so
    read-then-write sequences (queue claims) are atomic across processes."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._conn.commit()
        else:
            self._conn.rollback()


# ---------------------------------------------------------------------- #
# Cache adapters (drop-in for the JSON backends)
# ---------------------------------------------------------------------- #
class SqliteResultCache:
    """:class:`~repro.exec.cache.ResultCache` interface over a SqliteStore.

    Keys are the same canonical config hashes; a small per-instance memory
    layer keeps warm re-reads free, exactly like the JSON backend.
    """

    def __init__(self, store: SqliteStore) -> None:
        self.store = store
        self._memory: Dict[str, Dict[str, float]] = {}

    def get(self, key: str) -> Optional[Dict[str, float]]:
        """The cached summary row for a config hash, or ``None``."""
        with span("cache.get", backend="sqlite", key=key[:12]) as record_span:
            if key in self._memory:
                if record_span is not None:
                    record_span.args["hit"] = True
                return dict(self._memory[key])
            summary = self.store.get_result(key)
            if summary is not None:
                self._memory[key] = dict(summary)
            if record_span is not None:
                record_span.args["hit"] = summary is not None
            return summary

    def put(
        self,
        key: str,
        config_data: Optional[Dict[str, Any]],
        summary: Dict[str, float],
    ) -> None:
        """Store a summary row (with its canonical config, for debugging)."""
        with span("cache.put", backend="sqlite", key=key[:12]):
            self._memory[key] = dict(summary)
            self.store.put_result(key, config_data, summary)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.store.result_count()

    def clear(self) -> None:
        """Drop every entry (memory and database)."""
        self._memory.clear()
        self.store.clear_results()


class SqliteDesignCache(DesignCache):
    """:class:`~repro.analysis.runner.DesignCache` over a SqliteStore.

    Records use the exact JSON document format of
    :class:`~repro.exec.cache.DiskDesignCache` (format 2), keyed by the same
    :func:`~repro.exec.cache.design_key_hash`.
    """

    def __init__(self, store: SqliteStore) -> None:
        super().__init__()
        self.store = store

    def get(self, key: DesignKey) -> Optional[AdEleDesign]:
        design = super().get(key)
        if design is not None:
            return design
        record = self.store.get_design_record(design_key_hash(key))
        if not isinstance(record, dict) or record.get("format") != 2:
            return None
        design = design_from_record(record)
        super().put(key, design)
        return design

    def put(self, key: DesignKey, design: AdEleDesign) -> None:
        super().put(key, design)
        self.store.put_design_record(
            design_key_hash(key), design_to_record(key, design)
        )

    def clear(self) -> None:
        super().clear()
        self.store.clear_designs()


# ---------------------------------------------------------------------- #
# JSON -> SQLite migration
# ---------------------------------------------------------------------- #
def migrate_json_cache(cache_dir: str, store: SqliteStore) -> Dict[str, int]:
    """Carry a warm JSON cache directory into a SQLite store.

    Every ``result-<key>.json`` and ``design-<hash>.json`` entry is inserted
    under its *unchanged* key/hash, so anything that hit the JSON cache hits
    the SQLite cache afterwards.  Unreadable files are skipped (same
    tolerance as the JSON readers); existing SQLite rows with the same key
    are left alone -- both layouts store deterministic functions of the
    key, so neither copy can be stale.

    Returns:
        ``{"results": n, "designs": n, "skipped": n}`` migration counts.
    """
    migrated = {"results": 0, "designs": 0, "skipped": 0}
    for key, record in iter_json_cache_entries(cache_dir, "result-"):
        summary = record.get("summary")
        if not isinstance(summary, dict):
            migrated["skipped"] += 1
            continue
        if store.get_result(key) is None:
            store.put_result(key, record.get("config"), summary)
            migrated["results"] += 1
    for key_hash, record in iter_json_cache_entries(cache_dir, "design-"):
        if record.get("format") != 2:
            migrated["skipped"] += 1
            continue
        if store.get_design_record(key_hash) is None:
            store.put_design_record(key_hash, record)
            migrated["designs"] += 1
    return migrated


__all__ = [
    "DEFAULT_DB_FILENAME",
    "SCHEMA_VERSION",
    "SqliteStore",
    "SqliteResultCache",
    "SqliteDesignCache",
    "migrate_json_cache",
]
