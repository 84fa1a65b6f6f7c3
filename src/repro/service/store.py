"""SQLite-backed result/design store: the one durable cache layout.

One database file (``repro.sqlite3`` in a ``--cache-dir``) holds everything
the repository persists: the summary-row result cache, the AdEle
offline-design cache, and the durable job queue (tables owned by
:mod:`repro.service.queue` but migrated here so there is a single schema
authority).  The CLI, :mod:`repro.api` and the paper benches open it through
:func:`repro.exec.cache.open_caches`; the ``repro serve`` daemon runs on the
same file, so a CLI sweep's rows are served by a daemon on the same
directory.

* **Concurrent safety** -- WAL journal mode plus a generous busy timeout
  make simultaneous readers/writers from many threads *and* processes safe.
  WAL needs shared memory between those processes, so the directory must be
  on a local filesystem.
* **Canonical keys** -- result rows are indexed by
  :func:`repro.exec.cache.config_key`, design records by
  :func:`repro.exec.cache.design_key_hash`.
* **Schema migrations** -- ``PRAGMA user_version`` tracks the schema; new
  versions append to :data:`MIGRATIONS` and existing databases upgrade in
  one transaction on open.

:class:`SqliteResultCache` has the interface of
:class:`~repro.exec.cache.ResultCache` and :class:`SqliteDesignCache` that
of :class:`~repro.analysis.runner.DesignCache`, so every entry point runs
the same :class:`~repro.exec.batch.ExperimentBatch` code path.
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
from repro.exec.cache import design_from_record, design_key_hash, design_to_record

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
    runs carry infinite latencies and must round-trip)."""
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
        # wins replacement is harmless.
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

        The ``cache`` block of ``GET /api/health``.
        """
        return {
            "backend": "sqlite",
            "tables": self.table_counts(),
            "bytes": database_bytes(self.path),
        }


def database_bytes(path: str) -> int:
    """Bytes on disk of a database file plus its WAL/SHM sidecars."""
    total = 0
    for suffix in ("", "-wal", "-shm"):
        try:
            total += os.path.getsize(path + suffix)
        except OSError:
            pass
    return total


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
# Cache adapters
# ---------------------------------------------------------------------- #
class SqliteResultCache:
    """:class:`~repro.exec.cache.ResultCache` interface over a SqliteStore.

    Every read goes to the store, so rows another process wrote (a daemon,
    a concurrent sweep) are visible at once.
    """

    def __init__(self, store: SqliteStore) -> None:
        self.store = store

    def get(self, key: str) -> Optional[Dict[str, float]]:
        """The cached summary row for a config hash, or ``None``."""
        with span("cache.get", backend="sqlite", key=key[:12]) as record_span:
            summary = self.store.get_result(key)
            if record_span is not None:
                record_span.args["hit"] = summary is not None
            return summary

    def put(
        self,
        key: str,
        config_data: Optional[Dict[str, Any]],
        summary: Dict[str, float],
    ) -> None:
        """Store a summary row with its canonical config."""
        with span("cache.put", backend="sqlite", key=key[:12]):
            self.store.put_result(key, config_data, summary)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.store.result_count()

    def clear(self) -> None:
        """Drop every result row."""
        self.store.clear_results()


class SqliteDesignCache(DesignCache):
    """:class:`~repro.analysis.runner.DesignCache` over a SqliteStore.

    Records are :func:`~repro.exec.cache.design_to_record` documents
    (format 2) keyed by :func:`~repro.exec.cache.design_key_hash`; a design
    read once stays in the in-memory layer of the base class.
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


__all__ = [
    "DEFAULT_DB_FILENAME",
    "SCHEMA_VERSION",
    "SqliteStore",
    "SqliteResultCache",
    "SqliteDesignCache",
    "database_bytes",
]
