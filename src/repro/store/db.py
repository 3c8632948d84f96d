"""SQLite index of the campaign store.

Three concerns, three groups of tables:

* ``outcomes`` — the append-only per-fault outcome log, keyed by the
  fault's content address (:mod:`~repro.store.fingerprint`).  Rows are
  immutable: the fingerprint covers everything that determines the
  record, so two writers producing the same key necessarily produced
  the same payload and ``INSERT OR IGNORE`` makes concurrent campaigns
  trivially safe.
* ``runs`` / ``run_faults`` — one row per recorded campaign plus its
  ordered fault membership, enabling cross-run queries and
  ``store diff``.  A run begins in status ``running`` and is flipped to
  ``done`` at the end; a SIGKILLed campaign leaves the marker behind
  (visible in ``store stats``) while all its completed outcomes stay
  reusable.
* ``golden`` — maps a content key (the operational profile, or a
  golden trace written by an older version) to its blob digest.  A run
  references the blob it used in ``runs.profile_blob`` (older runs
  also in ``runs.golden_blob``), which keeps it alive through ``gc``.
* ``jobs`` — the durable campaign job queue (:mod:`repro.service`):
  one row per submitted campaign with lease bookkeeping
  (owner/deadline), a retry budget, and the terminal ``done`` /
  ``dead`` / ``cancelled`` states.  Living in the same index as the
  evidence it produces means a single fsck/gc pass sees both sides.

The connection runs in WAL mode with a generous busy timeout so two
campaign runners sharing one store serialize on short write
transactions instead of erroring.  On top of the SQLite-level busy
timeout every write transaction retries with bounded exponential
backoff; only after the full budget does it surface a coded
:class:`StoreBusyError` (``E409``) instead of the raw
``sqlite3.OperationalError``.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from ..chaos.failpoints import fail_at
from ..diagnostics.core import DiagnosticReport
from ..diagnostics.core import DiagnosticError as _DiagnosticError
from .errors import StoreIOError, raise_for_io, raise_for_sqlite

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS outcomes(
    fault_fp    TEXT PRIMARY KEY,
    fault_name  TEXT NOT NULL,
    zone        TEXT,
    kind        TEXT,
    sens_cycle  INTEGER,
    obse_cycle  INTEGER,
    diag_cycle  INTEGER,
    first_alarm TEXT,
    effects     TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs(
    run_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at    REAL NOT NULL,
    status        TEXT NOT NULL,
    design        TEXT NOT NULL,
    env_fp        TEXT NOT NULL,
    workers       INTEGER NOT NULL DEFAULT 1,
    faults        INTEGER NOT NULL DEFAULT 0,
    hits          INTEGER NOT NULL DEFAULT 0,
    misses        INTEGER NOT NULL DEFAULT 0,
    window        INTEGER NOT NULL DEFAULT 12,
    test_windows  TEXT NOT NULL DEFAULT '[]',
    measured_dc   REAL,
    safe_fraction REAL,
    outcome_counts TEXT,
    wall_seconds  REAL,
    golden_blob   TEXT,
    profile_blob  TEXT
);
CREATE TABLE IF NOT EXISTS run_faults(
    run_id     INTEGER NOT NULL,
    seq        INTEGER NOT NULL,
    fault_fp   TEXT NOT NULL,
    fault_name TEXT NOT NULL,
    zone       TEXT,
    outcome    TEXT NOT NULL,
    PRIMARY KEY(run_id, seq)
);
CREATE TABLE IF NOT EXISTS golden(
    key        TEXT PRIMARY KEY,
    digest     TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS anomalies(
    fault_fp     TEXT PRIMARY KEY,
    fault_name   TEXT NOT NULL,
    zone         TEXT,
    kind         TEXT NOT NULL,
    worker       INTEGER,
    traceback    TEXT,
    wall_seconds REAL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    run_id       INTEGER,
    created_at   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS shard_attempts(
    run_id       INTEGER NOT NULL,
    seq          INTEGER NOT NULL,
    shard        TEXT NOT NULL,
    attempt      INTEGER NOT NULL,
    status       TEXT NOT NULL,
    faults       INTEGER NOT NULL,
    worker       INTEGER,
    wall_seconds REAL,
    detail       TEXT,
    created_at   REAL NOT NULL,
    PRIMARY KEY(run_id, seq)
);
CREATE TABLE IF NOT EXISTS jobs(
    job_id          INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at      REAL NOT NULL,
    updated_at      REAL NOT NULL,
    project         TEXT NOT NULL DEFAULT 'default',
    status          TEXT NOT NULL DEFAULT 'queued',
    spec            TEXT NOT NULL,
    attempts        INTEGER NOT NULL DEFAULT 0,
    max_attempts    INTEGER NOT NULL DEFAULT 3,
    not_before      REAL NOT NULL DEFAULT 0.0,
    lease_owner     TEXT,
    lease_deadline  REAL,
    run_id          INTEGER,
    result          TEXT,
    error           TEXT,
    idempotency_key TEXT,
    progress        TEXT
);
CREATE INDEX IF NOT EXISTS idx_run_faults_fp
    ON run_faults(fault_fp);
CREATE INDEX IF NOT EXISTS idx_runs_env ON runs(env_fp);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status);
CREATE UNIQUE INDEX IF NOT EXISTS idx_jobs_idem
    ON jobs(project, idempotency_key)
    WHERE idempotency_key IS NOT NULL
      AND status != 'cancelled';
"""

#: columns added to a table after it first shipped; opening an old
#: store upgrades it in place — ``CREATE TABLE IF NOT EXISTS`` alone
#: would silently leave the schema behind
_MIGRATIONS = {
    "jobs": (("idempotency_key", "TEXT"), ("progress", "TEXT")),
    "runs": (("profile_blob", "TEXT"),),
}

#: the ``runs`` columns that reference a blob
RUN_BLOB_COLUMNS = ("golden_blob", "profile_blob")

#: job states a queue worker may still act on — everything that is
#: not terminally ``done`` / ``dead`` / ``cancelled``
ACTIVE_JOB_STATES = ("queued", "leased", "running")

#: write-transaction retry budget for ``database is locked`` — the
#: SQLite-level busy timeout already absorbs short contention, so a
#: handful of exponentially spaced retries covers pathological bursts
BUSY_RETRIES = 5
BUSY_BACKOFF_BASE = 0.05


class StoreBusyError(_DiagnosticError):
    """The store's write lock stayed contended past the retry budget
    (``E409``) — a sibling campaign or daemon is monopolizing it."""


def _is_busy(err: sqlite3.OperationalError) -> bool:
    text = str(err).lower()
    return "locked" in text or "busy" in text


@dataclass
class OutcomeRow:
    """One cached raw fault record, as stored."""

    fault_fp: str
    fault_name: str
    zone: str | None
    kind: str | None
    sens_cycle: int | None
    obse_cycle: int | None
    diag_cycle: int | None
    first_alarm: str | None
    effects: dict[str, int]


@dataclass
class AnomalyRow:
    """One quarantined poison fault, as stored.

    Keyed by the fault's content address so a resumed campaign over
    the same environment recognises the poison fault up front and
    never re-executes it.
    """

    fault_fp: str
    fault_name: str
    zone: str | None
    kind: str                    # crash | hang | exception
    worker: int | None = None
    traceback: str | None = None
    wall_seconds: float | None = None
    attempts: int = 0
    run_id: int | None = None


class StoreDB:
    """Thin, explicit wrapper over the store's SQLite database."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        # switching a fresh file to WAL needs the exclusive lock, and
        # SQLite fails it at once, without waiting, while a sibling
        # opener holds the reserved lock: so it takes the busy retry
        # like every other write (outside the failpoints, which count
        # the index's write transactions)
        self._retry_busy(self._open_schema)

    def _open_schema(self) -> None:
        self._conn.execute("PRAGMA journal_mode=WAL")
        with self._conn:
            self._migrate()
            self._conn.executescript(_SCHEMA)

    def _migrate(self) -> None:
        """Upgrade pre-existing tables in place.

        Runs before ``_SCHEMA`` so the partial unique index on
        ``jobs.idempotency_key`` finds its column even on stores
        created by older releases.
        """
        for table, columns in _MIGRATIONS.items():
            exists = self._conn.execute(
                "SELECT 1 FROM sqlite_master"
                " WHERE type='table' AND name=?", (table,)).fetchone()
            if not exists:
                continue
            have = {row[1] for row in self._conn.execute(
                f"PRAGMA table_info({table})")}
            for column, decl in columns:
                if column not in have:
                    self._conn.execute(
                        f"ALTER TABLE {table} ADD COLUMN {column} {decl}")

    def close(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------------
    # write-lock contention policy
    # ------------------------------------------------------------------
    def _write(self, txn):
        """Run a write transaction, retrying lock contention.

        ``database is locked`` is retried ``BUSY_RETRIES`` times with
        exponential backoff on top of SQLite's own busy timeout; the
        final failure surfaces as a coded :class:`StoreBusyError`
        (``E409``) so no raw ``OperationalError`` reaches the CLI.
        Disk-level failures (full disk, i/o error) surface as coded
        :class:`StoreIOError` (``E413``/``E414``) the same way.

        The ``store.db.pre/post-commit`` failpoints bracket every
        write transaction of the index, so the chaos harness can
        crash a campaign between any two committed shards.
        """
        def bracketed():
            fail_at("store.db.pre-commit")
            result = txn()
            fail_at("store.db.post-commit")
            return result
        return self._retry_busy(bracketed)

    def _retry_busy(self, txn):
        """``txn()`` under the busy retry and the coded errors of
        :meth:`_write`, without its failpoints."""
        delay = BUSY_BACKOFF_BASE
        for attempt in range(1, BUSY_RETRIES + 1):
            try:
                return txn()
            except OSError as err:
                raise_for_io(err, str(self.path))   # E413/E414 coded
            except sqlite3.OperationalError as err:
                if not _is_busy(err):
                    raise_for_sqlite(err, str(self.path))
                if attempt == BUSY_RETRIES:
                    report = DiagnosticReport()
                    report.error(
                        "E409",
                        f"store index stayed locked through "
                        f"{BUSY_RETRIES} write attempts: {err}",
                        file=str(self.path))
                    raise StoreBusyError(report) from err
                time.sleep(delay)
                delay *= 2

    @contextmanager
    def immediate(self):
        """A ``BEGIN IMMEDIATE`` transaction: the write lock is taken
        up front (with the bounded busy retry), so read-then-update
        sequences inside the block are atomic against sibling
        processes — the primitive under the job queue's claim."""
        self._write(lambda: self._conn.execute("BEGIN IMMEDIATE"))
        try:
            yield self._conn
        except BaseException as err:
            self._conn.rollback()
            if isinstance(err, OSError):
                raise_for_io(err, str(self.path))   # E413/E414 coded
            raise
        else:
            try:
                self._conn.commit()
            except sqlite3.OperationalError as err:
                self._conn.rollback()
                if _is_busy(err):
                    raise
                raise_for_sqlite(err, str(self.path))

    # ------------------------------------------------------------------
    # outcome log
    # ------------------------------------------------------------------
    def put_outcomes(self, rows: list[OutcomeRow]) -> int:
        """Append outcome records; duplicates are ignored (idempotent)."""
        now = time.time()

        def txn():
            with self._conn:
                return self._conn.executemany(
                    "INSERT OR IGNORE INTO outcomes VALUES "
                    "(?,?,?,?,?,?,?,?,?,?)",
                    [(r.fault_fp, r.fault_name, r.zone, r.kind,
                      r.sens_cycle, r.obse_cycle, r.diag_cycle,
                      r.first_alarm, json.dumps(r.effects), now)
                     for r in rows])
        return self._write(txn).rowcount

    def get_outcomes(self, fps: list[str]) -> dict[str, OutcomeRow]:
        """Fetch cached records; unparsable rows are silently skipped
        (the caller re-simulates them — corruption must never crash a
        campaign)."""
        out: dict[str, OutcomeRow] = {}
        fps = list(fps)
        for lo in range(0, len(fps), 500):
            chunk = fps[lo:lo + 500]
            marks = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT fault_fp, fault_name, zone, kind, sens_cycle,"
                f" obse_cycle, diag_cycle, first_alarm, effects"
                f" FROM outcomes WHERE fault_fp IN ({marks})",
                chunk).fetchall()
            for row in rows:
                try:
                    effects = json.loads(row[8])
                    if not isinstance(effects, dict):
                        raise ValueError("effects is not a table")
                    effects = {str(k): int(v)
                               for k, v in effects.items()}
                except (ValueError, TypeError):
                    continue
                out[row[0]] = OutcomeRow(*row[:8], effects)
        return out

    def outcome_count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM outcomes").fetchone()[0]

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------
    def begin_run(self, design: str, env_fp: str, faults: int,
                  workers: int, window: int,
                  test_windows, profile_blob: str | None = None) -> int:
        def txn():
            with self._conn:
                return self._conn.execute(
                    "INSERT INTO runs (created_at, status, design,"
                    " env_fp, workers, faults, window, test_windows,"
                    " profile_blob) VALUES (?,?,?,?,?,?,?,?,?)",
                    (time.time(), "running", design, env_fp, workers,
                     faults, window,
                     json.dumps([list(w) for w in test_windows]),
                     profile_blob))
        return self._write(txn).lastrowid

    def finish_run(self, run_id: int, hits: int, misses: int,
                   measured_dc: float, safe_fraction: float,
                   outcome_counts: dict[str, int],
                   wall_seconds: float,
                   membership: list[tuple[str, str, str | None, str]]
                   ) -> None:
        """Mark a run done and record its ordered fault membership.

        ``membership`` rows are ``(fault_fp, fault_name, zone,
        outcome_class)`` in campaign order.
        """
        def txn():
            with self._conn:
                self._conn.execute(
                    "UPDATE runs SET status='done', hits=?, misses=?,"
                    " measured_dc=?, safe_fraction=?,"
                    " outcome_counts=?, wall_seconds=?"
                    " WHERE run_id=?",
                    (hits, misses, measured_dc, safe_fraction,
                     json.dumps(outcome_counts), wall_seconds,
                     run_id))
                self._conn.executemany(
                    "INSERT OR REPLACE INTO run_faults VALUES "
                    "(?,?,?,?,?,?)",
                    [(run_id, seq, fp, name, zone, outcome)
                     for seq, (fp, name, zone, outcome)
                     in enumerate(membership)])
        self._write(txn)

    def runs(self, limit: int | None = None,
             design: str | None = None,
             status: str | None = None) -> list[dict]:
        query = "SELECT * FROM runs"
        clauses, params = [], []
        if design is not None:
            clauses.append("design=?")
            params.append(design)
        if status is not None:
            clauses.append("status=?")
            params.append(status)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY run_id DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(limit)
        cursor = self._conn.execute(query, params)
        columns = [d[0] for d in cursor.description]
        return [dict(zip(columns, row)) for row in cursor.fetchall()]

    def run(self, run_id: int) -> dict | None:
        rows = self.runs()
        for row in rows:
            if row["run_id"] == run_id:
                return row
        return None

    def run_faults(self, run_id: int) -> list[dict]:
        cursor = self._conn.execute(
            "SELECT seq, fault_fp, fault_name, zone, outcome"
            " FROM run_faults WHERE run_id=? ORDER BY seq", (run_id,))
        return [dict(zip(("seq", "fault_fp", "fault_name", "zone",
                          "outcome"), row))
                for row in cursor.fetchall()]

    # ------------------------------------------------------------------
    # anomalies (quarantined poison faults) and shard attempt history
    # ------------------------------------------------------------------
    def put_anomalies(self, rows: list[AnomalyRow]) -> int:
        """Record quarantined faults; re-quarantining updates the row
        (attempt counts and tracebacks from the newest run win)."""
        now = time.time()

        def txn():
            with self._conn:
                return self._conn.executemany(
                    "INSERT OR REPLACE INTO anomalies VALUES "
                    "(?,?,?,?,?,?,?,?,?,?)",
                    [(r.fault_fp, r.fault_name, r.zone, r.kind,
                      r.worker, r.traceback, r.wall_seconds,
                      r.attempts, r.run_id, now) for r in rows])
        return self._write(txn).rowcount

    def get_anomalies(self, fps: list[str]) -> dict[str, AnomalyRow]:
        """Fetch known poison faults among the given fingerprints."""
        out: dict[str, AnomalyRow] = {}
        fps = list(fps)
        for lo in range(0, len(fps), 500):
            chunk = fps[lo:lo + 500]
            marks = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT fault_fp, fault_name, zone, kind, worker,"
                f" traceback, wall_seconds, attempts, run_id"
                f" FROM anomalies WHERE fault_fp IN ({marks})",
                chunk).fetchall()
            for row in rows:
                out[row[0]] = AnomalyRow(*row)
        return out

    def anomaly_rows(self, run_id: int | None = None
                     ) -> list[AnomalyRow]:
        query = ("SELECT fault_fp, fault_name, zone, kind, worker,"
                 " traceback, wall_seconds, attempts, run_id"
                 " FROM anomalies")
        params: tuple = ()
        if run_id is not None:
            query += " WHERE run_id=?"
            params = (run_id,)
        query += " ORDER BY fault_name"
        return [AnomalyRow(*row) for row in
                self._conn.execute(query, params).fetchall()]

    def anomaly_count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM anomalies").fetchone()[0]

    def clear_anomaly(self, fault_fp: str) -> int:
        """Forget a poison fault so the next campaign retries it."""
        def txn():
            with self._conn:
                return self._conn.execute(
                    "DELETE FROM anomalies WHERE fault_fp=?",
                    (fault_fp,)).rowcount
        return self._write(txn)

    def put_shard_attempts(self, run_id: int,
                           attempts: list[tuple]) -> None:
        """Record a run's shard attempt log: ``(shard, attempt,
        status, faults, worker, wall_seconds, detail)`` tuples in
        scheduling order."""
        now = time.time()

        def txn():
            with self._conn:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO shard_attempts VALUES "
                    "(?,?,?,?,?,?,?,?,?,?)",
                    [(run_id, seq, shard, attempt, status, faults,
                      worker, seconds, detail, now)
                     for seq, (shard, attempt, status, faults, worker,
                               seconds, detail)
                     in enumerate(attempts)])
        self._write(txn)

    def shard_attempt_rows(self, run_id: int) -> list[dict]:
        cursor = self._conn.execute(
            "SELECT seq, shard, attempt, status, faults, worker,"
            " wall_seconds, detail FROM shard_attempts"
            " WHERE run_id=? ORDER BY seq", (run_id,))
        keys = ("seq", "shard", "attempt", "status", "faults",
                "worker", "wall_seconds", "detail")
        return [dict(zip(keys, row)) for row in cursor.fetchall()]

    def shard_attempt_count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM shard_attempts").fetchone()[0]

    # ------------------------------------------------------------------
    # content-keyed blobs (operational profiles)
    # ------------------------------------------------------------------
    def get_golden(self, key: str) -> str | None:
        row = self._conn.execute(
            "SELECT digest FROM golden WHERE key=?", (key,)).fetchone()
        return row[0] if row else None

    def put_golden(self, key: str, digest: str) -> None:
        def txn():
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO golden VALUES (?,?,?)",
                    (key, digest, time.time()))
        self._write(txn)

    def golden_digests(self) -> set[str]:
        return {row[0] for row in self._conn.execute(
            "SELECT digest FROM golden").fetchall()}

    # ------------------------------------------------------------------
    # job queue rows (policy lives in repro.service.queue)
    # ------------------------------------------------------------------
    def job_row(self, job_id: int) -> dict | None:
        cursor = self._conn.execute(
            "SELECT * FROM jobs WHERE job_id=?", (job_id,))
        row = cursor.fetchone()
        if row is None:
            return None
        return dict(zip([d[0] for d in cursor.description], row))

    def job_rows(self, status: str | None = None,
                 project: str | None = None) -> list[dict]:
        query = "SELECT * FROM jobs"
        clauses, params = [], []
        if status is not None:
            clauses.append("status=?")
            params.append(status)
        if project is not None:
            clauses.append("project=?")
            params.append(project)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY job_id"
        cursor = self._conn.execute(query, params)
        columns = [d[0] for d in cursor.description]
        return [dict(zip(columns, row)) for row in cursor.fetchall()]

    def job_counts(self) -> dict[str, int]:
        return dict(self._conn.execute(
            "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            " ORDER BY status").fetchall())

    def stale_job_leases(self, now: float) -> list[dict]:
        """Leased/running jobs whose deadline passed — dead workers."""
        marks = ",".join("?" * len(ACTIVE_JOB_STATES[1:]))
        cursor = self._conn.execute(
            f"SELECT * FROM jobs WHERE status IN ({marks})"
            f" AND lease_deadline IS NOT NULL AND lease_deadline < ?"
            f" ORDER BY job_id", (*ACTIVE_JOB_STATES[1:], now))
        columns = [d[0] for d in cursor.description]
        return [dict(zip(columns, row)) for row in cursor.fetchall()]

    def release_job_leases(self, job_ids: list[int]) -> int:
        """Put expired leases back on the queue (fsck repair)."""
        released = 0

        def txn():
            nonlocal released
            with self._conn:
                for job_id in job_ids:
                    released += self._conn.execute(
                        "UPDATE jobs SET status='queued',"
                        " lease_owner=NULL, lease_deadline=NULL,"
                        " updated_at=? WHERE job_id=?"
                        " AND status IN ('leased','running')",
                        (time.time(), job_id)).rowcount
        self._write(txn)
        return released

    def orphan_job_rows(self, project: str = "default"
                        ) -> list[dict]:
        """Non-terminal jobs referencing a vanished campaign run.

        Scoped to one project because only jobs of the namespace this
        index belongs to record run ids that resolve here; other
        namespaces are audited against their own store.
        """
        marks = ",".join("?" * len(ACTIVE_JOB_STATES))
        cursor = self._conn.execute(
            f"SELECT * FROM jobs WHERE status IN ({marks})"
            f" AND project=? AND run_id IS NOT NULL AND run_id NOT IN"
            f" (SELECT run_id FROM runs) ORDER BY job_id",
            (*ACTIVE_JOB_STATES, project))
        columns = [d[0] for d in cursor.description]
        return [dict(zip(columns, row)) for row in cursor.fetchall()]

    def clear_job_runs(self, job_ids: list[int]) -> int:
        cleared = 0

        def txn():
            nonlocal cleared
            with self._conn:
                for job_id in job_ids:
                    cleared += self._conn.execute(
                        "UPDATE jobs SET run_id=NULL, updated_at=?"
                        " WHERE job_id=?",
                        (time.time(), job_id)).rowcount
        self._write(txn)
        return cleared

    def dead_jobs_missing_runs(self, project: str = "default"
                               ) -> list[dict]:
        """Dead-letter jobs whose recorded evidence was GCed."""
        cursor = self._conn.execute(
            "SELECT * FROM jobs WHERE status='dead' AND project=?"
            " AND run_id IS NOT NULL AND run_id NOT IN"
            " (SELECT run_id FROM runs) ORDER BY job_id", (project,))
        columns = [d[0] for d in cursor.description]
        return [dict(zip(columns, row)) for row in cursor.fetchall()]

    def delete_jobs(self, job_ids: list[int]) -> int:
        removed = 0

        def txn():
            nonlocal removed
            with self._conn:
                for job_id in job_ids:
                    removed += self._conn.execute(
                        "DELETE FROM jobs WHERE job_id=?",
                        (job_id,)).rowcount
        self._write(txn)
        return removed

    def active_job_run_ids(self) -> list[int]:
        """Run ids still referenced by queued/leased/running jobs —
        the GC keep-set extension that stops collection from
        stranding a campaign a worker will resume."""
        marks = ",".join("?" * len(ACTIVE_JOB_STATES))
        return [row[0] for row in self._conn.execute(
            f"SELECT DISTINCT run_id FROM jobs"
            f" WHERE status IN ({marks}) AND run_id IS NOT NULL",
            ACTIVE_JOB_STATES).fetchall()]

    # ------------------------------------------------------------------
    # fsck helpers (integrity checks over the raw tables)
    # ------------------------------------------------------------------
    def iter_outcome_effects(self):
        """Yield ``(fault_fp, fault_name, effects_json)`` raw rows.

        Unlike :meth:`get_outcomes` this does *not* parse or skip —
        ``store fsck`` wants to see the corruption, not step around
        it."""
        cursor = self._conn.execute(
            "SELECT fault_fp, fault_name, effects FROM outcomes")
        while True:
            rows = cursor.fetchmany(500)
            if not rows:
                return
            yield from rows

    def delete_outcomes(self, fps: list[str]) -> int:
        """Drop outcome rows (they become cache misses and are
        re-simulated on the next campaign)."""
        fps = list(fps)

        def txn():
            removed = 0
            with self._conn:
                for lo in range(0, len(fps), 500):
                    chunk = fps[lo:lo + 500]
                    marks = ",".join("?" * len(chunk))
                    removed += self._conn.execute(
                        f"DELETE FROM outcomes WHERE fault_fp IN"
                        f" ({marks})", chunk).rowcount
            return removed
        return self._write(txn)

    def golden_rows(self) -> list[tuple[str, str]]:
        """All ``(key, digest)`` pairs of the content-key map."""
        return self._conn.execute(
            "SELECT key, digest FROM golden").fetchall()

    def delete_golden_keys(self, keys: list[str]) -> int:
        def txn():
            removed = 0
            with self._conn:
                for key in keys:
                    removed += self._conn.execute(
                        "DELETE FROM golden WHERE key=?",
                        (key,)).rowcount
            return removed
        return self._write(txn)

    def run_blob_refs(self) -> list[tuple[int, str, str]]:
        """Every ``(run_id, column, digest)`` blob reference of a run
        (see :data:`RUN_BLOB_COLUMNS`)."""
        return [(run_id, column, digest)
                for column in RUN_BLOB_COLUMNS
                for run_id, digest in self._conn.execute(
                    f"SELECT run_id, {column} FROM runs"
                    f" WHERE {column} IS NOT NULL").fetchall()]

    def clear_run_blob_refs(self, refs: list[tuple[int, str]]) -> int:
        """Null the ``(run_id, column)`` blob references that
        :meth:`run_blob_refs` returned."""
        def txn():
            cleared = 0
            with self._conn:
                for run_id, column in refs:
                    cleared += self._conn.execute(
                        f"UPDATE runs SET {column}=NULL WHERE run_id=?",
                        (run_id,)).rowcount
            return cleared
        return self._write(txn)

    def dangling_membership(self) -> dict[str, list[int]]:
        """Run ids referenced by child tables but absent from
        ``runs`` — the droppings of a partially GCed or torn store."""
        out: dict[str, list[int]] = {}
        for table in ("run_faults", "shard_attempts"):
            rows = self._conn.execute(
                f"SELECT DISTINCT run_id FROM {table}"
                f" WHERE run_id NOT IN (SELECT run_id FROM runs)"
                f" ORDER BY run_id").fetchall()
            if rows:
                out[table] = [r[0] for r in rows]
        return out

    def delete_dangling_membership(self) -> int:
        def txn():
            with self._conn:
                removed = self._conn.execute(
                    "DELETE FROM run_faults WHERE run_id NOT IN"
                    " (SELECT run_id FROM runs)").rowcount
                removed += self._conn.execute(
                    "DELETE FROM shard_attempts WHERE run_id NOT IN"
                    " (SELECT run_id FROM runs)").rowcount
            return removed
        return self._write(txn)

    def dangling_anomalies(self) -> list[tuple[str, str, int]]:
        """Anomaly rows whose ``run_id`` names a vanished run."""
        return self._conn.execute(
            "SELECT fault_fp, fault_name, run_id FROM anomalies"
            " WHERE run_id IS NOT NULL AND run_id NOT IN"
            " (SELECT run_id FROM runs) ORDER BY fault_name"
        ).fetchall()

    def delete_anomalies(self, fps: list[str]) -> int:
        def txn():
            removed = 0
            with self._conn:
                for fp in fps:
                    removed += self._conn.execute(
                        "DELETE FROM anomalies WHERE fault_fp=?",
                        (fp,)).rowcount
            return removed
        return self._write(txn)

    def integrity_check(self) -> str:
        """SQLite's own b-tree check; ``'ok'`` when healthy."""
        return self._conn.execute(
            "PRAGMA integrity_check").fetchone()[0]

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc(self, keep_runs: int) -> tuple[int, int]:
        """Drop all but the newest ``keep_runs`` runs, then every
        outcome row no kept run references.  Runs referenced by a
        queued/leased/running job are always kept, whatever their
        age — collecting them would strand the partial evidence a
        re-claimed job resumes from.  Returns ``(runs_removed,
        outcomes_removed)``; blob sweeping is the caller's job (it
        owns the filesystem side)."""
        def txn():
            with self._conn:
                keep = [row[0] for row in self._conn.execute(
                    "SELECT run_id FROM runs ORDER BY run_id DESC"
                    " LIMIT ?", (keep_runs,))]
                keep += [run_id for run_id in self.active_job_run_ids()
                         if run_id not in keep]
                if keep:
                    marks = ",".join("?" * len(keep))
                    removed_runs = self._conn.execute(
                        f"DELETE FROM runs WHERE run_id NOT IN ({marks})",
                        keep).rowcount
                    self._conn.execute(
                        f"DELETE FROM run_faults WHERE run_id NOT IN"
                        f" ({marks})", keep)
                else:
                    # NOT IN () is never true in SQL — wipe explicitly
                    removed_runs = self._conn.execute(
                        "DELETE FROM runs").rowcount
                    self._conn.execute("DELETE FROM run_faults")
                removed_outcomes = self._conn.execute(
                    "DELETE FROM outcomes WHERE fault_fp NOT IN"
                    " (SELECT fault_fp FROM run_faults)").rowcount
                self._conn.execute(
                    "DELETE FROM anomalies WHERE fault_fp NOT IN"
                    " (SELECT fault_fp FROM run_faults)")
                self._conn.execute(
                    "DELETE FROM shard_attempts WHERE run_id NOT IN"
                    " (SELECT run_id FROM runs)")
                self._conn.execute(
                    "DELETE FROM golden WHERE digest NOT IN"
                    " (SELECT golden_blob FROM runs"
                    "  WHERE golden_blob IS NOT NULL)"
                    " AND digest NOT IN"
                    " (SELECT profile_blob FROM runs"
                    "  WHERE profile_blob IS NOT NULL)")
            return removed_runs, removed_outcomes
        removed = self._write(txn)
        self._write(lambda: self._conn.execute("VACUUM"))
        return removed
