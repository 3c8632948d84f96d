"""Durable campaign job queue with lease-based recovery.

The queue lives in the ``jobs`` table of the campaign store's SQLite
index (:mod:`repro.store.db`) and follows the same design rules as the
rest of the store: WAL mode, short write transactions, and rows that
are safe to act on after any crash because every mutation is a single
atomic transaction.

Lifecycle (docs/methodology.md §4g)::

    queued ──claim──▶ leased ──start──▶ running ──complete──▶ done
      ▲                 │                  │
      │   lease expiry / fail (budget left)│
      └────────────────┴───────────────────┘
                        │ budget exhausted
                        ▼
                      dead  ──retry──▶ queued        cancel ▶ cancelled

* **Claim** is one ``BEGIN IMMEDIATE`` transaction: pick the oldest
  actionable job (``queued`` past its backoff, or ``leased`` /
  ``running`` whose lease deadline passed — a dead worker), bump its
  attempt counter and stamp the new owner + deadline.  Two daemons
  racing the same row serialize on the write lock, so a job is never
  double-claimed.
* **Heartbeat** extends the lease deadline *monotonically*
  (``max(deadline, now + lease)``) and only while the caller still
  owns the lease; a ``False`` return tells the worker its job was
  cancelled or re-claimed and it must stop.
* **Retry budget**: attempts are counted at claim time, so a worker
  that dies without reporting still consumes one attempt.  A job
  whose budget is spent is *dead-lettered* with a structured error
  (same shape as a quarantined fault's
  :class:`~repro.faultinjection.supervisor.FaultAnomaly`: kind,
  message, diagnostics) instead of looping forever.
* **Dead letter** is terminal but reversible: ``retry`` zeroes the
  attempt counter and re-queues once the cause is fixed.

Because every campaign's evidence is content-addressed, a re-claimed
job resumes from the store: only the cones the dead worker never
finished are re-simulated.

Every transition this process commits bumps :data:`CHANGE_FEED`, so
the daemon's claim loops and the API's event streams in the same
process wake on a change instead of sleeping out a poll period.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..backoff import decorrelated_delay
from ..chaos.failpoints import fail_at
from ..store.db import ACTIVE_JOB_STATES, StoreDB
from ..store.errors import raise_for_io

JOB_QUEUED = "queued"
JOB_LEASED = "leased"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_DEAD = "dead"
JOB_CANCELLED = "cancelled"

#: states a worker may still act on (mirrors the store's constant)
ACTIVE_STATES = ACTIVE_JOB_STATES

#: growth and ceiling (seconds) of the failed-attempt backoff
RETRY_BACKOFF_FACTOR = 2.0
RETRY_BACKOFF_CAP = 60.0


class ChangeFeed:
    """Wake-ups for in-process observers of the job queue.

    A counter that :class:`JobQueue` bumps after each transition it
    commits, a :class:`threading.Condition` that claim loops wait on,
    and callbacks that the API server's asyncio streams register.  It
    sees only this process's writes: a job submitted by another
    process, an expired lease or an elapsed ``not_before`` backoff
    makes work actionable without a bump here, so every waiter keeps
    its poll period as the timeout of its wait.
    """

    def __init__(self):
        self._version = 0
        self._after_fork()

    def _after_fork(self) -> None:
        # a forked child inherits the lock in whatever state one of
        # the parent's threads held it, and none of its event loops
        self._cond = threading.Condition()
        self._listeners: set = set()

    @property
    def version(self) -> int:
        return self._version

    def bump(self) -> None:
        """Announce a committed transition: wake every waiter."""
        with self._cond:
            self._version += 1
            self._cond.notify_all()
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener()

    def wait(self, seen: int, timeout: float) -> None:
        """Block until the version differs from ``seen`` (read before
        the check that found nothing to do, so a bump in between is
        not lost) or ``timeout`` seconds pass."""
        with self._cond:
            self._cond.wait_for(lambda: self._version != seen, timeout)

    def listen(self, callback) -> None:
        """Call ``callback()`` after each bump, on the bumping thread;
        it must not block."""
        with self._cond:
            self._listeners.add(callback)

    def unlisten(self, callback) -> None:
        with self._cond:
            self._listeners.discard(callback)


#: the one feed of this process; pool children and shard workers fork
#: from threaded parents, so a child re-creates its lock
CHANGE_FEED = ChangeFeed()
os.register_at_fork(after_in_child=CHANGE_FEED._after_fork)


class JobLeaseLost(RuntimeError):
    """The worker's lease was cancelled or re-claimed mid-run."""


@dataclass
class QueuePolicy:
    """Lease and retry policy of one queue handle."""

    #: seconds a claim stays valid without a heartbeat; a daemon that
    #: misses this window is presumed dead and its job is up for grabs
    lease_seconds: float = 30.0
    #: claim attempts before a job is dead-lettered
    max_attempts: int = 3
    #: backoff between failed attempts: attempt ``k`` re-queues after
    #: a decorrelated-jitter delay in
    #: ``[base, base * RETRY_BACKOFF_FACTOR**k]`` (capped at
    #: ``RETRY_BACKOFF_CAP``) so N recovering daemons don't retry in
    #: lockstep
    backoff_base: float = 0.5
    #: seeds the jitter per ``(seed, job_id, attempt)`` — set it to
    #: make backoff schedules reproducible across processes (chaos
    #: tests); ``None`` keeps production randomized
    backoff_seed: int | None = None
    #: extra margin past ``lease_deadline`` before another daemon may
    #: presume the owner dead and steal the job — absorbs clock skew
    #: between hosts sharing one store (deadlines are wall-clock
    #: timestamps written by *different* machines)
    skew_grace: float = 0.25


@dataclass
class JobRow:
    """One queue row with its JSON payloads decoded."""

    job_id: int
    project: str
    status: str
    spec: dict
    attempts: int
    max_attempts: int
    not_before: float
    lease_owner: str | None
    lease_deadline: float | None
    run_id: int | None
    result: dict | None
    error: dict | None
    created_at: float
    updated_at: float
    idempotency_key: str | None = None
    progress: dict | None = None

    @classmethod
    def from_row(cls, row: dict) -> "JobRow":
        def decode(text, default):
            if text is None:
                return default
            try:
                value = json.loads(text)
            except ValueError:
                return default
            return value if isinstance(value, dict) else default
        return cls(
            job_id=row["job_id"], project=row["project"],
            status=row["status"], spec=decode(row["spec"], {}),
            attempts=row["attempts"],
            max_attempts=row["max_attempts"],
            not_before=row["not_before"],
            lease_owner=row["lease_owner"],
            lease_deadline=row["lease_deadline"],
            run_id=row["run_id"],
            result=decode(row["result"], None),
            error=decode(row["error"], None),
            created_at=row["created_at"],
            updated_at=row["updated_at"],
            idempotency_key=row.get("idempotency_key"),
            progress=decode(row.get("progress"), None))


class JobQueue:
    """Handle on the job queue of one campaign store.

    Accepts either a store root directory (the queue lives next to the
    evidence in ``store.db``) or an already-open :class:`StoreDB`.
    """

    def __init__(self, root, policy: QueuePolicy | None = None,
                 db: StoreDB | None = None):
        self.policy = policy or QueuePolicy()
        if db is not None:
            self.db = db
            self._owns_db = False
        else:
            self.root = Path(root)
            self.root.mkdir(parents=True, exist_ok=True)
            self.db = StoreDB(self.root / "store.db")
            self._owns_db = True

    def close(self) -> None:
        if self._owns_db:
            self.db.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, spec: dict, project: str = "default",
               max_attempts: int | None = None) -> int:
        """Enqueue one campaign job; returns its id."""
        job_id, _ = self.submit_idempotent(spec, project=project,
                                           max_attempts=max_attempts)
        return job_id

    def submit_idempotent(self, spec: dict, project: str = "default",
                          max_attempts: int | None = None,
                          idempotency_key: str | None = None,
                          ) -> tuple[int, bool]:
        """Enqueue one job, deduping on a client-supplied key.

        Returns ``(job_id, deduped)``.  When ``idempotency_key`` is
        set and a non-cancelled job of the same project already
        carries it, that job's id is returned with ``deduped=True``
        and nothing is inserted — so a client that retries a submit
        after a lost response (or a server crash) converges on the
        same job instead of double-enqueuing the campaign.

        The check-then-insert runs in one ``BEGIN IMMEDIATE``
        transaction, so two racing submitters serialize on the write
        lock; the partial unique index on ``(project,
        idempotency_key)`` backstops the invariant at the schema
        level.
        """
        budget = max_attempts if max_attempts is not None \
            else self.policy.max_attempts
        if budget < 1:
            raise ValueError("max_attempts must be at least 1")
        now = time.time()
        with self.db.immediate() as conn:
            if idempotency_key is not None:
                row = conn.execute(
                    "SELECT job_id FROM jobs WHERE project=?"
                    " AND idempotency_key=? AND status!=?"
                    " ORDER BY job_id LIMIT 1",
                    (project, idempotency_key,
                     JOB_CANCELLED)).fetchone()
                if row is not None:
                    return row[0], True
            job_id = conn.execute(
                "INSERT INTO jobs (created_at, updated_at, project,"
                " status, spec, max_attempts, idempotency_key)"
                " VALUES (?,?,?,?,?,?,?)",
                (now, now, project, JOB_QUEUED,
                 json.dumps(spec, sort_keys=True), budget,
                 idempotency_key)).lastrowid
        CHANGE_FEED.bump()
        return job_id, False

    def cancel(self, job_id: int) -> bool:
        """Cancel an active job.  A running worker notices on its next
        heartbeat and abandons the campaign (the store keeps whatever
        evidence already landed)."""
        marks = ",".join("?" * len(ACTIVE_STATES))
        return self._transition(
            f"UPDATE jobs SET status=?, lease_owner=NULL,"
            f" lease_deadline=NULL, updated_at=?"
            f" WHERE job_id=? AND status IN ({marks})",
            (JOB_CANCELLED, time.time(), job_id, *ACTIVE_STATES))

    def retry(self, job_id: int) -> bool:
        """Re-queue a dead-lettered or cancelled job with a fresh
        attempt budget (use after fixing the recorded cause)."""
        return self._transition(
            "UPDATE jobs SET status=?, attempts=0, not_before=0,"
            " lease_owner=NULL, lease_deadline=NULL, error=NULL,"
            " result=NULL, updated_at=?"
            " WHERE job_id=? AND status IN (?,?)",
            (JOB_QUEUED, time.time(), job_id, JOB_DEAD, JOB_CANCELLED))

    def _transition(self, sql: str, params: tuple) -> bool:
        """One single-row UPDATE; ``True`` when it matched a row.

        The feed is bumped only once the transaction has committed: a
        reader woken inside it would not see the row yet.
        """
        with self.db.immediate() as conn:
            changed = conn.execute(sql, params).rowcount == 1
        if changed:
            CHANGE_FEED.bump()
        return changed

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _fail_at(self, name: str) -> None:
        """A failpoint outside any transaction: injected disk errors
        still surface coded (E413/E414), like the real thing would."""
        try:
            fail_at(name)
        except OSError as err:
            raise_for_io(err, str(self.db.path))

    def claim(self, owner: str,
              lease_seconds: float | None = None) -> JobRow | None:
        """Atomically claim the oldest actionable job for ``owner``.

        Actionable = ``queued`` past its backoff, or ``leased`` /
        ``running`` whose lease expired more than ``skew_grace`` ago
        (the previous worker died; the grace keeps a fast-clocked
        host from stealing a live sibling's lease).  A candidate
        whose retry budget is already spent is dead-lettered on the
        spot — recording the worker death as a structured error —
        and the scan continues.

        A claim takes work away and is followed at once by
        :meth:`start`, so it does not bump the change feed; a job it
        dead-letters had an expired lease, which the waiters' poll
        periods cover.
        """
        lease = lease_seconds if lease_seconds is not None \
            else self.policy.lease_seconds
        while True:
            now = time.time()
            with self.db.immediate() as conn:
                row = conn.execute(
                    "SELECT job_id, status, attempts, max_attempts"
                    " FROM jobs WHERE"
                    " (status=? AND not_before<=?)"
                    " OR (status IN (?,?) AND lease_deadline IS NOT"
                    " NULL AND lease_deadline<?)"
                    " ORDER BY job_id LIMIT 1",
                    (JOB_QUEUED, now, JOB_LEASED, JOB_RUNNING,
                     now - self.policy.skew_grace)).fetchone()
                if row is None:
                    return None
                job_id, status, attempts, max_attempts = row
                if attempts >= max_attempts:
                    # the lease expired with no budget left: the
                    # worker died mid-job on its final attempt
                    error = {
                        "kind": "crash",
                        "message": (
                            f"lease expired after {attempts} "
                            f"attempt(s); the executing worker died "
                            f"or stalled without reporting"),
                        "attempts": attempts,
                    }
                    conn.execute(
                        "UPDATE jobs SET status=?, error=?,"
                        " lease_owner=NULL, lease_deadline=NULL,"
                        " updated_at=? WHERE job_id=?",
                        (JOB_DEAD, json.dumps(error), now, job_id))
                    continue
                conn.execute(
                    "UPDATE jobs SET status=?, attempts=attempts+1,"
                    " lease_owner=?, lease_deadline=?, updated_at=?"
                    " WHERE job_id=?",
                    (JOB_LEASED, owner, now + lease, now, job_id))
            # crash window: the claim is committed but the worker has
            # not started — recovery is lease expiry, verified by the
            # chaos harness
            self._fail_at("queue.claim")
            return self.job(job_id)

    def heartbeat(self, job_id: int, owner: str,
                  lease_seconds: float | None = None,
                  progress: dict | None = None) -> bool:
        """Renew the lease; the deadline only ever moves forward.

        ``progress`` (a small JSON-able dict, e.g. ``{"done": 120,
        "total": 617}``) piggybacks on the renewal so observers —
        ``jobs status --follow``, the API's event stream — see
        campaign progress without a second write path.

        Returns ``False`` when the lease is gone (job cancelled, or
        re-claimed after an expiry) — the worker must stop.
        """
        lease = lease_seconds if lease_seconds is not None \
            else self.policy.lease_seconds
        # stall window: a sleep here models a GC pause / clock skew
        # holding the renewal past the lease deadline
        self._fail_at("queue.heartbeat")
        now = time.time()
        return self._transition(
            "UPDATE jobs SET lease_deadline=MAX(lease_deadline, ?),"
            " progress=COALESCE(?, progress), updated_at=?"
            " WHERE job_id=? AND lease_owner=? AND status IN (?,?)",
            (now + lease, json.dumps(progress, sort_keys=True)
             if progress is not None else None,
             now, job_id, owner, JOB_LEASED, JOB_RUNNING))

    def start(self, job_id: int, owner: str) -> bool:
        """Mark a leased job as actually executing."""
        return self._transition(
            "UPDATE jobs SET status=?, updated_at=?"
            " WHERE job_id=? AND lease_owner=? AND status=?",
            (JOB_RUNNING, time.time(), job_id, owner, JOB_LEASED))

    def record_run(self, job_id: int, owner: str,
                   run_id: int) -> bool:
        """Attach the store run a worker opened for this job, so gc
        and fsck can cross-reference queue and evidence."""
        with self.db.immediate() as conn:
            return conn.execute(
                "UPDATE jobs SET run_id=?, updated_at=?"
                " WHERE job_id=? AND lease_owner=?"
                " AND status IN (?,?)",
                (run_id, time.time(), job_id, owner, JOB_LEASED,
                 JOB_RUNNING)).rowcount == 1

    def complete(self, job_id: int, owner: str,
                 result: dict) -> bool:
        """Terminal success: record the result payload."""
        # crash window: the campaign's evidence is committed to the
        # store but the job is still leased — recovery is lease
        # expiry plus an idempotent warm re-run (zero simulations)
        self._fail_at("queue.transition")
        return self._transition(
            "UPDATE jobs SET status=?, result=?, error=NULL,"
            " lease_owner=NULL, lease_deadline=NULL, updated_at=?"
            " WHERE job_id=? AND lease_owner=?"
            " AND status IN (?,?)",
            (JOB_DONE, json.dumps(result, sort_keys=True),
             time.time(), job_id, owner, JOB_LEASED, JOB_RUNNING))

    def fail(self, job_id: int, owner: str, error: dict,
             fatal: bool = False) -> str | None:
        """Record a failed attempt.

        Re-queues with decorrelated-jitter exponential backoff while
        budget remains, dead-letters otherwise.  ``fatal``
        dead-letters immediately — for deterministic failures (coded
        input diagnostics) a retry can never fix.  Returns the
        resulting status, or ``None`` when the caller no longer owns
        the lease.
        """
        self._fail_at("queue.transition")
        now = time.time()
        with self.db.immediate() as conn:
            row = conn.execute(
                "SELECT attempts, max_attempts FROM jobs"
                " WHERE job_id=? AND lease_owner=?"
                " AND status IN (?,?)",
                (job_id, owner, JOB_LEASED, JOB_RUNNING)).fetchone()
            if row is None:
                return None
            attempts, max_attempts = row
            if fatal or attempts >= max_attempts:
                status, not_before = JOB_DEAD, 0.0
            else:
                status = JOB_QUEUED
                not_before = now + decorrelated_delay(
                    attempts, self.policy.backoff_base,
                    RETRY_BACKOFF_FACTOR, cap=RETRY_BACKOFF_CAP,
                    seed=self.policy.backoff_seed, token=job_id)
            conn.execute(
                "UPDATE jobs SET status=?, not_before=?, error=?,"
                " lease_owner=NULL, lease_deadline=NULL, updated_at=?"
                " WHERE job_id=?",
                (status, not_before, json.dumps(error, sort_keys=True),
                 now, job_id))
        CHANGE_FEED.bump()
        return status

    def release(self, job_id: int, owner: str, delay: float = 0.0,
                error: dict | None = None) -> bool:
        """Voluntarily hand a leased job back to the queue.

        Unlike :meth:`fail`, releasing is *not* a failed attempt: the
        attempt counted at claim time is refunded, so a graceful
        shutdown (SIGTERM drain) or an environmental pause (disk
        full, E413) never burns the job's retry budget toward the
        dead-letter state.  ``delay`` defers the next claim —
        io-pauses use it to wait out the outage — and ``error``
        records why (visible in ``jobs list``) without dead-letter
        semantics.  Owner-fenced like every transition.
        """
        now = time.time()
        return self._transition(
            "UPDATE jobs SET status=?,"
            " attempts=MAX(attempts-1, 0), not_before=?,"
            " error=?, lease_owner=NULL, lease_deadline=NULL,"
            " updated_at=? WHERE job_id=? AND lease_owner=?"
            " AND status IN (?,?)",
            (JOB_QUEUED, now + delay,
             json.dumps(error, sort_keys=True)
             if error is not None else None,
             now, job_id, owner, JOB_LEASED, JOB_RUNNING))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def job(self, job_id: int) -> JobRow | None:
        row = self.db.job_row(job_id)
        return JobRow.from_row(row) if row is not None else None

    def jobs(self, status: str | None = None,
             project: str | None = None) -> list[JobRow]:
        return [JobRow.from_row(row)
                for row in self.db.job_rows(status=status,
                                            project=project)]

    def counts(self) -> dict[str, int]:
        return self.db.job_counts()

    def has_work(self) -> bool:
        """Any job a worker could act on now or after a lease/backoff
        expiry (used by ``serve --drain`` to decide when to stop)."""
        marks = ",".join("?" * len(ACTIVE_STATES))
        return self.db._conn.execute(
            f"SELECT 1 FROM jobs WHERE status IN ({marks}) LIMIT 1",
            ACTIVE_STATES).fetchone() is not None
