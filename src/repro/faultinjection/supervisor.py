"""Fault-tolerant campaign supervision (engine robustness).

Industrial soft-error campaigns treat the *engine* as part of the
safety case: a single hung simulation or crashed worker must not abort
an exhaustive per-zone campaign and discard hours of in-flight work,
and evidence that could not be collected must be reported as a
structured anomaly instead of silently dropped.

:class:`CampaignSupervisor` is the campaign runner: it shards the
fault list with the building blocks of
:mod:`~repro.faultinjection.parallel` and executes the shards under
supervision:

* every shard attempt runs in its **own worker process** with a pipe
  back to the supervisor, so a crash (SIGKILL, segfault-equivalent),
  a hang (wall-clock ``shard_timeout``) or a raised exception is
  attributed to exactly one shard — the precise-attribution
  equivalent of recovering from a ``BrokenProcessPool``: the dead
  worker is replaced and only its shard is rescheduled;
* failed shards are **retried with exponential backoff**; after
  ``max_retries`` failures the shard is **bisected** so the poison
  fault(s) are isolated in O(log n) attempts while the innocent
  faults of the shard complete normally;
* a singleton shard that keeps failing is **quarantined**: the
  campaign completes without it and records a :class:`FaultAnomaly`
  (kind, worker pid, traceback, timing, attempt count) instead of
  failing — unless quarantine is disabled, in which case the
  supervisor raises :class:`CampaignAborted`;
* a per-fault **cycle budget** (``CampaignConfig.cycle_budget``,
  :class:`~repro.hdl.simulator.CycleBudgetExceeded`) catches cycle
  runaways deterministically inside the worker, complementing the
  wall-clock timeout;
* when worker processes cannot be spawned at all the supervisor
  **degrades to in-process serial execution** as a last resort
  (exceptions are still contained and quarantined; crash/hang
  containment needs process isolation and is documented as lost);
* with a :class:`~repro.store.CampaignCache`, cached outcomes are
  served without simulation, fresh shard results are persisted as
  they land (SIGKILL-safe resume), anomalies and the shard attempt
  history are recorded in the store's SQLite index, and **known
  poison faults from earlier runs are quarantined up front** so a
  resumed campaign never re-executes them.

Surviving per-fault results are bit-identical to a clean one-worker
run over the non-quarantined faults: per-fault records are independent
of pass grouping (see :mod:`~repro.faultinjection.parallel`), so
retries and bisection cannot shift the measured DC/SFF of the
survivors.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait

from ..backoff import decorrelated_delay
from .faultlist import CandidateList
from .faults import Fault
from .manager import CampaignResult, FaultInjectionManager, FaultResult
from .parallel import (
    CampaignSpec,
    CampaignStats,
    SafeProgress,
    ShardStats,
    _default_start_method,
    compute_golden_trace,
    shard_candidates,
)

ANOMALY_CRASH = "crash"
ANOMALY_HANG = "hang"
ANOMALY_EXCEPTION = "exception"

#: exception types the worker maps to a *hang* anomaly: deterministic
#: cycle runaways caught by the in-simulator watchdog
_HANG_EXCEPTIONS = ("CycleBudgetExceeded",)

#: retry backoff growth: attempt ``k`` waits a decorrelated-jitter
#: delay in ``[base, base * RETRY_BACKOFF_FACTOR**k]``, capped at
#: ``RETRY_BACKOFF_CAP`` seconds, so parallel supervisors recovering
#: from one fault don't retry in lockstep
RETRY_BACKOFF_FACTOR = 2.0
RETRY_BACKOFF_CAP = 30.0
#: supervisor poll tick (seconds): deadline granularity and the
#: latency of noticing a finished shard
POLL_INTERVAL = 0.05


class CampaignAborted(RuntimeError):
    """A poison fault could not be executed and quarantine is off."""


# ----------------------------------------------------------------------
# configuration and anomaly records
# ----------------------------------------------------------------------
@dataclass
class SupervisorConfig:
    """Resilience policy of one supervised campaign."""

    #: wall-clock seconds one shard attempt may run before its worker
    #: is killed and the shard counts as hung (``None`` disables)
    shard_timeout: float | None = None
    #: failed-shard retries before the shard is bisected
    max_retries: int = 2
    #: minimum retry backoff (see :data:`RETRY_BACKOFF_FACTOR`)
    backoff_base: float = 0.25
    #: isolate poison faults and complete the campaign without them;
    #: when off, an inexecutable fault raises :class:`CampaignAborted`
    quarantine: bool = True
    #: optional liveness callback (e.g. a job-queue lease renewal)
    #: invoked from the supervision loop at most every
    #: ``heartbeat_interval`` seconds; an exception it raises aborts
    #: the campaign (active workers are killed) — exactly what a
    #: worker whose lease was lost must do
    heartbeat: object | None = None
    heartbeat_interval: float = 1.0


@dataclass
class FaultAnomaly:
    """One fault the campaign could not execute, as structured data."""

    fault_name: str
    zone: str | None
    kind: str                    # crash | hang | exception
    worker: int | None = None    # OS pid of the failing worker
    traceback: str | None = None
    wall_seconds: float = 0.0
    attempts: int = 0
    #: served from the store's anomaly table instead of re-executed
    known: bool = False


@dataclass
class CampaignHealth:
    """Supervision counters, rendered as a section of the stats."""

    retries: int = 0
    crashes: int = 0
    hangs: int = 0
    exceptions: int = 0
    bisections: int = 0
    quarantined: int = 0
    known_poison_skipped: int = 0
    workers_replaced: int = 0
    degraded: bool = False

    @property
    def clean(self) -> bool:
        return (self.crashes == 0 and self.hangs == 0
                and self.exceptions == 0 and self.quarantined == 0
                and self.known_poison_skipped == 0
                and not self.degraded)

    def summary(self) -> str:
        lines = ["--- campaign health ---"]
        if self.clean:
            lines.append("clean: no worker failures, nothing "
                         "quarantined")
        else:
            lines.append(
                f"failures: {self.crashes} crash(es), "
                f"{self.hangs} hang(s), "
                f"{self.exceptions} exception(s); "
                f"{self.retries} retr(ies), "
                f"{self.bisections} bisection(s), "
                f"{self.workers_replaced} worker(s) replaced")
            lines.append(
                f"quarantined: {self.quarantined} fault(s) "
                f"({self.known_poison_skipped} known-poison served "
                f"from the store)")
            if self.degraded:
                lines.append("DEGRADED: worker processes unavailable "
                             "— ran in-process without crash/hang "
                             "containment")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _supervised_worker(conn, manager: FaultInjectionManager,
                       faults: list[Fault]) -> None:
    """One shard attempt: run the campaign's (already compiled)
    manager over ``faults`` and report through a pipe.

    Always sends exactly one message — ``("ok", pid, result,
    seconds)`` or ``("error", pid, (exc_type, traceback), seconds)``;
    a worker that dies before sending is detected by the supervisor
    as EOF on the pipe (a crash).
    """
    start = time.time()
    try:
        result = manager.run_batches(list(faults))
        payload = ("ok", os.getpid(), result, time.time() - start)
    except BaseException as exc:  # noqa: BLE001 — report, then die
        payload = ("error", os.getpid(),
                   (type(exc).__name__, traceback.format_exc()),
                   time.time() - start)
    try:
        conn.send(payload)
    finally:
        conn.close()


# ----------------------------------------------------------------------
# supervisor internals
# ----------------------------------------------------------------------
@dataclass
class _ShardJob:
    """One unit of scheduled work: candidate indices + retry state."""

    indices: tuple[int, ...]
    attempts: int = 0
    not_before: float = 0.0

    @property
    def label(self) -> str:
        if len(self.indices) == 1:
            return f"fault #{self.indices[0]}"
        return f"faults #{self.indices[0]}..#{self.indices[-1]}"


@dataclass
class _Active:
    """A shard attempt currently running in a worker process."""

    job: _ShardJob
    process: object
    conn: object
    started: float = field(default_factory=time.time)


class CampaignSupervisor:
    """Runs a campaign spec under failure supervision.

    This is the one code path that turns a :class:`CandidateList`
    into a :class:`CampaignResult` with its coverage ledger.  Every
    shard runs in a worker process (``workers`` at a time, one shard
    per worker unless ``shards`` or a store says otherwise); the merged
    result of a clean run is independent of the worker count, shard
    split and store state, and record for record equal to the
    interpreted differential oracle over the same candidates.
    ``progress(done, total)`` is invoked as shards land; with
    ``cache`` (a :class:`~repro.store.CampaignCache`) only cache
    misses are simulated.  ``last_stats`` holds the
    :class:`CampaignStats` of the most recent run, ``anomalies`` the
    faults it quarantined.
    """

    def __init__(self, spec: CampaignSpec, workers: int | None = None,
                 shards: int | None = None, progress=None,
                 config: SupervisorConfig | None = None,
                 cache=None, start_method: str | None = None):
        if workers is not None and workers < 1:
            raise ValueError("need at least one worker")
        self.config = config or SupervisorConfig()
        self.spec = spec
        self.workers = workers if workers is not None \
            else (os.cpu_count() or 1)
        self.shards = shards
        self.progress = SafeProgress.wrap(progress)
        self.cache = cache
        self.start_method = start_method
        self.last_stats: CampaignStats | None = None
        #: anomalies of the most recent run, in candidate order
        self.anomalies: list[FaultAnomaly] = []

    # ------------------------------------------------------------------
    def run(self, candidates: CandidateList) -> CampaignResult:
        start = time.time()
        faults = list(candidates.faults)
        manager = self.spec.manager()
        health = CampaignHealth()
        self.anomalies = []
        self._manager = manager
        self._faults = faults
        self._health = health
        self._merged: dict[int, FaultResult] = {}
        self._quarantined: dict[int, FaultAnomaly] = {}
        self._attempt_log: list[tuple] = []
        self._shard_seq = 0
        self._total = len(faults)
        self._last_beat = 0.0
        self._beat()

        result = manager.new_result()
        self._result = result
        manager._init_coverage(result.coverage, candidates)

        stats = CampaignStats(workers=min(self.workers,
                                          len(faults)) or 1,
                              total_faults=len(faults))
        stats.health = health
        self._stats = stats

        ctx, run_id, miss_indices = self._plan(faults, manager)

        if self.progress is not None and self._done_count():
            self.progress(self._done_count(), self._total)

        if miss_indices:
            # build the program before forking; every shard runs it
            manager.program.table()
            self._execute(miss_indices)

        if faults:
            golden = compute_golden_trace(manager, self.spec.activity)
            result.results = [self._merged[i]
                              for i in range(len(faults))
                              if i not in self._quarantined]
            for name in golden.obse_active:
                result.coverage.obse[name] = True
            for name in golden.diag_active:
                result.coverage.diag[name] = True
        manager.fill_coverage(result)
        result.wall_seconds = time.time() - start

        health.quarantined = len(self._quarantined)
        self.anomalies = [self._quarantined[i]
                          for i in sorted(self._quarantined)]
        stats.wall_seconds = result.wall_seconds
        stats.shards.sort(key=lambda s: s.shard)
        self.last_stats = stats

        if ctx is not None:
            self._finalize_store(ctx, run_id)
        return result

    # ------------------------------------------------------------------
    # planning: cache hits and known-poison quarantine
    # ------------------------------------------------------------------
    def _plan(self, faults, manager):
        """Partition candidates into cached / known-poison / to-run."""
        self._fingerprints = None
        self._plan_hits = 0
        if not faults:
            return None, None, []
        ctx = self._context(faults)
        if ctx is None:
            if self.cache is not None:
                self.cache.stats.uncacheable += len(faults)
            return None, None, list(range(len(faults)))
        from ..store.cache import _rebuild
        plan = self.cache.plan(ctx, faults)
        self._fingerprints = plan.fingerprints
        self._plan_hits = len(plan.cached)
        for i, row in plan.cached.items():
            self._merged[i] = _rebuild(faults[i], row)
        miss_indices = list(plan.misses)
        run_id = self.cache._begin(ctx, manager, faults,
                                   workers=self.workers)
        if miss_indices:
            # pre-quarantine faults whose fingerprint already has a
            # recorded anomaly instead of re-executing them
            known = self.cache.db.get_anomalies(
                [plan.fingerprints[i] for i in miss_indices])
            still = []
            for i in miss_indices:
                row = known.get(plan.fingerprints[i])
                if row is None:
                    still.append(i)
                    continue
                self._quarantined[i] = FaultAnomaly(
                    fault_name=row.fault_name, zone=row.zone,
                    kind=row.kind, worker=row.worker,
                    traceback=row.traceback,
                    wall_seconds=row.wall_seconds or 0.0,
                    attempts=row.attempts, known=True)
                self._health.known_poison_skipped += 1
                self.cache.stats.poisoned += 1
            miss_indices = still
        return ctx, run_id, miss_indices

    def _context(self, faults):
        if self.cache is None or self.spec.config.collect_toggles:
            return None
        from ..store.fingerprint import FingerprintContext
        return FingerprintContext.from_spec(self.spec, faults)

    def _done_count(self) -> int:
        return len(self._merged) + len(self._quarantined)

    def _beat(self) -> None:
        """Invoke the configured liveness callback, throttled."""
        if self.config.heartbeat is None:
            return
        now = time.time()
        if now - self._last_beat >= self.config.heartbeat_interval:
            self._last_beat = now
            self.config.heartbeat()

    # ------------------------------------------------------------------
    # the supervised execution loop
    # ------------------------------------------------------------------
    def _execute(self, miss_indices: list[int]) -> None:
        cfg = self.config
        index_shards = shard_candidates(miss_indices,
                                        self._shard_count(miss_indices))
        pending: deque[_ShardJob] = deque(
            _ShardJob(indices=tuple(shard))
            for shard in index_shards if shard)
        active: list[_Active] = []
        self._degraded = False

        try:
            while pending or active:
                self._beat()
                now = time.time()
                # launch ready work onto free workers
                while (not self._degraded and pending
                       and len(active) < self.workers):
                    job = self._next_ready(pending, now)
                    if job is None:
                        break
                    handle = self._launch(job)
                    if handle is None:       # spawn failed → degrade
                        pending.appendleft(job)
                        break
                    active.append(handle)

                if self._degraded and not active:
                    # one shard per tick so the heartbeat keeps firing
                    # between in-process shard runs; a retry still
                    # waits out its backoff below
                    job = self._next_ready(pending, now)
                    if job is not None:
                        self._run_in_process(pending, job)
                        continue

                if not active:
                    # everything pending is backing off
                    wake = min(job.not_before for job in pending)
                    time.sleep(max(0.0, min(wake - time.time(),
                                            POLL_INTERVAL)))
                    continue

                ready = _connection_wait(
                    [handle.conn for handle in active],
                    timeout=POLL_INTERVAL)
                now = time.time()
                by_conn = {handle.conn: handle for handle in active}
                for conn in ready:
                    handle = by_conn[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        message = None
                    self._reap(handle)
                    active.remove(handle)
                    if message is None:
                        exitcode = handle.process.exitcode
                        self._health.crashes += 1
                        self._health.workers_replaced += 1
                        self._failure(
                            pending, handle.job, ANOMALY_CRASH,
                            f"worker pid {handle.process.pid} died "
                            f"with exit code {exitcode} before "
                            f"reporting", handle.process.pid,
                            now - handle.started)
                    elif message[0] == "ok":
                        _, pid, part, seconds = message
                        self._complete(handle.job, pid, part, seconds)
                    else:
                        _, pid, (exc_type, text), seconds = message
                        if exc_type in _HANG_EXCEPTIONS:
                            kind = ANOMALY_HANG
                            self._health.hangs += 1
                        else:
                            kind = ANOMALY_EXCEPTION
                            self._health.exceptions += 1
                        self._failure(pending, handle.job, kind,
                                      text, pid, seconds)

                # wall-clock deadlines
                if cfg.shard_timeout is not None:
                    now = time.time()
                    for handle in list(active):
                        if now - handle.started <= cfg.shard_timeout:
                            continue
                        pid = handle.process.pid
                        self._kill(handle)
                        active.remove(handle)
                        self._health.hangs += 1
                        self._health.workers_replaced += 1
                        self._failure(
                            pending, handle.job, ANOMALY_HANG,
                            f"shard exceeded the {cfg.shard_timeout}s "
                            f"wall-clock timeout and worker pid "
                            f"{pid} was killed", pid,
                            now - handle.started)
        except BaseException:
            for handle in active:
                self._kill(handle)
            raise

    def _shard_count(self, miss_indices: list[int]) -> int:
        """Default shard count for this run.

        With a store attached, shards are capped at the simulator's
        pass size so completed work persists after every pass (a
        SIGKILLed campaign resumes from the last flushed shard, not
        from zero) — and since a pass simulates ``machines_per_pass``
        faults at once anyway, slicing at pass boundaries leaves the
        total pass count (and cost) identical to a one-shard run.
        Without a store nothing is flushed, so one shard per worker
        minimizes overhead.
        """
        if self.shards is not None:
            return self.shards
        if self.cache is None or self._fingerprints is None:
            return self.workers
        chunk = max(1, self.spec.config.resolved_machines_per_pass())
        return max(self.workers, -(-len(miss_indices) // chunk))

    @staticmethod
    def _next_ready(pending: deque, now: float) -> _ShardJob | None:
        """Pop the first job whose backoff delay has elapsed."""
        for _ in range(len(pending)):
            job = pending.popleft()
            if job.not_before <= now:
                return job
            pending.append(job)
        return None

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def _launch(self, job: _ShardJob) -> _Active | None:
        """Spawn one worker for a shard attempt; ``None`` degrades."""
        try:
            return self._spawn(job)
        except OSError:
            self._degraded = True
            self._health.degraded = True
            return None

    def _spawn(self, job: _ShardJob) -> _Active:
        mp = get_context(self.start_method or _default_start_method())
        recv_conn, send_conn = mp.Pipe(duplex=False)
        process = mp.Process(
            target=_supervised_worker,
            args=(send_conn, self._manager,
                  [self._faults[i] for i in job.indices]),
            daemon=True)
        process.start()
        send_conn.close()   # keep only the child's write end open
        return _Active(job=job, process=process, conn=recv_conn)

    def _reap(self, handle: _Active) -> None:
        handle.conn.close()
        handle.process.join(timeout=5.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join()

    def _kill(self, handle: _Active) -> None:
        try:
            handle.process.kill()
            handle.process.join()
        finally:
            handle.conn.close()

    def _run_in_process(self, pending: deque, job: _ShardJob) -> None:
        """Degraded mode: run the shard in this process.

        Exceptions (including cycle-budget hangs) are still contained
        and feed the same retry/bisect/quarantine path; crashes and
        wall-clock hangs cannot be contained without process
        isolation.
        """
        start = time.time()
        try:
            part = self._manager.run_batches(
                [self._faults[i] for i in job.indices])
        except Exception as exc:
            if type(exc).__name__ in _HANG_EXCEPTIONS:
                kind = ANOMALY_HANG
                self._health.hangs += 1
            else:
                kind = ANOMALY_EXCEPTION
                self._health.exceptions += 1
            self._failure(pending, job, kind, traceback.format_exc(),
                          os.getpid(), time.time() - start)
            return
        self._complete(job, os.getpid(), part, time.time() - start)

    # ------------------------------------------------------------------
    # outcome handling
    # ------------------------------------------------------------------
    def _complete(self, job: _ShardJob, pid: int,
                  part: CampaignResult, seconds: float) -> None:
        for i, res in zip(job.indices, part.results):
            self._merged[i] = res
        self._result.passes += part.passes
        self._result.cycles_simulated += part.cycles_simulated
        self._result.merge_toggles(part)
        self._stats.shards.append(ShardStats(
            shard=self._shard_seq, worker=pid,
            faults=len(part.results), passes=part.passes,
            cycles=part.cycles_simulated, wall_seconds=seconds))
        self._shard_seq += 1
        self._log_attempt(job, "ok", pid, seconds, None)
        if self.cache is not None and self._fingerprints is not None:
            self.cache._persist(
                [(self._fingerprints[i], res)
                 for i, res in zip(job.indices, part.results)])
            self.cache.stats.simulated += len(part.results)
        if self.progress is not None:
            self.progress(self._done_count(), self._total)

    def _failure(self, pending: deque, job: _ShardJob, kind: str,
                 detail: str, pid: int | None,
                 seconds: float) -> None:
        job.attempts += 1
        self._log_attempt(job, kind, pid, seconds, detail)
        cfg = self.config
        if job.attempts <= cfg.max_retries:
            self._health.retries += 1
            job.not_before = time.time() + decorrelated_delay(
                job.attempts, cfg.backoff_base, RETRY_BACKOFF_FACTOR,
                cap=RETRY_BACKOFF_CAP)
            pending.append(job)
            return
        if not cfg.quarantine:
            names = ", ".join(self._faults[i].name
                              for i in job.indices[:4])
            raise CampaignAborted(
                f"shard {job.label} ({names}{'…' if len(job.indices) > 4 else ''}) "
                f"failed with {kind} after {job.attempts} attempt(s) "
                f"and quarantine is disabled:\n{detail}")
        if len(job.indices) > 1:
            # bisect: isolate the poison fault(s) in O(log n) attempts
            self._health.bisections += 1
            mid = len(job.indices) // 2
            pending.append(_ShardJob(indices=job.indices[:mid]))
            pending.append(_ShardJob(indices=job.indices[mid:]))
            return
        index = job.indices[0]
        fault = self._faults[index]
        self._quarantined[index] = FaultAnomaly(
            fault_name=fault.name, zone=fault.zone, kind=kind,
            worker=pid, traceback=detail, wall_seconds=seconds,
            attempts=job.attempts)
        if self.progress is not None:
            self.progress(self._done_count(), self._total)

    def _log_attempt(self, job: _ShardJob, status: str,
                     pid: int | None, seconds: float,
                     detail: str | None) -> None:
        self._attempt_log.append(
            (job.label, job.attempts, status, len(job.indices), pid,
             seconds, detail))

    # ------------------------------------------------------------------
    # store finalization
    # ------------------------------------------------------------------
    def _finalize_store(self, ctx, run_id) -> None:
        from ..store.db import AnomalyRow
        fps = self._fingerprints
        fresh = [AnomalyRow(
            fault_fp=fps[i], fault_name=anomaly.fault_name,
            zone=anomaly.zone, kind=anomaly.kind,
            worker=anomaly.worker, traceback=anomaly.traceback,
            wall_seconds=anomaly.wall_seconds,
            attempts=anomaly.attempts, run_id=run_id)
            for i, anomaly in self._quarantined.items()
            if not anomaly.known]
        if fresh:
            self.cache.db.put_anomalies(fresh)
        if self._attempt_log:
            self.cache.db.put_shard_attempts(run_id,
                                             self._attempt_log)
        result = self._result
        counts = result.outcomes()
        if self._quarantined:
            counts["quarantined"] = len(self._quarantined)
        membership = []
        for i, fault in enumerate(self._faults):
            if i in self._quarantined:
                outcome = "quarantined"
            else:
                outcome = result.outcome_of(self._merged[i])
            membership.append((fps[i], fault.name, fault.zone,
                               outcome))
        self.cache.db.finish_run(
            run_id,
            hits=self._plan_hits,
            misses=len(self._faults) - self._plan_hits,
            measured_dc=result.measured_dc(),
            safe_fraction=result.measured_safe_fraction(),
            outcome_counts=counts,
            wall_seconds=result.wall_seconds, membership=membership)
