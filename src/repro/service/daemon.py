"""``soc-fmea serve`` — the supervisor-of-supervisors loop.

Each worker owns a claim loop: claim a job off the queue, mark it
running, execute it through :class:`~repro.service.core.CampaignService`
(which runs the existing fault-tolerant
:class:`~repro.faultinjection.supervisor.CampaignSupervisor`
underneath), and heartbeat the lease from inside the supervisor's
event loop.  The failure model stacks three layers:

* a *simulation worker* dying is the supervisor's problem (retry,
  bisect, quarantine — PR 3);
* the *daemon worker* dying is the queue's problem: its heartbeats
  stop, the lease expires, and any healthy ``serve`` process
  re-claims the job, resuming from the content-addressed store so
  only unfinished cones are re-simulated;
* a job failing on every attempt is *dead-lettered* with a structured
  diagnostic — the job-level analogue of a quarantined fault — and
  the daemon exits 3 (completed with bounded evidence) rather than
  looping forever.

With ``--workers N`` the daemon runs N claim loops in child
processes and replaces any that die; ``--drain`` exits once the
queue holds no actionable work (the mode CI and tests use).

Nothing here sleeps out a fixed period while it could act.  An idle
claim loop waits on the queue's in-process change feed
(:data:`~repro.service.queue.CHANGE_FEED`), so a submit, a release or
a stop request in this process wakes it at once; ``poll_interval``
is only the fallback for what the feed cannot see: a submit from
another process, an expired lease, an elapsed retry backoff.  The
pool parent waits on its children's exit sentinels, so a dead worker
is replaced, and a drained pool returns, as soon as the child exits;
a stop request writes to a pipe in the same wait, so SIGTERM ends it
at once too.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time
from dataclasses import dataclass

from ..chaos.failpoints import fail_at
from ..store.errors import StoreIOError
from .core import (
    EXIT_DIAGNOSTIC,
    EXIT_OK,
    EXIT_QUARANTINE,
    CampaignRequest,
    CampaignService,
)
from .queue import CHANGE_FEED, JOB_DEAD, JobLeaseLost, JobQueue, \
    JobRow, QueuePolicy


class _GracefulStop(Exception):
    """Raised out of the heartbeat when SIGTERM/SIGINT asked for a
    drain: the supervisor aborts (every flushed shard is already in
    the store), the lease is released explicitly, and the daemon
    exits 0 instead of losing up to a lease period to expiry."""


@dataclass
class DaemonConfig:
    """One ``serve`` invocation's policy."""

    workers: int = 1
    #: lease length granted on claim and renewed per heartbeat
    lease_seconds: float = 30.0
    #: how often the supervisor loop renews the lease
    heartbeat_interval: float = 1.0
    #: fallback period of an idle claim loop: a transition committed
    #: in this process wakes it at once, this period bounds how late
    #: it sees another process's submit, a lease expiry or a backoff
    #: ending
    poll_interval: float = 0.5
    #: exit once no actionable work remains (instead of serving
    #: forever)
    drain: bool = False
    #: pause before re-polling after a store i/o failure (disk full);
    #: the paused job is *released*, not failed — see E413
    io_pause_seconds: float = 5.0
    #: print per-job lifecycle lines
    verbose: bool = True


def _owner_token(index: int) -> str:
    return f"{socket.gethostname()}:{os.getpid()}:{index}"


def _diagnostic_error(outcome) -> dict:
    """Condense a failed outcome's stderr into a structured,
    traceback-free error record (the dead-letter payload)."""
    text = outcome.err.strip() or outcome.out.strip()
    lines = [line for line in text.splitlines() if line.strip()]
    # headline: the first substantive line, not a report decoration
    content = [line for line in lines
               if not line.startswith(("===", "---"))]
    return {
        "kind": "diagnostic" if outcome.exit_code == EXIT_DIAGNOSTIC
        else "failure",
        "exit_code": outcome.exit_code,
        "message": (content[0].strip() if content
                    else "campaign failed"),
        "detail": "\n".join(lines[:20]),
    }


class ServiceDaemon:
    """Claims and executes queued campaign jobs against one store."""

    def __init__(self, store_root, config: DaemonConfig | None = None):
        self.config = config or DaemonConfig()
        self.service = CampaignService(store_root)
        self.root = self.service.root
        self._stop = False
        #: write end of the pool parent's wake pipe
        self._wake: int | None = None

    # ------------------------------------------------------------------
    # graceful shutdown
    # ------------------------------------------------------------------
    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT request a graceful drain: the current job
        is checkpointed (flushed shards are already durable) and
        released, then the daemon exits 0.  No-op when not on the
        main thread (embedded use)."""
        def handler(signum, frame):
            self.request_stop()
            try:
                name = signal.Signals(signum).name
            except ValueError:
                name = str(signum)
            self._log(f"received {name} — draining gracefully")
        try:
            signal.signal(signal.SIGTERM, handler)
            signal.signal(signal.SIGINT, handler)
        except ValueError:
            pass

    def request_stop(self) -> None:
        """Ask every claim loop to drain, waking the idle ones and the
        pool parent now."""
        self._stop = True
        CHANGE_FEED.bump()
        if self._wake is not None:
            os.write(self._wake, b"\0")

    # ------------------------------------------------------------------
    # one worker's claim loop
    # ------------------------------------------------------------------
    def worker_loop(self, index: int = 0) -> int:
        """Claim and execute jobs until the queue drains (drain mode),
        a shutdown signal arrives, or forever; returns the number of
        jobs executed."""
        cfg = self.config
        owner = _owner_token(index)
        executed = 0
        fail_at("daemon.spawn")
        queue = JobQueue(self.root, policy=QueuePolicy(
            lease_seconds=cfg.lease_seconds))
        try:
            while True:
                # read before the stop check and the claim: a bump
                # after this point ends the wait below at once
                seen = CHANGE_FEED.version
                if self._stop:
                    return executed
                try:
                    job = queue.claim(owner, cfg.lease_seconds)
                except StoreIOError as exc:
                    self._log(f"worker {index}: store unavailable "
                              f"({exc}) — "
                              + ("exiting drain" if cfg.drain
                                 else "pausing"))
                    if cfg.drain:
                        return executed
                    time.sleep(cfg.io_pause_seconds)
                    continue
                if job is None:
                    if cfg.drain and not queue.has_work():
                        fail_at("daemon.drain")
                        return executed
                    CHANGE_FEED.wait(seen, cfg.poll_interval)
                    continue
                self._log(f"worker {index}: claimed job "
                          f"#{job.job_id} (attempt {job.attempts}/"
                          f"{job.max_attempts})")
                status = self._execute(queue, job, owner, index)
                executed += 1
                if status == "io-paused":
                    if cfg.drain:
                        # the outage won't clear while we spin; leave
                        # the released job queued for the next serve
                        return executed
                    time.sleep(cfg.io_pause_seconds)
        finally:
            queue.close()

    def _execute(self, queue: JobQueue, job: JobRow, owner: str,
                 index: int) -> str | None:
        cfg = self.config
        try:
            request = CampaignRequest.from_dict(job.spec)
        except (TypeError, ValueError) as exc:
            queue.fail(job.job_id, owner, {
                "kind": "diagnostic", "exit_code": EXIT_DIAGNOSTIC,
                "message": f"unreadable job spec: {exc}",
                "detail": json.dumps(job.spec)[:500]}, fatal=True)
            return
        queue.start(job.job_id, owner)
        service = CampaignService(self.root, project=job.project)
        cache = service.open_cache() if request.use_cache else None
        recorded = False
        latest = {"sent": None, "done": None, "total": None}

        def progress(done, total):
            latest["done"], latest["total"] = done, total

        def heartbeat():
            nonlocal recorded
            if self._stop:
                raise _GracefulStop()
            if (not recorded and cache is not None
                    and cache.last_run_id is not None):
                recorded = queue.record_run(job.job_id, owner,
                                            cache.last_run_id)
            # progress piggybacks on the lease renewal: one write,
            # and observers (jobs status --follow, the API's event
            # stream) read it off the job row
            snapshot = None
            if latest["done"] is not None \
                    and latest["done"] != latest["sent"]:
                snapshot = {"done": latest["done"],
                            "total": latest["total"]}
            if not queue.heartbeat(job.job_id, owner,
                                   cfg.lease_seconds,
                                   progress=snapshot):
                raise JobLeaseLost(
                    f"job #{job.job_id} lease lost (cancelled or "
                    f"re-claimed)")
            if snapshot is not None:
                latest["sent"] = latest["done"]

        try:
            outcome = service.run_campaign(
                request, progress=progress, cache=cache,
                heartbeat=heartbeat,
                heartbeat_interval=cfg.heartbeat_interval)
        except JobLeaseLost as exc:
            self._log(f"worker {index}: {exc} — abandoning")
            return "lease-lost"
        except _GracefulStop:
            released = queue.release(job.job_id, owner)
            self._log(f"worker {index}: job #{job.job_id} "
                      + ("released (checkpointed to store)"
                         if released else "lease already gone")
                      + " — shutting down")
            return "stopped"
        except StoreIOError as exc:
            # environmental, not the job's fault: release (refunding
            # the attempt) with a pause instead of dead-lettering
            try:
                released = queue.release(
                    job.job_id, owner, delay=cfg.io_pause_seconds,
                    error={"kind": "io-pause",
                           "message": str(exc).splitlines()[0][:200]})
            except StoreIOError:
                # the queue shares the sick disk; lease expiry is the
                # backstop release
                released = False
            self._log(f"worker {index}: job #{job.job_id} hit a "
                      f"store i/o failure — "
                      + (f"released with {cfg.io_pause_seconds:.0f}s "
                         f"pause" if released else "lease already "
                         "gone"))
            return "io-paused"
        except Exception as exc:  # noqa: BLE001 — job-level contain
            queue.fail(job.job_id, owner, {
                "kind": "exception", "exit_code": 1,
                "message": f"{type(exc).__name__}: {exc}",
                "detail": f"internal error while executing job "
                          f"#{job.job_id}; re-run with "
                          f"SOCFMEA_DEBUG=1 outside the daemon for "
                          f"a traceback"})
            self._log(f"worker {index}: job #{job.job_id} raised "
                      f"{type(exc).__name__}")
            return "failed"
        finally:
            if cache is not None:
                try:
                    if not recorded and cache.last_run_id is not None:
                        recorded = queue.record_run(job.job_id, owner,
                                                    cache.last_run_id)
                except StoreIOError:    # the queue's disk is full
                    pass
                cache.close()

        if outcome.exit_code in (EXIT_OK, EXIT_QUARANTINE):
            queue.complete(job.job_id, owner, outcome.summary_dict())
            self._log(f"worker {index}: job #{job.job_id} done "
                      f"(exit {outcome.exit_code})")
        else:
            # exit 2 is a coded input diagnostic — deterministic, so
            # retrying cannot help: dead-letter on the first attempt
            status = queue.fail(
                job.job_id, owner, _diagnostic_error(outcome),
                fatal=outcome.exit_code == EXIT_DIAGNOSTIC)
            self._log(f"worker {index}: job #{job.job_id} failed "
                      f"(exit {outcome.exit_code}) → "
                      f"{status or 'lease lost'}")

    # ------------------------------------------------------------------
    # the serve entry point
    # ------------------------------------------------------------------
    def serve(self) -> int:
        """Run the daemon; returns the process exit code (0 clean,
        3 when dead-letter jobs remain — bounded evidence).

        SIGTERM/SIGINT drain gracefully: the in-flight job is
        checkpointed and released, and the exit code is 0."""
        cfg = self.config
        self.install_signal_handlers()
        self._log(f"serving {self.root} with {cfg.workers} "
                  f"worker(s), {cfg.lease_seconds:.0f}s leases"
                  + (" (drain mode)" if cfg.drain else ""))
        try:
            if cfg.workers == 1:
                self.worker_loop(0)
            else:
                self._serve_pool()
        except KeyboardInterrupt:
            self._log("interrupted — exiting")
        with JobQueue(self.root) as queue:
            dead = queue.counts().get(JOB_DEAD, 0)
        if dead:
            self._log(f"{dead} job(s) in dead-letter — "
                      f"inspect with 'soc-fmea jobs list'")
            return EXIT_QUARANTINE
        return EXIT_OK

    def _serve_pool(self) -> None:
        """N claim loops in child processes; a child that dies is
        replaced as soon as it exits (its in-flight job recovers via
        lease expiry)."""
        from multiprocessing import get_context
        from multiprocessing.connection import wait
        from ..faultinjection.parallel import _default_start_method
        cfg = self.config
        mp = get_context(_default_start_method())
        alive: dict[int, object] = {}
        wake, self._wake = os.pipe()
        os.set_blocking(self._wake, False)

        def spawn(index: int):
            process = mp.Process(
                target=_pool_worker,
                args=(str(self.root), self.config, index),
                daemon=True)
            process.start()
            return process

        for index in range(cfg.workers):
            alive[index] = spawn(index)
        try:
            while alive:
                if self._stop:
                    # forward the drain request; children handle
                    # SIGTERM by checkpointing + releasing (exit 0)
                    for process in alive.values():
                        process.terminate()
                    for process in alive.values():
                        process.join(timeout=30.0)
                    return
                wait([wake, *(process.sentinel
                              for process in alive.values())],
                     timeout=cfg.poll_interval)
                for index, process in list(alive.items()):
                    if process.is_alive():
                        continue
                    if process.exitcode == 0 \
                            and (cfg.drain or self._stop):
                        del alive[index]     # drained cleanly
                        continue
                    self._log(f"worker {index} died (exit "
                              f"{process.exitcode}) — replacing")
                    alive[index] = spawn(index)
        finally:
            for process in alive.values():
                process.terminate()
            for process in alive.values():
                process.join(timeout=5.0)
            write, self._wake = self._wake, None
            os.close(write)
            os.close(wake)

    def _log(self, message: str) -> None:
        if self.config.verbose:
            print(f"serve: {message}", flush=True)


def _pool_worker(root: str, config: DaemonConfig,
                 index: int) -> None:
    """Child-process entry point of one pooled claim loop."""
    daemon = ServiceDaemon(root, config)
    # the pool parent forwards SIGTERM; each child drains its own job
    daemon.install_signal_handlers()
    daemon.worker_loop(index)
