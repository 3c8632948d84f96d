"""The campaign API server — ``soc-fmea serve --http HOST:PORT``.

A stdlib-``asyncio`` HTTP/JSON front end over the existing
:class:`~repro.service.queue.JobQueue` /
:class:`~repro.service.core.CampaignService` stack.  Designed
robustness-first, the PR-9 way: every failure mode is enumerated,
coded, and injectable —

* **bad input** → E420/E424/E425 4xx (bounded parsing, never a
  traceback);
* **authn/authz** → E421 401 / E422 403;
* **overload** → admission control sheds at the queue-depth
  watermark (E427 / 429 + ``Retry-After``) and at per-project quotas
  (E426 / 429);
* **store faults** → a disk-full/i/o-paused store answers E428 / 503
  + ``Retry-After`` while the queue holds jobs instead of
  dead-lettering;
* **server death** → client idempotency keys make a retried submit
  converge on the same job (see :mod:`repro.api.client`), and the
  content-addressed store makes the re-claimed job resume warm;
* **graceful SIGTERM** → stop accepting, finish in-flight responses,
  release worker leases via the daemon's drain path, exit 0.

Endpoints (all JSON; the error body is ``{"error": {"code",
"title", "message", "hint", "retry_after"?}}``):

==============================  =====================================
``GET  /healthz``               process liveness
``GET  /readyz``                store reachability + E410 lease audit
``POST /v1/jobs``               submit a campaign (idempotency keys)
``GET  /v1/jobs``               list jobs (``?project=``/``?status=``)
``GET  /v1/jobs/<id>``          one job's state
``GET  /v1/jobs/<id>/events``   chunked JSON-line progress stream
``POST /v1/jobs/<id>/cancel``   cancel an active job
``POST /v1/jobs/<id>/retry``    re-queue a dead/cancelled job
==============================  =====================================

Concurrency model: the event loop owns the sockets; every queue/store
touch runs in a worker thread (``asyncio.to_thread``) on a *fresh*
SQLite connection, so a slow disk stalls one request, not the loop.
Campaign execution itself lives in embedded
:class:`~repro.service.daemon.ServiceDaemon` worker threads (or a
separate ``soc-fmea serve`` daemon pointed at the same store — the
queue is the only coupling).

An event stream wakes on the queue's in-process change feed
(:data:`~repro.service.queue.CHANGE_FEED`): a transition committed by
an embedded worker or by a request of this server reaches the client
at once, without a thread blocked per stream.  ``stream_poll_interval``
is the fallback period for transitions the feed cannot see, those of
a separate daemon process and lease expiry.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from dataclasses import dataclass

from ..chaos.failpoints import fail_at
from ..diagnostics import DiagnosticError
from ..diagnostics.codes import default_hint, describe
from ..service.core import CampaignRequest, CampaignService
from ..service.queue import CHANGE_FEED, JobQueue, JobRow
from ..store.db import StoreBusyError
from ..store.errors import StoreIOError
from .auth import AuthConfig, estimate_faults
from .events import TERMINAL_STATES, event_key, job_event
from .protocol import (
    REQUEST_TIMEOUT,
    ProtocolError,
    Request,
    chunk,
    chunked_head,
    last_chunk,
    read_request,
    response_bytes,
)

#: spec fields a submit body may carry beyond CampaignRequest's
_SUBMIT_META_FIELDS = ("project", "max_attempts", "idempotency_key")

#: rolling window of the faults-per-day quota
_QUOTA_WINDOW_SECONDS = 86400.0

#: Retry-After for overload (429) and lock-contention responses
OVERLOAD_RETRY_AFTER = 2.0
#: Retry-After for store-fault (503) responses — matches the daemon's
#: io-pause
IO_RETRY_AFTER = 5.0


@dataclass
class ApiConfig:
    """One ``serve --http`` invocation's policy."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral (tests)
    #: auth file path (None = open mode, see repro.api.auth)
    auth_path: str | None = None
    #: global admission watermark: active jobs beyond this shed
    #: submits with E427 / 429 + Retry-After
    max_queue_depth: int = 64
    #: fallback period of the progress stream: a transition committed
    #: in this process wakes it at once, this period bounds how late
    #: it sees one made by another process or a lease expiry
    stream_poll_interval: float = 0.2
    verbose: bool = True


class ApiError(Exception):
    """A request outcome with an HTTP status and diagnostic code."""

    def __init__(self, status: int, code: str, message: str,
                 retry_after: float | None = None,
                 diagnostics: list | None = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after
        self.diagnostics = diagnostics


def error_payload(code: str, message: str,
                  retry_after: float | None = None,
                  diagnostics: list | None = None) -> dict:
    error = {
        "code": code,
        "title": describe(code),
        "message": message,
    }
    hint = default_hint(code)
    if hint:
        error["hint"] = hint
    if retry_after is not None:
        error["retry_after"] = retry_after
    if diagnostics:
        error["diagnostics"] = diagnostics
    return {"error": error}


def _job_payload(job: JobRow) -> dict:
    payload = job_event(job)
    payload["created_at"] = job.created_at
    payload["updated_at"] = job.updated_at
    if job.idempotency_key is not None:
        payload["idempotency_key"] = job.idempotency_key
    if job.run_id is not None:
        payload["run_id"] = job.run_id
    return payload


class ApiServer:
    """The HTTP front end rooted at one campaign store."""

    def __init__(self, store_root, config: ApiConfig | None = None,
                 daemon=None):
        self.config = config or ApiConfig()
        self.service = CampaignService(store_root)
        self.root = self.service.root
        self.auth = AuthConfig.load(self.config.auth_path) \
            if self.config.auth_path else AuthConfig.open()
        #: optional embedded ServiceDaemon whose worker loops run in
        #: threads of this process (None = queue-only front end)
        self.daemon = daemon
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._stopping: asyncio.Event | None = None
        self._inflight: set[asyncio.Task] = set()
        self._workers: list[threading.Thread] = []
        self.port: int | None = None
        self._started = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until :meth:`stop` or SIGTERM/SIGINT; returns the
        process exit code (always 0 on a graceful drain)."""
        return asyncio.run(self._main())

    def stop(self) -> None:
        """Request a graceful stop from any thread."""
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self._request_stop, "stop()")

    def wait_started(self, timeout: float = 10.0) -> bool:
        return self._started.wait(timeout)

    def _request_stop(self, why: str) -> None:
        if self._stopping is not None \
                and not self._stopping.is_set():
            self._log(f"received {why} — draining gracefully")
            self._stopping.set()

    async def _main(self) -> int:
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self._request_stop,
                    signal.Signals(signum).name)
            except (NotImplementedError, RuntimeError):
                pass
        if self.daemon is not None:
            self._start_workers()
        self._server = await asyncio.start_server(
            self._client, cfg.host, cfg.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._log(f"listening on http://{cfg.host}:{self.port} "
                  f"(store {self.root}, "
                  + ("open mode" if self.auth.open_mode
                     else "token auth") + ")")
        self._started.set()
        await self._stopping.wait()
        # graceful drain: no new connections, finish in-flight
        # responses, then release the embedded workers' leases
        self._server.close()
        await self._server.wait_closed()
        if self._inflight:
            await asyncio.wait(
                set(self._inflight),
                timeout=REQUEST_TIMEOUT)
        self._stop_workers()
        self._log("drained — exiting")
        return 0

    def _start_workers(self) -> None:
        for index in range(self.daemon.config.workers):
            thread = threading.Thread(
                target=self.daemon.worker_loop, args=(index,),
                name=f"campaign-worker-{index}", daemon=True)
            thread.start()
            self._workers.append(thread)

    def _stop_workers(self) -> None:
        if self.daemon is None:
            return
        # the daemon's own drain path: idle claim loops wake, the
        # heartbeat raises _GracefulStop, the supervisor checkpoints,
        # the lease is released — same as SIGTERM on a standalone serve
        self.daemon.request_stop()
        for thread in self._workers:
            thread.join(timeout=30.0)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._inflight.add(task)
        try:
            await self._client_inner(reader, writer)
        finally:
            self._inflight.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _client_inner(self, reader, writer) -> None:
        try:
            fail_at("api.accept")
            request = await read_request(reader)
            if request is None:
                return
            await self._dispatch(request, writer)
        except ProtocolError as err:
            await self._respond(
                writer, err.status,
                error_payload(err.code, str(err)))
        except ApiError as err:
            await self._respond_error(writer, err)
        except ConnectionError:
            pass                      # client went away mid-response
        except StoreIOError as err:
            await self._respond_error(writer, self._unavailable(err))
        except StoreBusyError as err:
            await self._respond_error(writer, ApiError(
                503, _store_code(err, "E409"),
                "store write lock is contended; retry",
                retry_after=OVERLOAD_RETRY_AFTER))
        except OSError as err:
            # an injected (or real) disk fault outside the store
            # wrappers still degrades coded, never a traceback
            await self._respond_error(writer, ApiError(
                503, "E428", f"i/o failure while serving the "
                             f"request: {err}",
                retry_after=IO_RETRY_AFTER))
        except DiagnosticError as err:
            report = getattr(err, "report", None)
            await self._respond_error(writer, ApiError(
                400, _store_code(err, "E420"),
                "request failed validation",
                diagnostics=_report_payload(report)))
        except Exception as err:  # noqa: BLE001 — coded containment
            await self._respond_error(writer, ApiError(
                500, "E001",
                f"internal error: {type(err).__name__}: {err}"))

    def _unavailable(self, err) -> ApiError:
        # E428 is the API-surface code; the store's own E413/E414
        # cause rides along in the message and diagnostics
        return ApiError(
            503, "E428",
            f"store unavailable "
            f"({_store_code(err, 'io-pause')}): "
            f"{_first_line(err)}",
            retry_after=IO_RETRY_AFTER,
            diagnostics=_report_payload(
                getattr(err, "report", None)))

    async def _respond_error(self, writer, err: ApiError) -> None:
        try:
            await self._respond(
                writer, err.status,
                error_payload(err.code, str(err),
                              retry_after=err.retry_after,
                              diagnostics=err.diagnostics),
                retry_after=err.retry_after)
        except (ConnectionError, OSError):
            pass

    async def _respond(self, writer, status: int, payload: dict,
                       retry_after: float | None = None) -> None:
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = str(
                max(int(round(retry_after)), 1))
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        # crash window: the request's effect (e.g. an enqueued job)
        # is durable but the client never hears — recovery is the
        # client's idempotency-key retry
        fail_at("api.pre-response")
        writer.write(response_bytes(status, body, headers=headers))
        await writer.drain()
        fail_at("api.post-response")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request, writer) -> None:
        path, method = request.path, request.method
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {"ok": True})
            return
        if path == "/readyz" and method == "GET":
            await self._readyz(writer)
            return
        if path == "/v1/jobs":
            if method == "POST":
                await self._submit(request, writer)
                return
            if method == "GET":
                await self._list_jobs(request, writer)
                return
            raise ApiError(405, "E420",
                           f"{method} not allowed on {path}")
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 3 and parts[0] == "v1" \
                and parts[1] == "jobs":
            try:
                job_id = int(parts[2])
            except ValueError:
                raise ApiError(404, "E423",
                               f"bad job id {parts[2]!r}") from None
            action = parts[3] if len(parts) > 3 else None
            if action is None and method == "GET":
                await self._job_detail(request, job_id, writer)
                return
            if action == "events" and method == "GET":
                await self._stream(request, job_id, writer)
                return
            if action in ("cancel", "retry") and method == "POST":
                await self._job_action(request, job_id, action,
                                       writer)
                return
        raise ApiError(404, "E423", f"no route {method} {path}")

    # ------------------------------------------------------------------
    # queue access (worker threads, fresh connection per op)
    # ------------------------------------------------------------------
    async def _queue_op(self, op):
        def call():
            with JobQueue(self.root) as queue:
                return op(queue)
        return await asyncio.to_thread(call)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _readyz(self, writer) -> None:
        cfg = self.config

        def audit(queue: JobQueue):
            import time as _time
            counts = queue.counts()
            stale = len(queue.db.stale_job_leases(_time.time()))
            return counts, stale

        try:
            counts, stale = await self._queue_op(audit)
        except StoreIOError as err:
            raise self._unavailable(err) from None
        active = sum(counts.get(s, 0)
                     for s in ("queued", "leased", "running"))
        if active >= cfg.max_queue_depth:
            raise ApiError(
                503, "E427",
                f"queue depth {active} is at the watermark "
                f"({cfg.max_queue_depth})",
                retry_after=OVERLOAD_RETRY_AFTER)
        await self._respond(writer, 200, {
            "ready": True,
            "jobs": counts,
            "stale_leases": stale,     # doctor's E410 audit, live
        })

    async def _submit(self, request: Request, writer) -> None:
        principal = self._authenticate(request)
        data = _parse_json_object(request)
        unknown = [k for k in data
                   if k not in _SUBMIT_META_FIELDS
                   and k not in CampaignRequest.__dataclass_fields__]
        if unknown:
            raise ApiError(
                400, "E420",
                f"unknown field(s): {', '.join(sorted(unknown))}")
        try:
            project = principal.resolve_project(data.get("project"))
        except PermissionError as err:
            raise ApiError(403, "E422", str(err)) from None
        spec_fields = {k: v for k, v in data.items()
                       if k not in _SUBMIT_META_FIELDS}
        try:
            campaign = CampaignRequest.from_dict(spec_fields)
        except (TypeError, ValueError) as err:
            raise ApiError(400, "E420",
                           f"bad request body: {err}") from None
        report = campaign.validate()
        if not report.ok:
            raise ApiError(400, "E420",
                           "campaign request failed validation",
                           diagnostics=_report_payload(report))
        max_attempts = data.get("max_attempts")
        if max_attempts is not None and (
                not isinstance(max_attempts, int)
                or max_attempts < 1):
            raise ApiError(400, "E430",
                           f"max_attempts must be a positive "
                           f"integer, got {max_attempts!r}")
        idem_key = data.get("idempotency_key") \
            or request.headers.get("idempotency-key")
        if idem_key is not None and (
                not isinstance(idem_key, str)
                or not idem_key.strip() or len(idem_key) > 200):
            raise ApiError(400, "E420",
                           "idempotency_key must be a non-empty "
                           "string of at most 200 characters")

        spec = campaign.to_dict()
        job_id, deduped = await self._admit_and_enqueue(
            principal, project, spec, max_attempts, idem_key)
        self._log(f"job #{job_id} "
                  + ("deduped" if deduped else "submitted")
                  + f" (project {project})")
        await self._respond(writer, 200 if deduped else 201, {
            "job": job_id,
            "project": project,
            "deduped": deduped,
        })

    async def _admit_and_enqueue(self, principal, project: str,
                                 spec: dict,
                                 max_attempts: int | None,
                                 idem_key: str | None):
        """Admission control + enqueue, one thread hop.

        The dedupe check runs before the quotas on purpose: a retry
        of an already-accepted submit must converge on its job even
        when the project has since filled its quota.
        """
        cfg = self.config
        quota = principal.quota

        def admit(queue: JobQueue):
            import time as _time
            fail_at("api.quota-check")
            if idem_key is not None:
                row = queue.db._conn.execute(
                    "SELECT job_id FROM jobs WHERE project=?"
                    " AND idempotency_key=? AND status!='cancelled'"
                    " ORDER BY job_id LIMIT 1",
                    (project, idem_key)).fetchone()
                if row is not None:
                    return row[0], True
            counts = queue.counts()
            active_total = sum(counts.get(s, 0) for s in
                               ("queued", "leased", "running"))
            if active_total >= cfg.max_queue_depth:
                raise ApiError(
                    429, "E427",
                    f"queue depth {active_total} is at the "
                    f"watermark ({cfg.max_queue_depth}); load shed",
                    retry_after=OVERLOAD_RETRY_AFTER)
            mine = queue.jobs(project=project)
            active_mine = [j for j in mine if j.status in
                           ("queued", "leased", "running")]
            if len(active_mine) >= quota.max_queued:
                raise ApiError(
                    429, "E426",
                    f"project {project!r} holds "
                    f"{len(active_mine)} active job(s), at its "
                    f"max_queued quota ({quota.max_queued})",
                    retry_after=OVERLOAD_RETRY_AFTER)
            if quota.max_faults_per_day is not None:
                horizon = _time.time() - _QUOTA_WINDOW_SECONDS
                charged = sum(
                    estimate_faults(j.spec) for j in mine
                    if j.created_at >= horizon
                    and j.status != "cancelled")
                asking = estimate_faults(spec)
                if charged + asking > quota.max_faults_per_day:
                    raise ApiError(
                        429, "E426",
                        f"project {project!r} has ~{charged} "
                        f"fault(s) charged in the last day; "
                        f"+{asking} would exceed its "
                        f"max_faults_per_day quota "
                        f"({quota.max_faults_per_day})",
                        retry_after=min(
                            _QUOTA_WINDOW_SECONDS / 24,
                            3600.0))
            return queue.submit_idempotent(
                spec, project=project, max_attempts=max_attempts,
                idempotency_key=idem_key)

        try:
            return await self._queue_op(admit)
        except StoreIOError as err:
            raise self._unavailable(err) from None

    def _authenticate(self, request: Request):
        try:
            return self.auth.authenticate(
                request.headers.get("authorization"))
        except LookupError as err:
            raise ApiError(401, "E421", str(err)) from None

    async def _list_jobs(self, request: Request, writer) -> None:
        principal = self._authenticate(request)
        project = request.query.get("project")
        if principal.project is not None:
            project = principal.project
        status = request.query.get("status")
        jobs = await self._queue_op(
            lambda q: q.jobs(status=status, project=project))
        await self._respond(writer, 200, {
            "jobs": [_job_payload(j) for j in jobs]})

    async def _get_job(self, job_id: int, principal) -> JobRow:
        job = await self._queue_op(lambda q: q.job(job_id))
        if job is None or (principal.project is not None
                           and job.project != principal.project):
            # a pinned token can't probe other projects' job ids
            raise ApiError(404, "E423", f"no job #{job_id}")
        return job

    async def _job_detail(self, request: Request, job_id: int,
                          writer) -> None:
        principal = self._authenticate(request)
        job = await self._get_job(job_id, principal)
        await self._respond(writer, 200, _job_payload(job))

    async def _job_action(self, request: Request, job_id: int,
                          action: str, writer) -> None:
        principal = self._authenticate(request)
        await self._get_job(job_id, principal)     # 404 on miss
        if action == "cancel":
            done = await self._queue_op(
                lambda q: q.cancel(job_id))
        else:
            done = await self._queue_op(lambda q: q.retry(job_id))
        await self._respond(writer, 200,
                            {"job": job_id, action: done})

    async def _stream(self, request: Request, job_id: int,
                      writer) -> None:
        """Chunked JSON-line progress stream.

        Events are state snapshots of the job row (status, and the
        progress the worker's heartbeat writes), emitted on change;
        the stream ends after the terminal snapshot.  A transition
        committed in this process wakes the stream through the
        queue's change feed; other changes are read every
        ``stream_poll_interval``.  A dropped connection loses nothing:
        reconnecting replays the current state as the first event
        (see :mod:`repro.api.events`).
        """
        cfg = self.config
        principal = self._authenticate(request)
        await self._get_job(job_id, principal)     # 404 before head
        fail_at("api.pre-response")
        writer.write(chunked_head(200))
        await writer.drain()
        loop = asyncio.get_running_loop()
        changed = asyncio.Event()

        def wake():
            try:
                loop.call_soon_threadsafe(changed.set)
            except RuntimeError:
                pass            # the loop has closed: nobody to wake

        CHANGE_FEED.listen(wake)
        try:
            last = None
            while True:
                # clear before the read: a transition committed after
                # this point sets the event again
                changed.clear()
                job = await self._queue_op(lambda q: q.job(job_id))
                if job is None:
                    break          # deleted under us: end the stream
                event = job_event(job)
                key = event_key(event)
                if key != last:
                    # crash window: a mid-stream kill here is the
                    # harness's dropped-stream scenario — the client
                    # reconnects and resumes from the current snapshot
                    fail_at("api.stream")
                    writer.write(chunk(
                        (key + "\n").encode("utf-8")))
                    await writer.drain()
                    last = key
                if job.status in TERMINAL_STATES:
                    break
                if self._stopping is not None \
                        and self._stopping.is_set():
                    break         # drain: finish the response now
                try:
                    await asyncio.wait_for(changed.wait(),
                                           cfg.stream_poll_interval)
                except asyncio.TimeoutError:
                    pass
        finally:
            CHANGE_FEED.unlisten(wake)
        writer.write(last_chunk())
        await writer.drain()
        fail_at("api.post-response")

    def _log(self, message: str) -> None:
        if self.config.verbose:
            print(f"api: {message}", flush=True)


def _parse_json_object(request: Request) -> dict:
    if not request.body:
        return {}
    try:
        data = json.loads(request.body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as err:
        raise ApiError(400, "E420",
                       f"request body is not valid JSON: "
                       f"{err}") from None
    if not isinstance(data, dict):
        raise ApiError(400, "E420",
                       "request body must be a JSON object")
    return data


def _report_payload(report) -> list:
    if report is None:
        return []
    return [{
        "code": d.code,
        "severity": d.severity,
        "message": d.message,
    } for d in report.diagnostics]


def _store_code(err, fallback: str) -> str:
    """The first code of a DiagnosticError's report."""
    report = getattr(err, "report", None)
    if report is not None:
        for d in report.diagnostics:
            return d.code
    return fallback


def _first_line(err) -> str:
    text = str(err).strip()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith(("===", "---")):
            return line[:200]
    return text[:200]
