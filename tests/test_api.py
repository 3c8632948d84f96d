"""Tests of the campaign API stack (:mod:`repro.api`).

Covers the shared event vocabulary (state-snapshot streams), the
token/quota policy objects, the asyncio server's coded degradation
(401/403/404/413/429 + Retry-After, never a traceback), idempotent
submit convergence over real HTTP, progress streaming to a terminal
snapshot, graceful stop, and an end-to-end campaign through embedded
daemon workers.  The crash half of the story — SIGKILL mid-submit /
mid-stream with client retry convergence — lives in the chaos
harness (``soc-fmea chaos``, tests/test_chaos.py).
"""

import http.client
import json
import threading
import time

import pytest

from repro.api import (
    ApiClient,
    ApiClientError,
    ApiConfig,
    ApiServer,
    AuthConfig,
    estimate_faults,
    format_event,
    is_terminal,
    job_event,
    parse_event,
)
from repro.diagnostics import DiagnosticError
from repro.service.daemon import DaemonConfig, ServiceDaemon
from repro.service.queue import JobRow


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
class _RunningServer:
    """Run one ApiServer on its own thread for the test body."""

    def __init__(self, root, config: ApiConfig | None = None,
                 daemon=None):
        self.server = ApiServer(
            root, config or ApiConfig(verbose=False), daemon=daemon)
        self.exit_code: int | None = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.exit_code = self.server.run()

    def __enter__(self) -> ApiServer:
        self.thread.start()
        assert self.server.wait_started(20), "server never bound"
        return self.server

    def __exit__(self, *exc) -> None:
        self.server.stop()
        self.thread.join(timeout=30)


def _client(server: ApiServer, **kw) -> ApiClient:
    kw.setdefault("max_retries", 2)
    kw.setdefault("backoff_base", 0.01)
    kw.setdefault("backoff_cap", 0.05)
    kw.setdefault("backoff_seed", 7)
    kw.setdefault("timeout", 10.0)
    return ApiClient("127.0.0.1", server.port, **kw)


def _job_row(**over) -> JobRow:
    base = dict(
        job_id=1, project="default", status="running",
        spec={"variant": "small-improved"}, attempts=1,
        max_attempts=3, not_before=0.0, lease_owner="w0",
        lease_deadline=None, run_id=None, result=None, error=None,
        created_at=0.0, updated_at=0.0, idempotency_key=None,
        progress={"done": 10, "total": 40})
    base.update(over)
    return JobRow(**base)


# ----------------------------------------------------------------------
# events: resumable state snapshots
# ----------------------------------------------------------------------
def test_event_snapshot_roundtrip():
    event = job_event(_job_row())
    assert event["job"] == 1 and event["status"] == "running"
    assert event["done"] == 10 and event["total"] == 40
    assert not is_terminal(event)
    assert parse_event(json.dumps(event) + "\n") == event
    line = format_event(event)
    assert "job #1 running" in line and "10/40" in line


def test_terminal_event_carries_result():
    event = job_event(_job_row(
        status="done", lease_owner=None,
        result={"measured_dc": 0.94, "safe_fraction": 0.81}))
    assert is_terminal(event)
    assert event["result"]["measured_dc"] == 0.94
    line = format_event(event)
    assert "measured DC" in line and "safe fraction" in line
    # noise lines parse to None instead of raising
    assert parse_event("") is None
    assert parse_event("not json\n") is None


# ----------------------------------------------------------------------
# auth + quota policy
# ----------------------------------------------------------------------
def test_open_mode_allows_any_project():
    principal = AuthConfig.open().authenticate(None)
    assert principal.project is None
    assert principal.resolve_project(None) == "default"
    assert principal.resolve_project("alpha") == "alpha"


def test_auth_file_pins_tokens_to_projects(tmp_path):
    path = tmp_path / "auth.json"
    path.write_text(json.dumps({"schema": 1, "tokens": {
        "tok-a": {"project": "alpha", "max_queued": 2,
                  "max_faults_per_day": 1000},
        "tok-b": {"project": "beta"},
    }}))
    auth = AuthConfig.load(path)
    assert not auth.open_mode
    with pytest.raises(LookupError):
        auth.authenticate(None)
    with pytest.raises(LookupError):
        auth.authenticate("Basic tok-a")
    with pytest.raises(LookupError):
        auth.authenticate("Bearer unknown")
    alpha = auth.authenticate("Bearer tok-a")
    assert alpha.project == "alpha"
    assert alpha.quota.max_queued == 2
    assert alpha.quota.max_faults_per_day == 1000
    assert alpha.resolve_project(None) == "alpha"
    with pytest.raises(PermissionError):
        alpha.resolve_project("beta")


def test_malformed_auth_file_is_coded(tmp_path):
    path = tmp_path / "auth.json"
    path.write_text("{nope")
    with pytest.raises(DiagnosticError) as exc:
        AuthConfig.load(path)
    assert "E420" in exc.value.report.codes()


def test_estimate_faults_policy():
    # an explicit sample is the estimate
    assert estimate_faults({"variant": "improved",
                            "sample": 37}) == 37
    # otherwise the per-variant table, scaled by banks
    small = estimate_faults({"variant": "small-improved"})
    assert estimate_faults({"variant": "small-improved",
                            "banks": 3}) == 3 * small
    # unknown variants fall back conservatively, not to zero
    assert estimate_faults({"variant": "???"}) >= small


def test_fault_estimate_matches_quick_candidates():
    """The admission estimator's small-improved entry tracks the real
    quick-mode candidate count (drift here silently skews the
    faults-per-day quota)."""
    from repro.faultinjection import build_environment
    from repro.soc import MemorySubsystem, SubsystemConfig

    env = build_environment(
        MemorySubsystem(SubsystemConfig.small_improved()), quick=True)
    assert estimate_faults({"variant": "small-improved"}) \
        == len(env.candidates().faults)


# ----------------------------------------------------------------------
# the server over real HTTP
# ----------------------------------------------------------------------
def test_health_submit_dedupe_and_coded_rejections(tmp_path):
    with _RunningServer(tmp_path / "store") as srv:
        client = _client(srv)
        assert client.health() == {"ok": True}
        ready = client.ready()
        assert ready["ready"] is True and ready["stale_leases"] == 0

        first = client.submit({"variant": "small-improved"},
                              idempotency_key="k1")
        assert first["deduped"] is False and first["job"] == 1
        again = client.submit({"variant": "small-improved"},
                              idempotency_key="k1")
        assert again["deduped"] is True and again["job"] == 1
        other = client.submit({"variant": "small-improved"},
                              idempotency_key="k2")
        assert other["job"] != first["job"]
        assert len(client.jobs()) == 2
        detail = client.job(1)
        assert detail["status"] == "queued"
        assert detail["idempotency_key"] == "k1"

        # coded rejections carry the validation diagnostics
        with pytest.raises(ApiClientError) as exc:
            client.submit({"variant": "no-such-variant"})
        assert exc.value.status == 400 and exc.value.code == "E420"
        codes = {d["code"] for d in
                 exc.value.payload["error"]["diagnostics"]}
        assert "E431" in codes
        for field in ("bogus_field", "supervise", "engine"):
            with pytest.raises(ApiClientError) as exc:
                client.submit({field: 1})
            assert exc.value.status == 400 and \
                exc.value.code == "E420"
        with pytest.raises(ApiClientError) as exc:
            client.job(999)
        assert exc.value.status == 404 and exc.value.code == "E423"

        # cancel / retry round-trip through the queue
        assert client.cancel(1) is True
        assert client.retry(1) is True


def test_ill_typed_campaign_fields_are_rejected_with_e430(tmp_path):
    with _RunningServer(tmp_path / "store") as srv:
        client = _client(srv)
        for body in ({"banks": "2"}, {"flags": {"addr_bits": 30}},
                     {"bank_flags": [5]}):
            with pytest.raises(ApiClientError) as exc:
                client.submit({"variant": "small-improved", **body})
            assert exc.value.status == 400 and \
                exc.value.code == "E420", body
            codes = {d["code"] for d in
                     exc.value.payload["error"]["diagnostics"]}
            assert codes == {"E430"}, body
        assert client.jobs() == []


def test_oversized_and_malformed_bodies_are_coded(tmp_path):
    with _RunningServer(tmp_path / "store") as srv:
        client = _client(srv)
        with pytest.raises(ApiClientError) as exc:
            client.request("POST", "/v1/jobs",
                           body={"pad": "x" * (70 * 1024)})
        assert exc.value.status == 413 and exc.value.code == "E424"

        conn = http.client.HTTPConnection("127.0.0.1", srv.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/jobs", body=b"{nope",
                         headers={"Content-Type":
                                  "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == "E420"
        assert "hint" in payload["error"]


def test_watermark_sheds_submits_and_readiness(tmp_path):
    config = ApiConfig(verbose=False, max_queue_depth=2)
    with _RunningServer(tmp_path / "store", config) as srv:
        client = _client(srv, max_retries=0)
        client.submit({"variant": "small-improved"},
                      idempotency_key="k1")
        client.submit({"variant": "small-improved"},
                      idempotency_key="k2")
        # at the watermark: new work is shed with the coded 429...
        with pytest.raises(ApiClientError) as exc:
            client.submit({"variant": "small-improved"},
                          idempotency_key="k3")
        assert "429 E427" in str(exc.value)
        # ...readiness degrades the same way...
        with pytest.raises(ApiClientError) as exc:
            client.ready()
        assert "503 E427" in str(exc.value)
        # ...but a retry of an already-accepted submit still
        # converges (dedupe is checked before the quotas)
        again = client.submit({"variant": "small-improved"},
                              idempotency_key="k1")
        assert again["deduped"] is True


def test_token_auth_quotas_and_project_isolation(tmp_path):
    auth = tmp_path / "auth.json"
    auth.write_text(json.dumps({"schema": 1, "tokens": {
        "tok-a": {"project": "alpha", "max_queued": 1},
        "tok-b": {"project": "beta"},
        "tok-c": {"project": "gamma", "max_faults_per_day": 200},
    }}))
    config = ApiConfig(verbose=False, auth_path=str(auth))
    with _RunningServer(tmp_path / "store", config) as srv:
        anon = _client(srv, max_retries=0)
        with pytest.raises(ApiClientError) as exc:
            anon.submit({"variant": "small-improved"})
        assert exc.value.status == 401 and exc.value.code == "E421"

        alpha = _client(srv, token="tok-a", max_retries=0)
        first = alpha.submit({"variant": "small-improved"},
                             idempotency_key="a1")
        assert first["project"] == "alpha"
        # cross-project submit by a pinned token is forbidden
        with pytest.raises(ApiClientError) as exc:
            alpha.submit({"variant": "small-improved"},
                         project="beta")
        assert exc.value.status == 403 and exc.value.code == "E422"
        # max_queued=1: the active job blocks a second
        with pytest.raises(ApiClientError) as exc:
            alpha.submit({"variant": "small-improved"},
                         idempotency_key="a2")
        assert "429 E426" in str(exc.value)

        # beta's token can neither probe nor list alpha's jobs
        beta = _client(srv, token="tok-b", max_retries=0)
        with pytest.raises(ApiClientError) as exc:
            beta.job(first["job"])
        assert exc.value.status == 404
        assert beta.jobs() == []

        # the faults-per-day budget sheds once the estimate exceeds
        # it (150 charged + 100 asked > 200), even with queue room
        gamma = _client(srv, token="tok-c", max_retries=0)
        gamma.submit({"variant": "small-improved", "sample": 150},
                     idempotency_key="c1")
        with pytest.raises(ApiClientError) as exc:
            gamma.submit({"variant": "small-improved",
                          "sample": 100},
                         idempotency_key="c2")
        assert "429 E426" in str(exc.value)
        assert "max_faults_per_day" in str(exc.value)


def test_stream_yields_snapshots_until_terminal(tmp_path):
    with _RunningServer(tmp_path / "store") as srv:
        client = _client(srv)
        job_id = client.submit({"variant": "small-improved"})["job"]

        def cancel_later():
            time.sleep(0.5)
            _client(srv).cancel(job_id)

        threading.Thread(target=cancel_later, daemon=True).start()
        events = list(client.stream(job_id))
        assert events[0]["status"] == "queued"
        assert events[-1]["status"] == "cancelled"
        assert is_terminal(events[-1])


def test_graceful_stop_exits_zero_with_queued_work(tmp_path):
    running = _RunningServer(tmp_path / "store")
    with running as srv:
        _client(srv).submit({"variant": "small-improved"})
    assert running.exit_code == 0


def test_end_to_end_campaign_through_embedded_workers(tmp_path):
    """Submit over HTTP, execute in the server's embedded daemon
    worker, stream progress to the terminal snapshot, and converge a
    duplicate submit onto the finished job."""
    root = tmp_path / "store"
    daemon = ServiceDaemon(root, DaemonConfig(
        workers=1, lease_seconds=10.0, heartbeat_interval=0.2,
        poll_interval=0.05, verbose=False))
    with _RunningServer(root, daemon=daemon) as srv:
        client = _client(srv)
        spec = {"variant": "small-improved", "sample": 16}
        job_id = client.submit(spec, idempotency_key="e2e")["job"]
        events = list(client.stream(job_id))
        final = events[-1]
        assert final["status"] == "done"
        assert final["result"]["faults"] == 16
        assert final["result"]["measured_dc"] is not None

        done = client.wait(job_id, timeout=60)
        assert done["status"] == "done"
        assert done["idempotency_key"] == "e2e"
        assert done["run_id"] is not None
        # the retried key converges on the finished job, quota-free
        again = client.submit(spec, idempotency_key="e2e")
        assert again["deduped"] is True and again["job"] == job_id


# ----------------------------------------------------------------------
# wake-ups: in-process transitions reach claim loops and streams at
# once; the poll periods below are far longer than any bound asserted
# ----------------------------------------------------------------------
def _idle_daemon(root) -> ServiceDaemon:
    return ServiceDaemon(root, DaemonConfig(
        workers=1, lease_seconds=10.0, heartbeat_interval=0.2,
        poll_interval=30.0, verbose=False))


def test_stop_wakes_an_idle_embedded_worker(tmp_path):
    running = _RunningServer(tmp_path / "store",
                             daemon=_idle_daemon(tmp_path / "store"))
    with running:
        time.sleep(0.3)             # the worker is waiting on the feed
        started = time.monotonic()
    elapsed = time.monotonic() - started
    assert not running.thread.is_alive()
    assert running.exit_code == 0
    assert elapsed < 5.0, f"stop() took {elapsed:.1f} s"


def test_streams_and_claims_wake_on_queue_change(tmp_path):
    """With 30 s poll periods only a wake-up can meet the 10 s bounds:
    the submit wakes the idle claim loop, each transition the stream's
    read."""
    root = tmp_path / "store"
    config = ApiConfig(verbose=False, stream_poll_interval=30.0)
    with _RunningServer(root, config, daemon=_idle_daemon(root)) as srv:
        client = _client(srv)
        spec = {"variant": "small-improved", "sample": 16}
        for attempt in range(2):
            # the second submit lands while the worker waits idle
            time.sleep(0.5)
            started = time.monotonic()
            job_id = client.submit(spec)["job"]
            final = list(client.stream(job_id))[-1]
            elapsed = time.monotonic() - started
            assert final["status"] == "done", final
            assert final["result"]["faults"] == 16
            assert elapsed < 10.0, \
                f"job {attempt + 1} took {elapsed:.1f} s to stream"


def _drain_store(root) -> None:
    ServiceDaemon(root, DaemonConfig(drain=True, verbose=False)).serve()


def test_stream_polls_transitions_of_another_process(tmp_path):
    """A queue-only server sees nothing of a separate daemon's commits
    on its feed: the stream falls back to its poll period."""
    import multiprocessing

    root = tmp_path / "store"
    config = ApiConfig(verbose=False, stream_poll_interval=0.05)
    with _RunningServer(root, config) as srv:
        client = _client(srv)
        job_id = client.submit({"variant": "small-improved",
                                "sample": 16})["job"]
        stream = client.stream(job_id)
        assert next(stream)["status"] == "queued"
        # the stream is open before the other process claims the job
        worker = multiprocessing.get_context("fork").Process(
            target=_drain_store, args=(root,))
        worker.start()
        try:
            final = list(stream)[-1]
        finally:
            worker.join(timeout=60)
        assert not worker.is_alive() and worker.exitcode == 0
        assert final["status"] == "done", final
        assert final["result"]["faults"] == 16
