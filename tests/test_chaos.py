"""Self-FMEA layer tests: failpoints, durability hardening, jittered
backoff, graceful drain, io-pause, repair idempotency.

The full failpoint × fault-kind sweep runs in CI's
``chaos-failpoints`` job via ``soc-fmea chaos``; here we unit-test
the registry mechanics in-process and exercise a small subprocess
subset (torn blob, SIGTERM drain) so tier-1 keeps end-to-end
coverage of the crash model.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.backoff import decorrelated_delay
from repro.chaos import failpoints
from repro.chaos.failpoints import (
    FailpointSpecError,
    activate,
    clear,
    fail_at,
    parse_specs,
    registry,
    spec_string,
)
from repro.chaos.harness import scenarios
from repro.chaos.selffmea import build_worksheet
from repro.service import JobQueue, QueuePolicy
from repro.service.daemon import DaemonConfig, ServiceDaemon
from repro.service.queue import JOB_QUEUED
from repro.store import (
    BlobStore,
    CampaignCache,
    CorruptBlobError,
    StoreIOError,
    fsck_store,
)

REPO = Path(__file__).parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
ENV.pop("SOCFMEA_FAILPOINTS", None)
CLI = [sys.executable, "-m", "repro.cli"]


@pytest.fixture(autouse=True)
def _clean_failpoints():
    clear()
    yield
    clear()


# ----------------------------------------------------------------------
# failpoint registry mechanics
# ----------------------------------------------------------------------
def test_spec_parse_roundtrip():
    text = ("store.db.pre-commit=kill@6,"
            "queue.heartbeat=sleep:3,"
            "store.blob.post-rename=torn")
    specs = parse_specs(text)
    assert specs["store.db.pre-commit"].trigger_at == 6
    assert specs["queue.heartbeat"].arg == 3.0
    assert parse_specs(spec_string(specs)) == specs


@pytest.mark.parametrize("bad", [
    "nope=kill",                        # unknown site
    "queue.claim=explode",              # unknown kind
    "queue.claim",                      # no action
    "queue.claim=sleep:abc",            # bad arg
    "queue.claim=kill@0",               # bad trigger
])
def test_spec_parse_rejects(bad):
    with pytest.raises(FailpointSpecError):
        parse_specs(bad)


def test_fail_at_disabled_is_noop():
    for site in registry():
        fail_at(site.name)              # nothing armed, nothing happens


def test_trigger_counting_and_stickiness():
    activate("store.db.pre-commit", "enospc", trigger_at=3)
    fail_at("store.db.pre-commit")
    fail_at("store.db.pre-commit")      # hits 1, 2: below trigger
    with pytest.raises(OSError):
        fail_at("store.db.pre-commit")  # hit 3 fires
    with pytest.raises(OSError):
        fail_at("store.db.pre-commit")  # enospc is sticky

    activate("queue.heartbeat", "sleep", arg=0.01)
    start = time.time()
    fail_at("queue.heartbeat")
    assert time.time() - start >= 0.01
    start = time.time()
    fail_at("queue.heartbeat")          # sleep fires once, not forever
    assert time.time() - start < 0.01


def test_env_configures_failpoints():
    failpoints.configure_from_env(
        {"SOCFMEA_FAILPOINTS": "queue.claim=eio"})
    try:
        assert failpoints.active()["queue.claim"].kind == "eio"
    finally:
        clear()


def test_every_failpoint_has_a_scenario():
    covered = {s.failpoint for s in scenarios()}
    assert covered == {s.name for s in registry()}
    # and every enumerated mode names its detection + recovery
    for s in scenarios():
        assert s.effect and s.detection and s.recovery


def test_worksheet_marks_unexecuted_rows_not_run():
    sheet = build_worksheet([])
    assert sheet.not_run == len(scenarios())
    assert sheet.ok                     # not-run is not a failure


# ----------------------------------------------------------------------
# blob durability + coded io errors
# ----------------------------------------------------------------------
def test_blob_put_fsyncs_when_durable(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd),
                                    real_fsync(fd))[1])
    store = BlobStore(tmp_path / "durable")
    store.put(b"payload")
    assert len(synced) >= 2             # temp file + parent dir

    synced.clear()
    lazy = BlobStore(tmp_path / "lazy", durable=False)
    lazy.put(b"payload")
    assert synced == []


def test_blob_enospc_is_coded_and_leaves_no_temp(tmp_path):
    store = BlobStore(tmp_path / "store")
    activate("store.blob.post-temp-write", "enospc")
    with pytest.raises(StoreIOError) as err:
        store.put(b"payload")
    assert "E413" in err.value.report.codes()
    clear()
    leftovers = [p for p in (tmp_path / "store" / "objects").rglob(
        ".tmp-*")]
    assert leftovers == []              # failed write cleaned up
    assert store.put(b"payload")        # and the store still works


def test_db_enospc_is_coded(tmp_path):
    activate("store.db.pre-commit", "enospc")
    with pytest.raises(StoreIOError) as err:
        with JobQueue(tmp_path / "store") as queue:
            queue.submit({})
    assert "E413" in err.value.report.codes()


# ----------------------------------------------------------------------
# jittered backoff
# ----------------------------------------------------------------------
def test_decorrelated_delay_bounds_and_determinism():
    for attempt in (1, 2, 5):
        d = decorrelated_delay(attempt, 0.5, 2.0, cap=60.0,
                               seed=7, token="job-1")
        assert 0.5 <= d <= min(60.0, 0.5 * 2.0 ** attempt)
        assert d == decorrelated_delay(attempt, 0.5, 2.0, cap=60.0,
                                       seed=7, token="job-1")
    # distinct tokens decorrelate even under one seed
    delays = {decorrelated_delay(3, 0.5, 2.0, seed=7, token=t)
              for t in range(20)}
    assert len(delays) > 15
    # cap bounds the tail
    assert decorrelated_delay(50, 1.0, 2.0, cap=30.0, seed=1) <= 30.0


def test_queue_backoff_jitter_is_seeded(tmp_path):
    def failed_not_before(root, seed):
        with JobQueue(root, policy=QueuePolicy(
                backoff_base=5.0, backoff_seed=seed)) as queue:
            job_id = queue.submit({})
            queue.claim("w1")
            queue.fail(job_id, "w1", {"kind": "x"})
            return queue.job(job_id).not_before, time.time()

    nb1, now1 = failed_not_before(tmp_path / "a", seed=11)
    nb2, now2 = failed_not_before(tmp_path / "b", seed=11)
    assert nb1 - now1 >= 5.0 - 0.5      # at least base (minus clock)
    # same seed + job id + attempt → identical jitter draw
    assert abs((nb1 - now1) - (nb2 - now2)) < 0.5


# ----------------------------------------------------------------------
# lease clock-skew tolerance
# ----------------------------------------------------------------------
def test_skew_grace_blocks_immediate_steal(tmp_path):
    with JobQueue(tmp_path / "store", policy=QueuePolicy(
            skew_grace=30.0)) as queue:
        queue.submit({})
        assert queue.claim("w1", lease_seconds=0.01) is not None
        time.sleep(0.05)
        # deadline passed, but within the skew grace: no steal
        assert queue.claim("w2", lease_seconds=30.0) is None
        # the (slow-clocked) owner is still fenced in, not out
        assert queue.heartbeat(1, "w1")


# ----------------------------------------------------------------------
# voluntary release
# ----------------------------------------------------------------------
def test_release_refunds_attempt_and_fences_owner(tmp_path):
    with JobQueue(tmp_path / "store") as queue:
        job_id = queue.submit({})
        queue.claim("w1")
        assert not queue.release(job_id, "intruder")
        assert queue.release(job_id, "w1", delay=30.0,
                             error={"kind": "io-pause"})
        job = queue.job(job_id)
        assert job.status == JOB_QUEUED
        assert job.attempts == 0        # refunded: not a failure
        assert job.error["kind"] == "io-pause"
        assert job.lease_owner is None
        assert queue.claim("w2") is None    # delay defers re-claim


def test_daemon_releases_job_on_store_io_error(tmp_path, monkeypatch):
    from repro.service.core import CampaignService
    from repro.store.errors import raise_for_io

    root = tmp_path / "store"
    with JobQueue(root) as queue:
        job_id = queue.submit({"variant": "small-improved"})

    def boom(self, *args, **kw):
        raise_for_io(OSError(28, "disk full"), "store.db")

    monkeypatch.setattr(CampaignService, "run_campaign", boom)
    daemon = ServiceDaemon(root, DaemonConfig(
        drain=True, verbose=False, io_pause_seconds=60.0))
    assert daemon.worker_loop(0) == 1   # one io-paused job, then exit

    with JobQueue(root) as queue:
        job = queue.job(job_id)
        assert job.status == JOB_QUEUED     # paused, not dead
        assert job.attempts == 0            # budget refunded
        assert job.error["kind"] == "io-pause"


def test_drain_absorbs_a_disk_that_stays_full(tmp_path):
    """The chaos sweep's 'disk fills while a job executes': from the
    8th index commit on every commit fails, the job's release and its
    run link included, and the drain still returns instead of raising
    E413 out of the claim loop."""
    root = tmp_path / "store"
    with JobQueue(root) as queue:
        queue.submit({"variant": "small-improved", "shards": 4})
    daemon = ServiceDaemon(root, DaemonConfig(
        drain=True, verbose=False, io_pause_seconds=0.0))
    activate("store.db.pre-commit", "enospc", trigger_at=8)
    try:
        assert daemon.worker_loop(0) == 1
        assert failpoints.active()["store.db.pre-commit"].fired > 1
    finally:
        clear()


# ----------------------------------------------------------------------
# graceful SIGTERM drain (subprocess)
# ----------------------------------------------------------------------
def test_sigterm_drains_gracefully(tmp_path):
    """SIGTERM mid-job: the daemon checkpoints, releases the lease
    explicitly (attempt refunded), and exits 0 — no lease-expiry
    wait, no lost progress."""
    root = tmp_path / "store"
    submit = subprocess.run(
        CLI + ["--store", str(root), "jobs", "submit",
               "--variant", "small-improved",
               "--machines-per-pass", "8"],
        cwd=tmp_path, env=ENV, capture_output=True, timeout=120)
    assert submit.returncode == 0, submit.stderr

    proc = subprocess.Popen(
        CLI + ["--store", str(root), "serve",
               "--lease", "30", "--heartbeat-interval", "0.1",
               "--poll-interval", "0.1"],
        cwd=tmp_path, env=ENV, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT)
    try:
        deadline = time.time() + 120
        claimed = False
        while time.time() < deadline:
            try:
                with sqlite3.connect(root / "store.db") as con:
                    row = con.execute(
                        "SELECT status FROM jobs").fetchone()
            except sqlite3.OperationalError:
                row = None
            if row and row[0] in ("leased", "running"):
                claimed = True
                break
            time.sleep(0.02)
        assert claimed, "job never claimed"
        proc.send_signal(signal.SIGTERM)
        exit_code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    out = proc.stdout.read().decode()
    assert exit_code == 0, out
    assert "draining gracefully" in out
    with JobQueue(root) as queue:
        job = queue.jobs()[0]
    # released mid-run (attempt refunded, immediately claimable) —
    # or finished, if the campaign beat the signal
    if job.status == JOB_QUEUED:
        assert job.attempts == 0
        assert job.lease_owner is None
    else:
        assert job.status == "done"

    # either way the next drain completes the queue from checkpoints
    second = subprocess.run(
        CLI + ["--store", str(root), "serve", "--drain",
               "--lease", "2", "--heartbeat-interval", "0.2",
               "--poll-interval", "0.1"],
        cwd=tmp_path, env=ENV, capture_output=True, timeout=300)
    assert second.returncode == 0, second.stdout
    with JobQueue(root) as queue:
        assert queue.jobs()[0].status == "done"


# ----------------------------------------------------------------------
# repair idempotency
# ----------------------------------------------------------------------
def _populated_store(tmp_path):
    root = tmp_path / "store"
    proc = subprocess.run(
        CLI + ["--store", str(root), "campaign",
               "--variant", "small-improved"],
        cwd=tmp_path, env=ENV, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return root


def test_fsck_repair_twice_is_noop(tmp_path):
    root = _populated_store(tmp_path)
    # tear a blob and plant a stale lease + dangling run rows
    blob = next(p for p in sorted((root / "objects").rglob("*"))
                if p.is_file())
    blob.write_bytes(blob.read_bytes()[:10])
    with JobQueue(root) as queue:
        queue.submit({})
        queue.claim("ghost", lease_seconds=0.01)
    time.sleep(0.05)

    with CampaignCache(root) as cache:
        first = fsck_store(cache, repair=True)
        assert first.repaired
    with CampaignCache(root) as cache:
        second = fsck_store(cache, repair=True)
        assert second.repaired == []    # idempotent: nothing left
        final = fsck_store(cache)
        assert not final.report.errors


def test_repair_never_deletes_leased_jobs_evidence(tmp_path):
    root = _populated_store(tmp_path)
    with CampaignCache(root) as cache:
        run_id = cache.db.runs()[-1]["run_id"]
        outcomes_before = cache.db._conn.execute(
            "SELECT COUNT(*) FROM outcomes").fetchone()[0]
    with JobQueue(root) as queue:
        job_id = queue.submit({})
        queue.claim("w1", lease_seconds=60.0)
        assert queue.record_run(job_id, "w1", run_id)

    with CampaignCache(root) as cache:
        fsck_store(cache, repair=True)
        runs = [r["run_id"] for r in cache.db.runs()]
        assert run_id in runs           # evidence survived repair
        outcomes_after = cache.db._conn.execute(
            "SELECT COUNT(*) FROM outcomes").fetchone()[0]
        assert outcomes_after == outcomes_before
    with JobQueue(root) as queue:
        job = queue.job(job_id)
        assert job.status == "leased"   # active lease untouched
        assert job.run_id == run_id


# ----------------------------------------------------------------------
# one end-to-end harness scenario under tier-1
# ----------------------------------------------------------------------
def test_chaos_cli_verifies_torn_blob(tmp_path):
    proc = subprocess.run(
        CLI + ["chaos", "--failpoint", "store.blob.post-rename",
               "--kind", "torn", "--workdir", str(tmp_path),
               "--quiet", "--json"],
        cwd=tmp_path, env=ENV, capture_output=True, text=True,
        timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    import json
    sheet = json.loads(proc.stdout)
    rows = {r["spec"]: r["verdict"] for r in sheet["rows"]}
    assert rows["store.blob.post-rename=torn"] == "VERIFIED"
    assert sheet["ok"]
