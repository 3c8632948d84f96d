"""Chaos and unit tests for the campaign service layer.

Covers the durable job queue (lease claim/heartbeat/backoff/dead
letter), the ``serve`` daemon's recovery story (SIGKILL a daemon
mid-job: the lease expires, a fresh daemon re-claims, and the resumed
campaign is bit-identical to the serial reference while re-simulating
only the cones the dead worker never finished), the poison-job
dead-letter + retry path, concurrent daemons never double-executing,
and the queue audits wired into ``store fsck`` (E410/E411/E412) and
``store gc``.
"""

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.faultinjection import (
    CampaignConfig,
    CampaignSupervisor,
    build_environment,
)
from repro.service import (
    CampaignRequest,
    CampaignService,
    JOB_DEAD,
    JOB_DONE,
    JOB_QUEUED,
    JobQueue,
    QueuePolicy,
)
from repro.service.daemon import DaemonConfig, ServiceDaemon
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.store import CampaignCache, StoreBusyError, fsck_store, \
    gc_store
from repro.store.db import StoreDB

from .campaign_oracle import run_interpreted

REPO = Path(__file__).parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
CLI = [sys.executable, "-m", "repro.cli"]


@pytest.fixture(scope="module")
def env():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    return build_environment(sub, quick=True)


@pytest.fixture(scope="module")
def candidates(env):
    return env.candidates()


@pytest.fixture(scope="module")
def serial(env, candidates):
    return run_interpreted(env.spec(CampaignConfig()).manager(), candidates)


def _fault_rows(campaign):
    return [(res.fault.name, res.sens_cycle, res.obse_cycle,
             res.diag_cycle, res.first_alarm, res.effects)
            for res in campaign.results]


def _outcome_count(store: Path) -> int:
    with sqlite3.connect(store / "store.db") as conn:
        return conn.execute(
            "SELECT COUNT(*) FROM outcomes").fetchone()[0]


# ----------------------------------------------------------------------
# queue lifecycle
# ----------------------------------------------------------------------
def test_submit_claim_complete_lifecycle(tmp_path):
    with JobQueue(tmp_path / "store") as queue:
        job_id = queue.submit({"variant": "small-improved"},
                              project="default")
        job = queue.job(job_id)
        assert job.status == JOB_QUEUED and job.attempts == 0

        claimed = queue.claim("w1", lease_seconds=30.0)
        assert claimed.job_id == job_id
        assert claimed.status == "leased" and claimed.attempts == 1
        assert claimed.lease_owner == "w1"
        assert claimed.lease_deadline > time.time()

        # nothing else is actionable while the lease is live
        assert queue.claim("w2") is None

        assert queue.start(job_id, "w1")
        assert queue.complete(job_id, "w1", {"measured_dc": 1.0})
        done = queue.job(job_id)
        assert done.status == JOB_DONE
        assert done.result == {"measured_dc": 1.0}
        assert done.lease_owner is None
        assert not queue.has_work()


def test_heartbeat_is_monotonic_and_owner_checked(tmp_path):
    with JobQueue(tmp_path / "store") as queue:
        job_id = queue.submit({})
        queue.claim("w1", lease_seconds=60.0)
        deadline = queue.job(job_id).lease_deadline
        # a shorter renewal never pulls the deadline backwards
        assert queue.heartbeat(job_id, "w1", lease_seconds=1.0)
        assert queue.job(job_id).lease_deadline == deadline
        # a longer one extends it
        assert queue.heartbeat(job_id, "w1", lease_seconds=120.0)
        assert queue.job(job_id).lease_deadline > deadline
        # the wrong owner cannot touch the lease
        assert not queue.heartbeat(job_id, "w2", lease_seconds=300.0)


def test_expired_lease_is_reclaimed(tmp_path):
    # skew_grace=0 so the steal is immediate (the default keeps a
    # margin for clock skew between hosts — see its own test)
    with JobQueue(tmp_path / "store",
                  policy=QueuePolicy(skew_grace=0.0)) as queue:
        job_id = queue.submit({}, max_attempts=3)
        queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.05)
        stolen = queue.claim("w2", lease_seconds=30.0)
        assert stolen.job_id == job_id
        assert stolen.attempts == 2 and stolen.lease_owner == "w2"
        # the dead worker's handle is fenced out everywhere
        assert not queue.heartbeat(job_id, "w1")
        assert queue.fail(job_id, "w1", {"kind": "late"}) is None
        assert not queue.complete(job_id, "w1", {})


def test_exhausted_expired_lease_dead_letters_at_claim(tmp_path):
    with JobQueue(tmp_path / "store",
                  policy=QueuePolicy(skew_grace=0.0)) as queue:
        job_id = queue.submit({}, max_attempts=1)
        queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.05)
        assert queue.claim("w2") is None   # nothing left to hand out
        job = queue.job(job_id)
        assert job.status == JOB_DEAD
        assert job.error["kind"] == "crash"
        assert "died or stalled" in job.error["message"]


def test_fail_backoff_then_dead_letter(tmp_path):
    policy = QueuePolicy(backoff_base=10.0)
    with JobQueue(tmp_path / "store", policy=policy) as queue:
        job_id = queue.submit({}, max_attempts=2)
        queue.claim("w1")
        assert queue.fail(job_id, "w1", {"kind": "boom"}) == JOB_QUEUED
        job = queue.job(job_id)
        assert job.not_before > time.time() + 5     # backed off
        assert queue.claim("w1") is None            # still cooling
        # drop the backoff so the final attempt is claimable
        with queue.db.immediate() as conn:
            conn.execute("UPDATE jobs SET not_before=0")
        queue.claim("w1")
        assert queue.fail(job_id, "w1", {"kind": "boom"}) == JOB_DEAD
        assert queue.job(job_id).error == {"kind": "boom"}


def test_fatal_fail_skips_remaining_budget(tmp_path):
    with JobQueue(tmp_path / "store") as queue:
        job_id = queue.submit({}, max_attempts=5)
        queue.claim("w1")
        status = queue.fail(job_id, "w1", {"kind": "diagnostic"},
                            fatal=True)
        assert status == JOB_DEAD
        assert queue.job(job_id).attempts == 1


def test_retry_and_cancel(tmp_path):
    with JobQueue(tmp_path / "store") as queue:
        job_id = queue.submit({}, max_attempts=1)
        queue.claim("w1")
        queue.fail(job_id, "w1", {"kind": "boom"})
        assert queue.retry(job_id)
        job = queue.job(job_id)
        assert job.status == JOB_QUEUED
        assert job.attempts == 0 and job.error is None

        assert queue.cancel(job_id)
        assert queue.job(job_id).status == "cancelled"
        assert not queue.cancel(job_id)     # already terminal
        assert queue.retry(job_id)          # cancelled → queued again


def test_concurrent_claims_never_double_lease(tmp_path):
    """Eight threads race the claim transaction over four jobs: every
    job is handed out exactly once."""
    root = tmp_path / "store"
    with JobQueue(root) as queue:
        for _ in range(4):
            queue.submit({})

    def grab(worker: int):
        with JobQueue(root) as queue:
            got = []
            while True:
                job = queue.claim(f"w{worker}", lease_seconds=60.0)
                if job is None:
                    return got
                got.append(job.job_id)

    with ThreadPoolExecutor(max_workers=8) as pool:
        batches = list(pool.map(grab, range(8)))
    claimed = [job_id for batch in batches for job_id in batch]
    assert sorted(claimed) == [1, 2, 3, 4]      # no duplicates


def test_skew_grace_boundary_fences_steal(tmp_path):
    """An expired lease is stealable only once it is *more than*
    ``skew_grace`` past its deadline: inside the margin the (possibly
    just slow-clocked) owner keeps the job; past it the owner is
    presumed dead."""
    grace = 10.0
    with JobQueue(tmp_path / "store",
                  policy=QueuePolicy(skew_grace=grace)) as queue:
        job_id = queue.submit({}, max_attempts=5)
        queue.claim("w1", lease_seconds=30.0)

        def expire(offset: float) -> None:
            with queue.db.immediate() as conn:
                conn.execute(
                    "UPDATE jobs SET lease_deadline=?"
                    " WHERE job_id=?",
                    (time.time() + offset, job_id))

        # deadline passed, but still inside the grace: not stealable
        expire(-grace + 5.0)
        assert queue.claim("w2") is None
        # ... and the live owner can still renew its lease
        assert queue.heartbeat(job_id, "w1", lease_seconds=30.0)

        # deadline more than the grace ago: presumed dead, stolen
        expire(-grace - 5.0)
        stolen = queue.claim("w2", lease_seconds=30.0)
        assert stolen is not None and stolen.job_id == job_id
        assert stolen.lease_owner == "w2" and stolen.attempts == 2
        # the previous owner is fenced out from here on
        assert not queue.heartbeat(job_id, "w1")


def test_release_refund_is_fenced_after_concurrent_claim(tmp_path):
    """``release()`` refunds the claim-time attempt — but only for
    the *current* owner.  A dead worker's late release racing a
    concurrent re-claim must not refund the new owner's attempt (the
    linearization: the steal commits first, the stale release is a
    no-op)."""
    with JobQueue(tmp_path / "store",
                  policy=QueuePolicy(skew_grace=0.0)) as queue:
        job_id = queue.submit({}, max_attempts=3)
        queue.claim("w1", lease_seconds=0.01)
        time.sleep(0.05)
        stolen = queue.claim("w2", lease_seconds=60.0)
        assert stolen.attempts == 2
        # w1 wakes up late and tries to hand the job back
        assert not queue.release(job_id, "w1")
        job = queue.job(job_id)
        assert job.attempts == 2 and job.lease_owner == "w2"
        # the rightful owner's release refunds its attempt and
        # records why, without dead-letter semantics
        assert queue.release(job_id, "w2",
                             error={"kind": "io-pause"})
        job = queue.job(job_id)
        assert job.status == JOB_QUEUED and job.lease_owner is None
        assert job.attempts == 1
        assert job.error == {"kind": "io-pause"}
        # the preserved budget is claimable again immediately
        assert queue.claim("w3").attempts == 2


def test_racing_idempotent_submitters_converge(tmp_path):
    """Eight submitters race one idempotency key over separate
    connections: exactly one INSERT wins and every caller gets the
    same job id back (check-then-insert in one BEGIN IMMEDIATE,
    backstopped by the partial unique index)."""
    root = tmp_path / "store"
    with JobQueue(root):
        pass                        # create the schema up front
    barrier = threading.Barrier(8)

    def submit(worker: int):
        with JobQueue(root) as queue:
            barrier.wait(timeout=30)
            return queue.submit_idempotent(
                {"variant": "small-improved"},
                idempotency_key="race-key")

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(submit, range(8)))
    ids = {job_id for job_id, _ in results}
    assert len(ids) == 1
    assert sum(1 for _, deduped in results if not deduped) == 1
    (job_id,) = ids

    with JobQueue(root) as queue:
        jobs = queue.jobs()
        assert len(jobs) == 1
        assert jobs[0].idempotency_key == "race-key"
        # keys are scoped per project: another namespace is free to
        # reuse the string
        other, deduped = queue.submit_idempotent(
            {}, project="silicon-b", idempotency_key="race-key")
        assert not deduped and other != job_id
        # cancelling releases the key for a fresh enqueue
        assert queue.cancel(job_id)
        fresh, deduped = queue.submit_idempotent(
            {}, idempotency_key="race-key")
        assert not deduped and fresh != job_id


# ----------------------------------------------------------------------
# store-busy hardening (E409)
# ----------------------------------------------------------------------
def test_locked_store_raises_coded_busy_error(tmp_path, monkeypatch):
    from repro.store import db as dbmod
    monkeypatch.setattr(dbmod, "BUSY_RETRIES", 3)
    monkeypatch.setattr(dbmod, "BUSY_BACKOFF_BASE", 0.01)
    db = StoreDB(tmp_path / "store.db")
    db._conn.execute("PRAGMA busy_timeout=20")
    blocker = sqlite3.connect(db.path)
    try:
        blocker.execute("BEGIN IMMEDIATE")
        with pytest.raises(StoreBusyError) as excinfo:
            with db.immediate():
                pass
        assert excinfo.value.report.codes() == {"E409"}
    finally:
        blocker.rollback()
        blocker.close()
        db.close()


def test_busy_write_succeeds_after_lock_clears(tmp_path, monkeypatch):
    from repro.store import db as dbmod
    monkeypatch.setattr(dbmod, "BUSY_BACKOFF_BASE", 0.05)
    db = StoreDB(tmp_path / "store.db")
    db._conn.execute("PRAGMA busy_timeout=20")
    blocker = sqlite3.connect(db.path)
    try:
        blocker.execute("BEGIN IMMEDIATE")
        attempts = []

        def txn():
            attempts.append(1)
            if len(attempts) == 2:
                blocker.rollback()   # contention clears mid-retry
            return db._conn.execute("BEGIN IMMEDIATE")

        db._write(txn)
        db._conn.rollback()
        assert len(attempts) >= 2
    finally:
        blocker.close()
        db.close()


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fields", [
    {"banks": "2"}, {"shard_timeout": "x"}, {"shard_timeout": True},
    {"workers": 1.5}, {"max_retries": None}, {"sample": False},
    {"full": "yes"}, {"use_cache": 1}, {"zones": 5}, {"stimuli": []},
    {"flags": {"nope": True}}, {"flags": {"addr_bits": 12}},
    {"flags": {"address_in_ecc": 1}}, {"flags": []},
    {"bank_flags": [5]}, {"bank_flags": [{"data_bits": 8}]},
    {"banks": 2, "bank_flags": [{}, {}, {}]},
])
def test_request_validation_reports_ill_typed_fields(fields):
    """Each bad field is one E430 diagnostic from ``validate()``,
    never a ``TypeError`` there or a job that dies later."""
    report = CampaignRequest.from_dict(
        {"variant": "small-improved", **fields}).validate()
    assert report.codes() == {"E430"}
    assert len(report.diagnostics) == 1


def test_request_validation_accepts_flag_overrides():
    request = CampaignRequest(
        variant="small-baseline", banks=2, shard_timeout=1,
        flags={"with_bist": False},
        bank_flags=[{}, {"address_in_ecc": True, "scrub_parity": True}])
    assert request.validate().ok


# ----------------------------------------------------------------------
# the service core is the CLI, verbatim
# ----------------------------------------------------------------------
def test_run_campaign_matches_serial_reference(tmp_path, serial,
                                               candidates):
    service = CampaignService(tmp_path / "store")
    outcome = service.run_campaign(
        CampaignRequest(variant="small-improved"))
    assert outcome.exit_code == 0
    assert outcome.faults == len(candidates.faults)
    assert outcome.measured_dc == serial.measured_dc()
    assert outcome.safe_fraction == serial.measured_safe_fraction()
    assert "measured DC:" in outcome.out
    assert outcome.run_id is not None and outcome.simulated > 0


def _count_profile_replays(monkeypatch) -> list:
    """Count ``profile_workload`` calls under every name it is bound
    to."""
    from repro.faultinjection import environment, profiler
    calls = []
    real = profiler.profile_workload

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(profiler, "profile_workload", counted)
    monkeypatch.setattr(environment, "profile_workload", counted)
    return calls


def test_warm_rerun_replays_no_workload(tmp_path, monkeypatch):
    root = tmp_path / "store"
    request = CampaignRequest(variant="small-improved")
    calls = _count_profile_replays(monkeypatch)
    cold = CampaignService(root).run_campaign(request)
    assert len(calls) == 1
    warm = CampaignService(root).run_campaign(request)
    assert len(calls) == 1              # zero replays on the rerun
    uncached = CampaignService(root).run_campaign(
        CampaignRequest(variant="small-improved", use_cache=False))
    assert len(calls) == 2              # --no-cache replays as before

    for outcome in (warm, uncached):
        assert outcome.exit_code == cold.exit_code == 0
        assert (outcome.faults, outcome.measured_dc,
                outcome.safe_fraction, outcome.claimed_sff,
                outcome.claimed_dc) == \
            (cold.faults, cold.measured_dc, cold.safe_fraction,
             cold.claimed_sff, cold.claimed_dc)
    assert warm.simulated == 0 and warm.hits == warm.faults
    with CampaignCache(root) as cache:
        # identical candidates: the same fault addresses, in order
        assert [(r["fault_fp"], r["fault_name"])
                for r in cache.db.run_faults(warm.run_id)] == \
            [(r["fault_fp"], r["fault_name"])
             for r in cache.db.run_faults(cold.run_id)]

    planning = r"planning: profile (hit|miss) \d+\.\d\ds, " \
               r"fingerprints \d+\.\d\ds over (\d+) seed sets"
    cold_line = re.search(planning, cold.out)
    warm_line = re.search(planning, warm.out)
    assert cold_line.group(1) == "miss" and warm_line.group(1) == "hit"
    assert int(warm_line.group(2)) == int(cold_line.group(2)) > 0
    assert "planning:" not in uncached.out
    # the line the CI jobs parse is unchanged, and precedes planning
    lines = warm.out.splitlines()
    assert lines[-2] == (
        f"store: {warm.faults} hits, 0 misses (100.0% hit rate), "
        f"0 new outcomes, 0 faults simulated")
    assert lines[-1].startswith("planning: ")


def test_gc_keeps_the_profile_of_kept_runs(tmp_path, monkeypatch):
    root = tmp_path / "store"
    request = CampaignRequest(variant="small-improved")
    calls = _count_profile_replays(monkeypatch)
    CampaignService(root).run_campaign(request)         # cold: replays
    with CampaignCache(root) as cache:
        gc_store(cache, keep_runs=1)
    warm = CampaignService(root).run_campaign(request)  # profile hit
    with CampaignCache(root) as cache:
        # drops the cold run that wrote the profile; the warm run
        # that read it keeps it alive
        assert gc_store(cache, keep_runs=1).runs_removed == 1
        assert [r["run_id"] for r in cache.db.runs()] == [warm.run_id]
        assert fsck_store(cache).clean
    CampaignService(root).run_campaign(request)
    assert len(calls) == 1              # no replay after either gc

    with CampaignCache(root) as cache:
        # no run left: the profile is swept
        gc_store(cache, keep_runs=0)
        assert cache.db.golden_rows() == []
        assert len(cache.blobs) == 0


def test_project_namespaces_isolate_evidence(tmp_path):
    root = tmp_path / "store"
    service = CampaignService(root, project="silicon-a")
    assert service.store_path() == root / "projects" / "silicon-a"
    assert CampaignService(root).store_path() == root
    # the queue is shared: a job submitted under any project lands in
    # the root index
    job_id = service.submit(CampaignRequest(variant="small-improved"))
    job = CampaignService(root).status(job_id)
    assert job.project == "silicon-a"


# ----------------------------------------------------------------------
# daemon execution
# ----------------------------------------------------------------------
def test_daemon_drain_executes_submitted_job(tmp_path, serial,
                                             candidates):
    root = tmp_path / "store"
    service = CampaignService(root)
    job_id = service.submit(CampaignRequest(variant="small-improved"))
    code = ServiceDaemon(root, DaemonConfig(
        drain=True, verbose=False)).serve()
    assert code == 0
    job = service.status(job_id)
    assert job.status == JOB_DONE and job.attempts == 1
    assert job.result["measured_dc"] == serial.measured_dc()
    assert job.result["faults"] == len(candidates.faults)
    assert job.run_id is not None
    # the job's evidence landed in the content-addressed store
    with CampaignCache(root) as cache:
        assert cache.db.run(job.run_id)["status"] == "done"
        assert cache.db.outcome_count() == len(candidates.faults)


def test_queued_unsupervised_job_runs_supervised(tmp_path, serial,
                                                candidates):
    """A job row written when requests still carried a ``supervise``
    switch is claimed and completes under the supervisor."""
    root = tmp_path / "store"
    spec = {**CampaignRequest(variant="small-improved").to_dict(),
            "supervise": False}
    with JobQueue(root) as queue:
        job_id = queue.submit(spec)
    code = ServiceDaemon(root, DaemonConfig(
        drain=True, verbose=False)).serve()
    assert code == 0
    job = CampaignService(root).status(job_id)
    assert job.status == JOB_DONE
    assert job.result["faults"] == len(candidates.faults)
    assert job.result["measured_dc"] == serial.measured_dc()
    assert job.result["safe_fraction"] == \
        serial.measured_safe_fraction()
    # shard attempts are logged by the supervisor alone
    with CampaignCache(root) as cache:
        assert cache.db.shard_attempt_count() > 0


def test_queued_interpreted_engine_job_runs(tmp_path, serial,
                                            candidates):
    """A job row written when requests still carried an ``engine``
    choice runs to done on the one engine with the same metrics, and
    ``jobs status`` no longer lists the dropped field."""
    root = tmp_path / "store"
    spec = {**CampaignRequest(variant="small-improved").to_dict(),
            "engine": "interpreted"}
    with JobQueue(root) as queue:
        job_id = queue.submit(spec)
    code = ServiceDaemon(root, DaemonConfig(
        drain=True, verbose=False)).serve()
    assert code == 0
    job = CampaignService(root).status(job_id)
    assert job.status == JOB_DONE
    assert job.result["faults"] == len(candidates.faults)
    assert job.result["measured_dc"] == serial.measured_dc()
    assert job.result["safe_fraction"] == \
        serial.measured_safe_fraction()
    from repro.reporting.jobs import job_detail_pairs
    assert "engine" not in dict(job_detail_pairs(job))

def test_poison_job_dead_letters_with_diagnostic(tmp_path, env,
                                                 serial, capsys):
    """A job whose spec references a missing stimuli file is
    deterministic poison: dead-lettered on the first attempt with the
    coded diagnostic and no traceback, revivable with ``jobs retry``
    once the cause is fixed."""
    from repro.cli import main
    from repro.faultinjection.environment import save_stimuli

    root = tmp_path / "store"
    stimuli = tmp_path / "campaign_stimuli.json"
    service = CampaignService(root)
    job_id = service.submit(CampaignRequest(
        variant="small-improved", stimuli=str(stimuli)))
    assert ServiceDaemon(root, DaemonConfig(
        drain=True, verbose=False)).serve() == 3

    job = service.status(job_id)
    assert job.status == JOB_DEAD
    assert job.attempts == 1                  # fatal: no blind retry
    assert job.error["kind"] == "diagnostic"
    assert "E2" in job.error["detail"]        # the coded cause
    assert "Traceback" not in json.dumps(job.error)

    # `jobs list` holds exit 3 while the dead letter exists
    assert main(["--store", str(root), "jobs", "list"]) == 3
    out = capsys.readouterr()
    assert f"| {job_id} " in out.out and "dead" in out.out
    assert "Traceback" not in out.out + out.err

    # fix the cause, revive the job, and the daemon completes it
    save_stimuli(env.stimuli, stimuli)
    assert main(["--store", str(root), "jobs", "retry",
                 str(job_id)]) == 0
    capsys.readouterr()
    assert ServiceDaemon(root, DaemonConfig(
        drain=True, verbose=False)).serve() == 0
    job = service.status(job_id)
    assert job.status == JOB_DONE
    assert job.result["measured_dc"] == serial.measured_dc()
    assert main(["--store", str(root), "jobs", "list"]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------
# chaos: SIGKILL the daemon mid-job
# ----------------------------------------------------------------------
def test_sigkill_daemon_job_resumes_from_store(tmp_path, serial,
                                               candidates):
    """Kill ``serve`` mid-campaign.  The lease expires, a fresh
    daemon re-claims the job, and the store resume guarantees the
    second attempt simulates exactly the cones the dead worker never
    recorded — with final metrics bit-identical to the serial run."""
    root = tmp_path / "store"
    total = len(candidates.faults)
    submit = subprocess.run(
        CLI + ["--store", str(root), "jobs", "submit",
               "--variant", "small-improved",
               "--machines-per-pass", "8"],
        cwd=tmp_path, env=ENV, capture_output=True, timeout=120)
    assert submit.returncode == 0, submit.stderr

    serve = CLI + ["--store", str(root), "serve", "--drain",
                   "--lease", "2", "--heartbeat-interval", "0.2",
                   "--poll-interval", "0.1"]
    proc = subprocess.Popen(serve, cwd=tmp_path, env=ENV,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            if 0 < _outcome_count(root):
                break
            time.sleep(0.02)
        else:
            raise AssertionError("no outcome persisted before "
                                 "timeout")
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=30)

    persisted = _outcome_count(root)
    assert 0 < persisted, "kill landed before any evidence"
    with JobQueue(root) as queue:
        job = queue.jobs()[0]
        assert job.status in ("leased", "running")
        assert job.attempts == 1

    second = subprocess.run(serve, cwd=tmp_path, env=ENV,
                            capture_output=True, timeout=300)
    out = second.stdout.decode()
    assert second.returncode == 0, out
    with JobQueue(root) as queue:
        job = queue.jobs()[0]
    assert job.status == JOB_DONE
    assert job.attempts == 2                    # one claim per daemon
    result = job.result
    assert result["faults"] == total
    # store-resume proof: the re-claimed attempt was served the dead
    # worker's persisted cones and simulated only the remainder
    if persisted < total:
        assert result["hits"] == persisted
        assert result["simulated"] == total - persisted
    assert result["measured_dc"] == serial.measured_dc()
    assert result["safe_fraction"] == serial.measured_safe_fraction()

    # and the store as a whole replays warm — zero re-simulation —
    # with metrics bit-identical to the reference
    service = CampaignService(root)
    replay = service.run_campaign(
        CampaignRequest(variant="small-improved"))
    assert replay.exit_code == 0
    assert replay.simulated == 0 and replay.hits == total
    assert replay.measured_dc == serial.measured_dc()


def test_two_daemons_never_double_execute(tmp_path):
    """Two draining daemons over two queued jobs: each job runs
    exactly once (attempts == 1) and both daemons exit clean."""
    root = tmp_path / "store"
    for _ in range(2):
        submit = subprocess.run(
            CLI + ["--store", str(root), "jobs", "submit",
                   "--variant", "small-improved", "--sample", "24"],
            cwd=tmp_path, env=ENV, capture_output=True, timeout=120)
        assert submit.returncode == 0, submit.stderr
    serve = CLI + ["--store", str(root), "serve", "--drain",
                   "--lease", "30", "--poll-interval", "0.1"]
    procs = [subprocess.Popen(serve, cwd=tmp_path, env=ENV,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
             for _ in range(2)]
    outs = [p.communicate(timeout=300)[0].decode() for p in procs]
    assert all(p.returncode == 0 for p in procs), outs
    with JobQueue(root) as queue:
        jobs = queue.jobs()
    assert [job.status for job in jobs] == [JOB_DONE, JOB_DONE]
    assert [job.attempts for job in jobs] == [1, 1]


# ----------------------------------------------------------------------
# fsck + gc queue audits
# ----------------------------------------------------------------------
def test_fsck_detects_and_repairs_queue_faults(tmp_path):
    root = tmp_path / "store"
    with JobQueue(root) as queue:
        stale_id = queue.submit({})
        queue.claim("ghost", lease_seconds=0.01)
        orphan_id = queue.submit({})
        dead_id = queue.submit({}, max_attempts=1)
        healthy_id = queue.submit({})
        with queue.db.immediate() as conn:
            # an active job pointing at a run the store never recorded
            conn.execute("UPDATE jobs SET run_id=991 WHERE job_id=?",
                         (orphan_id,))
            # a dead letter whose evidence was collected
            conn.execute(
                "UPDATE jobs SET status='dead', run_id=992,"
                " error='{\"kind\": \"crash\"}' WHERE job_id=?",
                (dead_id,))
    time.sleep(0.05)

    with CampaignCache(root) as cache:
        audit = fsck_store(cache, repair=False)
        assert {"E410", "E411", "E412"} <= audit.report.codes()
        result = fsck_store(cache, repair=True)
        assert len(result.repaired) >= 3

    with JobQueue(root) as queue:
        assert queue.job(stale_id).status == JOB_QUEUED   # released
        assert queue.job(orphan_id).run_id is None        # cleared
        assert queue.job(dead_id) is None                 # deleted
        healthy = queue.job(healthy_id)
        assert healthy.status == JOB_QUEUED               # untouched
        clean = fsck_store(CampaignCache(root), repair=False)
        assert not {"E410", "E411", "E412"} & clean.report.codes()


def test_gc_keeps_runs_of_active_jobs(tmp_path, env, candidates):
    root = tmp_path / "store"
    with CampaignCache(root) as cache:
        CampaignSupervisor(env.spec(), workers=1, cache=cache).run(candidates)
        first_run = cache.db.runs()[-1]["run_id"]
    with CampaignCache(root) as cache:
        CampaignSupervisor(env.spec(), workers=1, cache=cache).run(candidates)

    with JobQueue(root) as queue:
        job_id = queue.submit({})
        job = queue.claim("w1", lease_seconds=60.0)
        assert job.job_id == job_id
        assert queue.record_run(job_id, "w1", first_run)

    # keep_runs=1 would normally drop the older run — but a leased
    # job still references it, so gc must keep the evidence alive
    with CampaignCache(root) as cache:
        gc_store(cache, keep_runs=1)
        kept = [r["run_id"] for r in cache.db.runs()]
        assert first_run in kept and len(kept) == 2

    with JobQueue(root) as queue:
        queue.complete(job_id, "w1", {})
    with CampaignCache(root) as cache:
        gc_store(cache, keep_runs=1)
        assert first_run not in \
            [r["run_id"] for r in cache.db.runs()]


def test_drained_pool_returns_when_its_children_exit(tmp_path):
    """The pool parent waits on its children's exit, not on a poll."""
    started = time.monotonic()
    assert ServiceDaemon(tmp_path / "store", DaemonConfig(
        workers=2, drain=True, poll_interval=30.0,
        verbose=False)).serve() == 0
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"the drained pool took {elapsed:.1f} s"


def test_pooled_serve_stops_promptly_on_sigterm(tmp_path):
    """SIGTERM ends the pool parent's wait on its children at once,
    not after its poll period."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--workers", "2",
         "--poll-interval", "30", "--store", str(tmp_path / "store")],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        assert "serving" in proc.stdout.readline()
        time.sleep(0.5)             # let the parent enter its wait
        proc.send_signal(signal.SIGTERM)
        started = time.monotonic()
        exit_code = proc.wait(timeout=60)
        elapsed = time.monotonic() - started
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert exit_code == 0, proc.stdout.read()
    assert elapsed < 5.0, f"the pool took {elapsed:.1f} s to stop"
