"""Integrity audit and repair for the campaign store (``store fsck``).

The store is designed so that *any* record can be deleted safely: every
outcome is a pure function of content-addressed inputs, so dropping a
corrupt row merely turns a warm cache hit back into a cache miss that
deterministic re-simulation restores bit-identically.  ``fsck`` walks
every invariant the store relies on and reports violations as coded
``E4xx`` diagnostics; with ``repair=True`` it applies the deletion /
cleanup that restores each invariant:

========  ==========================================  ================
code      invariant violated                          repair action
========  ==========================================  ================
``E400``  SQLite index opens and passes its own       none (manual)
          b-tree integrity check
``E401``  blob content hashes to its address          delete blob
``E402``  every golden-map digest has a blob          drop map entry
``E403``  every run's golden/profile blob exists       clear reference
``E404``  run_faults/shard_attempts rows belong       delete rows
          to a recorded run
``E405``  outcome 'effects' payloads parse            delete rows
``E406``  anomaly rows reference recorded runs        delete rows
``E407``  every blob is referenced (warning)          delete blob (GC)
``E408``  runs finished (warning — resumable)         none
``E410``  job leases have live heartbeats             release lease
          (warning — any daemon re-claims)            back to queue
``E411``  active jobs reference recorded runs         clear reference
``E412``  dead-letter jobs' evidence still exists     delete job row
========  ==========================================  ================

The ``E41x`` sections audit the job queue (``repro.service.queue``)
that shares this index; queue repairs touch exactly the broken rows,
never healthy neighbours.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from ..diagnostics import DiagnosticReport
from .cache import CampaignCache


@dataclass
class FsckResult:
    """Outcome of one ``store fsck`` pass."""

    report: DiagnosticReport
    repaired: list[str] = field(default_factory=list)
    checked_blobs: int = 0
    checked_outcomes: int = 0

    @property
    def clean(self) -> bool:
        return self.report.ok and not self.report.warnings

    def summary(self) -> str:
        state = ("clean" if self.clean
                 else "repaired" if self.repaired
                 else "problems found")
        return (f"fsck: {self.checked_blobs} blob(s), "
                f"{self.checked_outcomes} outcome row(s) checked — "
                f"{state}")


def fsck_store(cache: CampaignCache, *, repair: bool = False,
               report: DiagnosticReport | None = None) -> FsckResult:
    """Audit (and optionally repair) one campaign store.

    Repairs only ever *remove* broken records — nothing is rewritten —
    so a repaired store re-simulates exactly the evidence it lost and
    a subsequent warm campaign is bit-identical to a cold one.
    """
    collect = report if report is not None else DiagnosticReport()
    result = FsckResult(report=collect)

    # E400 — the index itself
    try:
        verdict = cache.db.integrity_check()
    except Exception as err:   # sqlite3.DatabaseError and friends
        collect.error(
            "E400", f"campaign store index is unreadable: {err}",
            file=str(cache.db.path))
        return result
    if verdict != "ok":
        collect.error(
            "E400", f"SQLite integrity check failed: {verdict}",
            file=str(cache.db.path),
            hint="restore the index from backup or delete it — all "
                 "outcomes will be re-simulated")
        return result

    digests = cache.blobs.digests()
    present = set(digests)

    # E401 — blob content vs address
    corrupt: list[str] = []
    for digest in digests:
        result.checked_blobs += 1
        try:
            data = cache.blobs.path_for(digest).read_bytes()
        except OSError:
            corrupt.append(digest)
            continue
        if hashlib.sha256(data).hexdigest() != digest:
            corrupt.append(digest)
    for digest in corrupt:
        collect.error(
            "E401", f"blob {digest[:12]} is corrupt (content does "
                    f"not hash to its address)",
            file=str(cache.blobs.path_for(digest)))
    if repair and corrupt:
        for digest in corrupt:
            cache.blobs.delete(digest)
            present.discard(digest)
        result.repaired.append(
            f"deleted {len(corrupt)} corrupt blob(s)")

    # E402 — golden map entries must have blobs
    missing_keys = [key for key, digest in cache.db.golden_rows()
                    if digest not in present]
    for key in missing_keys:
        collect.error(
            "E402", f"golden-map entry {key[:12]} points at a "
                    f"missing blob",
            hint="repair drops the entry; the profile is replayed "
                 "on the next campaign")
    if repair and missing_keys:
        cache.db.delete_golden_keys(missing_keys)
        result.repaired.append(
            f"dropped {len(missing_keys)} golden entr"
            f"{'y' if len(missing_keys) == 1 else 'ies'} with "
            f"missing blobs")

    # E403 — runs referencing vanished golden/profile blobs
    broken_refs = [(run_id, column) for run_id, column, digest
                   in cache.db.run_blob_refs()
                   if digest not in present]
    for run_id, column in broken_refs:
        kind = column.removesuffix("_blob")
        collect.error(
            "E403", f"run #{run_id} references a missing {kind} "
                    f"blob")
    if repair and broken_refs:
        cache.db.clear_run_blob_refs(broken_refs)
        result.repaired.append(
            f"cleared {len(broken_refs)} blob reference(s) of runs")

    # E404 — membership rows of vanished runs
    dangling = cache.db.dangling_membership()
    for table, run_ids in dangling.items():
        ids = ", ".join(f"#{r}" for r in run_ids[:5])
        more = f", … ({len(run_ids) - 5} more)" if len(run_ids) > 5 \
            else ""
        collect.error(
            "E404", f"{table} rows belong to unrecorded run(s) "
                    f"{ids}{more}")
    if repair and dangling:
        removed = cache.db.delete_dangling_membership()
        result.repaired.append(
            f"deleted {removed} dangling membership row(s)")

    # E405 — unparsable outcome payloads
    bad_fps: list[str] = []
    for fp, name, effects_json in cache.db.iter_outcome_effects():
        result.checked_outcomes += 1
        try:
            effects = json.loads(effects_json)
            if not isinstance(effects, dict):
                raise ValueError("effects is not a table")
            for k, v in effects.items():
                int(v)
        except (ValueError, TypeError):
            bad_fps.append(fp)
            collect.error(
                "E405", f"outcome record for {name!r} "
                        f"({fp[:12]}) has an unparsable effects "
                        f"payload",
                hint="repair deletes the row; the fault is "
                     "re-simulated on the next campaign")
    if repair and bad_fps:
        cache.db.delete_outcomes(bad_fps)
        result.repaired.append(
            f"deleted {len(bad_fps)} unparsable outcome row(s)")

    # E406 — anomalies pointing at vanished runs
    dangling_anoms = cache.db.dangling_anomalies()
    for fp, name, run_id in dangling_anoms:
        collect.error(
            "E406", f"quarantine record for {name!r} points at "
                    f"unrecorded run #{run_id}",
            hint="repair deletes the record; the next campaign "
                 "retries the fault")
    if repair and dangling_anoms:
        cache.db.delete_anomalies([fp for fp, _, _ in dangling_anoms])
        result.repaired.append(
            f"deleted {len(dangling_anoms)} dangling quarantine "
            f"record(s)")

    # E407 — orphan blobs (space leak, not corruption → warning)
    referenced = cache.db.golden_digests()
    referenced.update(digest for _, _, digest
                      in cache.db.run_blob_refs())
    orphans = [d for d in sorted(present) if d not in referenced]
    for digest in orphans:
        collect.warn(
            "E407", f"blob {digest[:12]} is referenced by nothing",
            hint="repair (or 'store gc') reclaims the space")
    if repair and orphans:
        freed = 0
        for digest in orphans:
            try:
                freed += cache.blobs.path_for(digest).stat().st_size
            except OSError:
                pass
            cache.blobs.delete(digest)
        result.repaired.append(
            f"reclaimed {len(orphans)} orphan blob(s) "
            f"({freed} bytes)")

    # E408 — interrupted runs (informational: they resume cleanly)
    for run in cache.db.runs(status="running"):
        collect.warn(
            "E408", f"run #{run['run_id']} never finished "
                    f"(status 'running')",
            hint="a re-run over the same environment resumes from "
                 "its completed outcomes")

    # E410 — stale job leases (a daemon died mid-job; warning: any
    # running `soc-fmea serve` re-claims these on its own)
    stale = cache.db.stale_job_leases(time.time())
    for job in stale:
        collect.warn(
            "E410", f"job #{job['job_id']}'s lease (owner "
                    f"{job['lease_owner']}) expired without a "
                    f"heartbeat — its worker died",
            hint="any 'soc-fmea serve' re-claims it; repair releases "
                 "it back to the queue now")
    if repair and stale:
        released = cache.db.release_job_leases(
            [job["job_id"] for job in stale])
        result.repaired.append(
            f"released {released} stale job lease(s) back to the "
            f"queue")

    # E411 — active jobs referencing vanished runs
    orphans_jobs = cache.db.orphan_job_rows()
    for job in orphans_jobs:
        collect.error(
            "E411", f"job #{job['job_id']} references unrecorded "
                    f"run #{job['run_id']}",
            hint="repair clears the reference; the job re-simulates "
                 "what the store no longer holds")
    if repair and orphans_jobs:
        cleared = cache.db.clear_job_runs(
            [job["job_id"] for job in orphans_jobs])
        result.repaired.append(
            f"cleared the run reference of {cleared} job(s)")

    # E412 — dead-letter jobs whose recorded evidence was collected
    gone = cache.db.dead_jobs_missing_runs()
    for job in gone:
        collect.error(
            "E412", f"dead-letter job #{job['job_id']}'s recorded "
                    f"run #{job['run_id']} was garbage-collected",
            hint="repair deletes the job row — re-submit the "
                 "campaign if it is still wanted")
    if repair and gone:
        removed = cache.db.delete_jobs(
            [job["job_id"] for job in gone])
        result.repaired.append(
            f"deleted {removed} dead-letter job(s) with collected "
            f"evidence")
    return result
