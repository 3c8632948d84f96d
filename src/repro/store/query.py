"""Cross-run queries over the campaign store.

Recorded runs are first-class artifacts (the Failure Mode Reasoning
line of work treats analysis results as queryable data, not console
output): this module computes store-wide statistics, compares two runs
fault-by-fault, reports which zones regressed, and garbage-collects
history nobody references anymore.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cache import CampaignCache

#: outcome classes where the safety mechanism failed to act in time —
#: a zone whose population shifts *into* these classes regressed
_DANGEROUS_UNDETECTED = "dangerous_undetected"


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
@dataclass
class StoreStats:
    """Headline numbers of one store directory."""

    root: str
    runs: int
    done_runs: int
    interrupted_runs: int
    outcomes: int
    blobs: int
    blob_bytes: int
    db_bytes: int
    anomalies: int = 0
    shard_attempts: int = 0
    jobs: int = 0
    active_jobs: int = 0
    dead_jobs: int = 0

    def as_pairs(self) -> list[tuple[str, object]]:
        pairs = [
            ("store", self.root),
            ("recorded runs", self.runs),
            ("completed runs", self.done_runs),
            ("interrupted runs", self.interrupted_runs),
            ("cached fault outcomes", self.outcomes),
            ("quarantined faults", self.anomalies),
            ("shard attempts logged", self.shard_attempts),
            ("blobs", self.blobs),
            ("blob bytes", self.blob_bytes),
            ("index bytes", self.db_bytes),
        ]
        if self.jobs:
            pairs += [
                ("queued campaign jobs", self.jobs),
                ("active jobs", self.active_jobs),
                ("dead-letter jobs", self.dead_jobs),
            ]
        return pairs


def store_stats(cache: CampaignCache) -> StoreStats:
    from .db import ACTIVE_JOB_STATES
    runs = cache.db.runs()
    done = sum(1 for r in runs if r["status"] == "done")
    db_path = cache.db.path
    job_counts = cache.db.job_counts()
    return StoreStats(
        jobs=sum(job_counts.values()),
        active_jobs=sum(job_counts.get(state, 0)
                        for state in ACTIVE_JOB_STATES),
        dead_jobs=job_counts.get("dead", 0),
        root=str(cache.root),
        runs=len(runs),
        done_runs=done,
        interrupted_runs=len(runs) - done,
        outcomes=cache.db.outcome_count(),
        blobs=len(cache.blobs),
        blob_bytes=cache.blobs.total_bytes(),
        db_bytes=db_path.stat().st_size if db_path.exists() else 0,
        anomalies=cache.db.anomaly_count(),
        shard_attempts=cache.db.shard_attempt_count())


# ----------------------------------------------------------------------
# run diff
# ----------------------------------------------------------------------
@dataclass
class ZoneChange:
    """Outcome population of one zone in two runs."""

    zone: str
    counts_a: dict[str, int]
    counts_b: dict[str, int]

    @property
    def changed(self) -> bool:
        return self.counts_a != self.counts_b

    @property
    def regressed(self) -> bool:
        """More dangerous-undetected faults than before."""
        return (self.counts_b.get(_DANGEROUS_UNDETECTED, 0)
                > self.counts_a.get(_DANGEROUS_UNDETECTED, 0))


@dataclass
class RunDiff:
    """Fault-by-fault comparison of two recorded runs."""

    run_a: dict
    run_b: dict
    zone_changes: list[ZoneChange] = field(default_factory=list)
    changed_faults: list[tuple[str, str | None, str | None,
                               str | None]] = field(
        default_factory=list)   # (name, zone, outcome_a, outcome_b)

    @property
    def dc_delta(self) -> float:
        return ((self.run_b.get("measured_dc") or 0.0)
                - (self.run_a.get("measured_dc") or 0.0))

    @property
    def safe_delta(self) -> float:
        return ((self.run_b.get("safe_fraction") or 0.0)
                - (self.run_a.get("safe_fraction") or 0.0))

    def affected_zones(self) -> list[str]:
        return [c.zone for c in self.zone_changes if c.changed]

    def regressed_zones(self) -> list[str]:
        return [c.zone for c in self.zone_changes if c.regressed]


def diff_runs(cache: CampaignCache, run_a: int | None = None,
              run_b: int | None = None) -> RunDiff:
    """Compare two runs (default: the two most recent completed).

    ``run_a`` is the reference (older), ``run_b`` the candidate
    (newer).  Faults are matched by name — the stable identity that
    survives netlist edits, unlike the content fingerprint which is
    *designed* to change with them.
    """
    if run_a is None or run_b is None:
        done = cache.db.runs(limit=2, status="done")
        if len(done) < 2:
            raise ValueError(
                "store diff needs two completed runs "
                f"(found {len(done)})")
        run_b = run_b if run_b is not None else done[0]["run_id"]
        run_a = run_a if run_a is not None else done[1]["run_id"]
    row_a = cache.db.run(run_a)
    row_b = cache.db.run(run_b)
    if row_a is None or row_b is None:
        missing = run_a if row_a is None else run_b
        raise ValueError(f"no recorded run #{missing}")

    faults_a = {f["fault_name"]: f for f in cache.db.run_faults(run_a)}
    faults_b = {f["fault_name"]: f for f in cache.db.run_faults(run_b)}
    diff = RunDiff(run_a=row_a, run_b=row_b)

    zones: dict[str, ZoneChange] = {}

    def bucket(zone: str) -> ZoneChange:
        if zone not in zones:
            zones[zone] = ZoneChange(zone=zone, counts_a={},
                                     counts_b={})
        return zones[zone]

    for name, fault in faults_a.items():
        counts = bucket(fault["zone"] or "?").counts_a
        counts[fault["outcome"]] = counts.get(fault["outcome"], 0) + 1
    for name, fault in faults_b.items():
        counts = bucket(fault["zone"] or "?").counts_b
        counts[fault["outcome"]] = counts.get(fault["outcome"], 0) + 1

    for name in sorted(set(faults_a) | set(faults_b)):
        a = faults_a.get(name)
        b = faults_b.get(name)
        outcome_a = a["outcome"] if a else None
        outcome_b = b["outcome"] if b else None
        if outcome_a != outcome_b:
            zone = (b or a)["zone"]
            diff.changed_faults.append(
                (name, zone, outcome_a, outcome_b))

    diff.zone_changes = [zones[z] for z in sorted(zones)]
    return diff


# ----------------------------------------------------------------------
# garbage collection
# ----------------------------------------------------------------------
@dataclass
class GcResult:
    runs_removed: int
    outcomes_removed: int
    blobs_removed: int
    bytes_reclaimed: int


def gc_store(cache: CampaignCache, keep_runs: int = 10) -> GcResult:
    """Drop old runs, unreferenced outcomes and orphaned blobs."""
    runs_removed, outcomes_removed = cache.db.gc(keep_runs)
    referenced = cache.db.golden_digests()
    referenced.update(digest for _, _, digest
                      in cache.db.run_blob_refs())
    blobs_removed = 0
    bytes_reclaimed = 0
    for digest in cache.blobs.digests():
        if digest in referenced:
            continue
        bytes_reclaimed += cache.blobs.path_for(digest).stat().st_size
        cache.blobs.delete(digest)
        blobs_removed += 1
    return GcResult(runs_removed=runs_removed,
                    outcomes_removed=outcomes_removed,
                    blobs_removed=blobs_removed,
                    bytes_reclaimed=bytes_reclaimed)


def run_summary_rows(cache: CampaignCache, limit: int = 20,
                     design: str | None = None) -> list[list]:
    """Table rows for ``soc-fmea store query``."""
    rows = []
    for run in cache.db.runs(limit=limit, design=design):
        counts = json.loads(run["outcome_counts"] or "{}")
        rows.append([
            run["run_id"], run["status"], run["design"],
            run["faults"], run["hits"], run["misses"],
            f"{(run['measured_dc'] or 0.0) * 100:.2f}%"
            if run["measured_dc"] is not None else "-",
            f"{(run['safe_fraction'] or 0.0) * 100:.2f}%"
            if run["safe_fraction"] is not None else "-",
            counts.get(_DANGEROUS_UNDETECTED, "-"),
            counts.get("quarantined", 0) or "-",
            f"{run['wall_seconds']:.2f}s"
            if run["wall_seconds"] is not None else "-",
        ])
    return rows
