"""The campaign cache façade: serve cached outcomes, simulate the rest.

:class:`CampaignCache` sits between the campaign supervisor
(:class:`~repro.faultinjection.supervisor.CampaignSupervisor`) and the
content-addressed store.  It plans a candidate list into cached
outcomes and misses (:meth:`CampaignCache.plan`), serves the
operational profile — the campaign's one fault-free replay, from which
the golden trace is derived — from the store, and persists the
outcomes the supervisor simulates; the supervisor shards only the
misses across worker processes, and the result is bit-identical to an
uncached cold run over the same candidates.

Fresh outcomes are persisted incrementally (after every simulated
shard), so a killed campaign resumes exactly where it stopped:
re-running the same command turns the completed work into cache hits
and simulates only the remainder.  Campaigns that collect toggles
(any-machine activity is not part of a fault's record) bypass the
store and are counted in ``stats.uncacheable``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from ..faultinjection.manager import FaultResult
from ..faultinjection import profiler
from .blobs import BlobStore, CorruptBlobError
from .db import OutcomeRow, StoreDB
from .fingerprint import FingerprintContext, profile_key


@dataclass
class CacheStats:
    """Hit/miss ledger of one :class:`CampaignCache` instance."""

    hits: int = 0            # outcomes served from the store
    misses: int = 0          # outcomes that had to be simulated
    writes: int = 0          # new outcome rows appended
    simulated: int = 0       # faults actually run through a simulator
    uncacheable: int = 0     # faults that bypassed the store entirely
    corrupt: int = 0         # corrupt/unreadable entries re-derived
    poisoned: int = 0        # known-poison faults quarantined up front
    profile_hits: int = 0    # operational profiles served from the store
    profile_misses: int = 0  # operational profiles replayed
    profile_s: float = 0.0   # time spent obtaining the profile
    fingerprint_s: float = 0.0   # fingerprinting, cone sweep included
    seed_sets: int = 0       # distinct resolved seed sets swept

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self) -> str:
        return (f"store: {self.hits} hits, {self.misses} misses "
                f"({self.hit_rate() * 100:.1f}% hit rate), "
                f"{self.writes} new outcomes, "
                f"{self.simulated} faults simulated")

    def planning(self) -> str:
        """Where the planning pass (profile, fingerprints) spent its
        time."""
        profile = "hit" if self.profile_hits and not self.profile_misses \
            else "miss"
        return (f"planning: profile {profile} {self.profile_s:.2f}s, "
                f"fingerprints {self.fingerprint_s:.2f}s over "
                f"{self.seed_sets} seed sets")


@dataclass
class CampaignPlan:
    """The cache's partition of one candidate list."""

    fingerprints: list[str]
    cached: dict[int, OutcomeRow] = field(default_factory=dict)
    misses: list[int] = field(default_factory=list)


class CampaignCache:
    """Content-addressed campaign store under one root directory."""

    def __init__(self, path):
        from pathlib import Path
        self.root = Path(path)
        self.root.mkdir(parents=True, exist_ok=True)
        self.blobs = BlobStore(self.root)
        self.db = StoreDB(self.root / "store.db")
        self.stats = CacheStats()
        self.last_run_id: int | None = None
        #: blob of the last profile served, recorded on the next run
        #: row so ``gc`` keeps it while that run is kept
        self._profile_blob: str | None = None

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "CampaignCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def profile(self, env) -> profiler.OperationalProfile:
        """The operational profile of ``env``'s workload, from the store.

        The profile, with the per-net activity the golden trace is
        derived from, is a fault-free property of (design, workload),
        so it is content-addressed (see
        :func:`~repro.store.fingerprint.profile_key`) and indexed in
        the ``golden`` table.  A missing, corrupt or unparsable entry
        is replayed and rewritten.  The environment holds its setup
        as data already, so it enters the key as is.
        """
        start = time.perf_counter()
        key = profile_key(env.circuit, env.stimuli, env.setup,
                          env.read_strobes)
        digest, data = self._get_json(key)
        profile = None
        if data is not None:
            try:
                profile = profiler.OperationalProfile.from_dict(data)
            except (KeyError, TypeError, ValueError, AttributeError):
                self.stats.corrupt += 1
        if profile is not None:
            self.stats.profile_hits += 1
        else:
            profile = profiler.profile_workload(
                env.circuit, env.stimuli, setup=env.setup,
                read_strobes=env.read_strobes, program=env.program())
            digest = self._put_blob(key, json.dumps(
                profile.to_dict(), separators=(",", ":")).encode())
            self.stats.profile_misses += 1
        self._profile_blob = digest
        self.stats.profile_s += time.perf_counter() - start
        return profile

    def plan(self, ctx: FingerprintContext,
             faults: list) -> CampaignPlan:
        start = time.perf_counter()
        fps = [ctx.fault_fingerprint(f) for f in faults]
        self.stats.fingerprint_s += time.perf_counter() - start
        self.stats.seed_sets += ctx.seed_sets
        rows = self.db.get_outcomes(sorted(set(fps)))
        plan = CampaignPlan(fingerprints=fps)
        for i, fp in enumerate(fps):
            row = rows.get(fp)
            if row is not None:
                plan.cached[i] = row
            else:
                plan.misses.append(i)
        self.stats.hits += len(plan.cached)
        self.stats.misses += len(plan.misses)
        return plan

    # ------------------------------------------------------------------
    # run bookkeeping (used by the campaign supervisor)
    # ------------------------------------------------------------------
    def _begin(self, ctx, manager, faults, workers: int) -> int:
        cfg = manager.config
        run_id = self.db.begin_run(
            design=manager.circuit.name,
            env_fp=ctx.environment_fingerprint(),
            faults=len(faults), workers=workers,
            window=cfg.detection_window,
            test_windows=cfg.test_windows,
            profile_blob=self._profile_blob)
        self._profile_blob = None
        self.last_run_id = run_id
        return run_id

    def _persist(self, fresh: list[tuple[str, FaultResult]]) -> None:
        rows = [OutcomeRow(
            fault_fp=fp, fault_name=res.fault.name,
            zone=res.fault.zone, kind=res.fault.kind,
            sens_cycle=res.sens_cycle, obse_cycle=res.obse_cycle,
            diag_cycle=res.diag_cycle, first_alarm=res.first_alarm,
            effects=dict(res.effects)) for fp, res in fresh]
        self.stats.writes += self.db.put_outcomes(rows)

    # ------------------------------------------------------------------
    # content-keyed JSON blobs (operational profiles)
    # ------------------------------------------------------------------
    def _get_json(self, key: str) -> tuple[str | None, object]:
        """``(blob digest, JSON document)`` indexed under ``key``; the
        document is ``None`` when the entry is absent or unreadable
        (counted in ``stats.corrupt``)."""
        digest = self.db.get_golden(key)
        if digest is None:
            return None, None
        try:
            return digest, json.loads(self.blobs.get(digest))
        except CorruptBlobError:
            # drop the torn object, or the rewrite would be skipped as
            # already present
            self.blobs.delete(digest)
        except (KeyError, ValueError):
            pass
        self.stats.corrupt += 1
        return digest, None

    def _put_blob(self, key: str, data: bytes) -> str:
        digest = self.blobs.put(data)
        self.db.put_golden(key, digest)
        return digest


def _rebuild(fault, row: OutcomeRow) -> FaultResult:
    """Reconstruct the raw per-fault record from its stored form."""
    return FaultResult(
        fault=fault, sens_cycle=row.sens_cycle,
        obse_cycle=row.obse_cycle, diag_cycle=row.diag_cycle,
        first_alarm=row.first_alarm, effects=dict(row.effects))
