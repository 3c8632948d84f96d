"""The Pareto-front exploration driver (paper §6 as a search).

The walk is greedy and criticality-seeded:

1. evaluate the base point with a full campaign;
2. rank zones by λDU share (:func:`~repro.fmea.ranking.rank_zones`)
   and turn every (critical zone → covering transform) pair into a
   candidate step on that zone's bank;
3. score the open candidate steps *analytically* — elaborate the
   candidate, read the worksheet's claimed SFF and the measured
   gate/flop delta, no simulation — and take the best claimed-ΔSFF
   per unit cost;
4. evaluate the chosen point with a campaign routed through
   :class:`~repro.service.core.CampaignService` — queued as a durable
   job, lease-recovered if a worker dies, and deduped by the
   content-addressed store so only the cones the step touched are
   re-simulated;
5. insert into the :class:`ParetoFront`, pruning dominated points,
   until the SFF target is met, the campaign budget is spent, or no
   candidate remains.

A final verification campaign re-runs the recommended configuration;
by construction it must be served entirely warm from the store, and
its metrics must be bit-identical to the accepted evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..fmea.ranking import rank_zones
from ..iec61508.sil import SIL, max_sil
from ..soc.banked import bank_of_zone
from .transforms import (
    TRANSFORM_LIBRARY,
    DesignPoint,
    StructuralCost,
    structural_cost,
    transforms_for_zone,
)


@dataclass
class ExploreConfig:
    """One exploration's policy knobs (the CLI flags)."""

    variant: str = "baseline"
    banks: int = 2
    target_sff: float = 0.99
    hft: int = 0
    #: campaign budget: maximum evaluated points including the base
    #: (verification is free — it must be warm)
    budget: int = 12
    #: analytic scoring looks at most this many open candidates per
    #: step (they are criticality-ordered, so the tail rarely matters)
    probe_width: int = 3
    full: bool = False
    workers: int = 1
    verify: bool = True


@dataclass
class EvaluatedPoint:
    """One design point with its campaign evidence."""

    point: DesignPoint
    cost: StructuralCost
    claimed_sff: float
    claimed_dc: float
    measured_dc: float | None = None
    safe_fraction: float | None = None
    faults: int = 0
    hits: int = 0
    misses: int = 0
    simulated: int = 0
    run_id: int | None = None
    job_id: int | None = None
    exit_code: int = 0

    def sil_at(self, hft: int) -> SIL | None:
        return max_sil(self.claimed_sff, hft)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def dominates(a: EvaluatedPoint, b: EvaluatedPoint) -> bool:
    """Pareto dominance on (structural cost ↓, claimed SFF ↑)."""
    if a.cost.scalar > b.cost.scalar or a.claimed_sff < b.claimed_sff:
        return False
    return (a.cost.scalar < b.cost.scalar
            or a.claimed_sff > b.claimed_sff)


class ParetoFront:
    """The non-dominated evaluated points, cheapest first."""

    def __init__(self):
        self._points: list[EvaluatedPoint] = []

    def add(self, candidate: EvaluatedPoint) -> bool:
        """Insert unless dominated; prunes newly dominated points.
        Returns True if the candidate made the front."""
        for existing in self._points:
            if dominates(existing, candidate) or \
                    (existing.cost.scalar == candidate.cost.scalar
                     and existing.claimed_sff == candidate.claimed_sff):
                return False
        self._points = [p for p in self._points
                        if not dominates(candidate, p)]
        self._points.append(candidate)
        self._points.sort(key=lambda p: (p.cost.scalar,
                                         -p.claimed_sff))
        return True

    def points(self) -> list[EvaluatedPoint]:
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def cheapest_meeting(self, target_sff: float
                         ) -> EvaluatedPoint | None:
        for p in self._points:           # already cost-ascending
            if p.claimed_sff >= target_sff:
                return p
        return None


@dataclass
class ExplorationResult:
    """Everything the dossier needs, in evaluation order."""

    config: ExploreConfig
    base: EvaluatedPoint
    evaluations: list[EvaluatedPoint] = field(default_factory=list)
    front: ParetoFront = field(default_factory=ParetoFront)
    recommended: EvaluatedPoint | None = None
    verification: EvaluatedPoint | None = None
    target_met: bool = False
    steps_considered: int = 0
    log: list[str] = field(default_factory=list)

    @property
    def total_simulated(self) -> int:
        sims = sum(e.simulated for e in self.evaluations)
        if self.verification is not None:
            sims += self.verification.simulated
        return sims

    @property
    def total_hits(self) -> int:
        hits = sum(e.hits for e in self.evaluations)
        if self.verification is not None:
            hits += self.verification.hits
        return hits

    @property
    def total_misses(self) -> int:
        misses = sum(e.misses for e in self.evaluations)
        if self.verification is not None:
            misses += self.verification.misses
        return misses

    @property
    def hit_rate(self) -> float:
        total = self.total_hits + self.total_misses
        return self.total_hits / total if total else 0.0

    @property
    def incremental_hit_rate(self) -> float:
        """Warm-hit rate over the incremental phase only.

        The base seed campaign is excluded: it is the cold baseline
        every later campaign's reuse is measured against, so counting
        its misses would understate what the store saves on the walk.
        """
        hits = self.total_hits - self.base.hits
        misses = self.total_misses - self.base.misses
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def cold_faults(self) -> int:
        """What cold per-variant campaigns would have simulated."""
        cold = sum(e.faults for e in self.evaluations)
        if self.verification is not None:
            cold += self.verification.faults
        return cold


# ----------------------------------------------------------------------
# evaluation: one campaign through the service
# ----------------------------------------------------------------------
def _run_point(service, point: DesignPoint, config: ExploreConfig,
               progress=None) -> dict:
    """Evaluate one point; returns the campaign's summary dict."""
    from ..service.daemon import DaemonConfig, ServiceDaemon
    request = point.request(full=config.full, workers=config.workers)
    job_id = service.submit(request)
    daemon = ServiceDaemon(service.root, DaemonConfig(
        drain=True, verbose=False))
    daemon.worker_loop(0)
    job = service.status(job_id)
    if job is None or job.result is None:
        error = getattr(job, "error", None)
        detail = f": {json.dumps(error)}" if error else ""
        raise RuntimeError(
            f"exploration job {job_id} for {point.name!r} did not "
            f"complete{detail}")
    summary = dict(job.result)
    summary["job_id"] = job_id
    return summary


def _evaluate(service, point: DesignPoint, config: ExploreConfig,
              base_sub=None, progress=None) -> EvaluatedPoint:
    sub = point.build()
    cost = structural_cost(point, subsystem=sub,
                           base_subsystem=base_sub)
    summary = _run_point(service, point, config, progress=progress)
    return EvaluatedPoint(
        point=point, cost=cost,
        claimed_sff=summary.get("claimed_sff") or 0.0,
        claimed_dc=summary.get("claimed_dc") or 0.0,
        measured_dc=summary.get("measured_dc"),
        safe_fraction=summary.get("safe_fraction"),
        faults=summary.get("faults") or 0,
        hits=summary.get("hits") or 0,
        misses=summary.get("misses") or 0,
        simulated=summary.get("simulated") or 0,
        run_id=summary.get("run_id"),
        job_id=summary.get("job_id"),
        exit_code=summary.get("exit_code") or 0)


# ----------------------------------------------------------------------
# candidate generation: criticality-seeded steps
# ----------------------------------------------------------------------
def candidate_steps(worksheet, banks: int) -> list[tuple[int, str]]:
    """(bank, transform) steps ordered by the λDU share they attack.

    Every ranked zone proposes the transforms that cover it, on its
    own bank; zones that belong to no bank (shared bus/ports) propose
    the step on every bank.  The first proposal wins the ordering —
    λDU ranking is the paper's "ranking of sensible zones in terms of
    their criticality" driving which mitigation to try first.
    """
    seen: set[tuple[int, str]] = set()
    ordered: list[tuple[int, str]] = []
    for row in rank_zones(worksheet):
        bank = bank_of_zone(row.zone)
        targets = [bank] if bank is not None else list(range(banks))
        for transform in transforms_for_zone(row.zone):
            for b in targets:
                step = (b, transform.key)
                if step not in seen:
                    seen.add(step)
                    ordered.append(step)
    # anything the ranking never proposed (fully covered zones still
    # benefit from defence-in-depth steps) goes last, deterministic
    for key in TRANSFORM_LIBRARY:
        for b in range(banks):
            step = (b, key)
            if step not in seen:
                seen.add(step)
                ordered.append(step)
    return ordered


def _claimed_sff(point: DesignPoint, cache: dict) -> float:
    """Analytic score of a point: worksheet SFF, no simulation."""
    if point.applied not in cache:
        sub = point.build()
        cache[point.applied] = sub.worksheet().totals().sff
    return cache[point.applied]


# ----------------------------------------------------------------------
# the walk
# ----------------------------------------------------------------------
def explore(service, config: ExploreConfig | None = None,
            progress=None) -> ExplorationResult:
    """Walk the cost-vs-SFF front until target, budget, or frontier
    exhaustion.  ``service`` is a
    :class:`~repro.service.core.CampaignService`."""
    config = config or ExploreConfig()

    def say(line: str) -> None:
        if progress is not None:
            progress(line)

    base_point = DesignPoint(variant=config.variant,
                             banks=config.banks)
    base_sub = base_point.build()
    say(f"evaluating base point {base_point.name!r} "
        f"({config.banks} banks)")
    base = _evaluate(service, base_point, config, base_sub=base_sub,
                     progress=progress)
    result = ExplorationResult(config=config, base=base)
    result.evaluations.append(base)
    result.front.add(base)
    result.log.append(
        f"base {base_point.name}: SFF {base.claimed_sff:.4%}, "
        f"cost 0, measured DC "
        f"{(base.measured_dc or 0.0):.4%}")

    steps = candidate_steps(base_sub.worksheet(), config.banks)
    result.steps_considered = len(steps)
    score_cache: dict = {base_point.applied: base.claimed_sff}

    current = base
    budget = max(1, config.budget) - 1   # base consumed one
    while budget > 0 and current.claimed_sff < config.target_sff:
        open_steps = [s for s in steps
                      if s not in current.point.applied]
        if not open_steps:
            result.log.append("frontier exhausted: no step left")
            break
        # analytic probe of the criticality-ordered head
        best = None
        for step in open_steps[:config.probe_width]:
            candidate = current.point.with_transform(*step)
            sff = _claimed_sff(candidate, score_cache)
            gain = sff - current.claimed_sff
            if best is None or gain > best[1]:
                best = (candidate, gain, step)
        candidate, gain, step = best
        if gain <= 0:
            # head of the ranking is a no-op from here; drop it and
            # let the next-ranked steps bid
            steps.remove(step)
            result.log.append(
                f"pruned {step[1]} on bank {step[0]}: no claimed "
                f"SFF gain at this point")
            continue
        say(f"step: {step[1]} on bank {step[0]} "
            f"(claimed SFF -> {_claimed_sff(candidate, score_cache):.4%})")
        evaluated = _evaluate(service, candidate, config,
                              base_sub=base_sub, progress=progress)
        budget -= 1
        result.evaluations.append(evaluated)
        on_front = result.front.add(evaluated)
        result.log.append(
            f"step {evaluated.point.name}: SFF "
            f"{evaluated.claimed_sff:.4%}, cost "
            f"{evaluated.cost.scalar}, warm {evaluated.hits}/"
            f"{evaluated.hits + evaluated.misses}"
            f"{'' if on_front else ' (dominated)'}")
        current = evaluated

    recommended = result.front.cheapest_meeting(config.target_sff)
    result.target_met = recommended is not None
    result.recommended = recommended or (
        max(result.front.points(), key=lambda p: p.claimed_sff)
        if len(result.front) else None)

    if config.verify and result.recommended is not None:
        say(f"verification re-run of "
            f"{result.recommended.point.name!r}")
        verification = _evaluate(service, result.recommended.point,
                                 config, base_sub=base_sub,
                                 progress=progress)
        result.verification = verification
        result.log.append(
            f"verification {verification.point.name}: warm "
            f"{verification.hits}/{verification.hits + verification.misses},"
            f" measured DC {(verification.measured_dc or 0.0):.4%}")
    return result
