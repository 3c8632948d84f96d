"""The Pareto-front exploration driver (paper §6 as a search).

The walk is greedy and criticality-seeded:

1. evaluate the base point with a full campaign;
2. rank zones by λDU share (:func:`~repro.fmea.ranking.rank_zones`)
   and turn every (critical zone → covering transform) pair into a
   candidate step on that zone's bank;
3. score the open candidate steps *analytically* — elaborate the
   candidate, read the worksheet's claimed SFF and the measured
   gate/flop delta, no simulation — and take the best claimed-ΔSFF;
4. evaluate the chosen point with one
   :meth:`~repro.service.core.CampaignService.run_campaign` call on
   the design the probe already elaborated (its subsystem, zones and
   worksheet), deduped by the content-addressed store so only the
   cones the step touched are re-simulated;
5. insert into the :class:`ParetoFront`, pruning dominated points,
   until the SFF target is met, the campaign budget is spent, or no
   candidate remains.

Each point is elaborated once.  The walk keeps an elaborated design
only until its campaign: the base until it is evaluated, and in a
probe round the best probe so far.  A chosen point whose design was
let go (an earlier round probed it) is elaborated again.

A final verification campaign re-runs the recommended configuration
on a freshly elaborated design; by construction it must be served
entirely warm from the store, and its metrics must be bit-identical
to the accepted evaluation.
"""

from __future__ import annotations

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
    exit_code: int = 0

    def sil_at(self, hft: int) -> SIL | None:
        return max_sil(self.claimed_sff, hft)


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
    #: one :class:`PointRecord` per elaborated point, keyed on
    #: ``DesignPoint.applied`` (the base point is ``()``)
    records: dict[tuple, PointRecord] = field(default_factory=dict)

    def _campaigns(self) -> list[EvaluatedPoint]:
        """Every campaign of the walk, the verification re-run too."""
        return self.evaluations + (
            [self.verification] if self.verification is not None else [])

    @property
    def total_simulated(self) -> int:
        return sum(e.simulated for e in self._campaigns())

    @property
    def total_hits(self) -> int:
        return sum(e.hits for e in self._campaigns())

    @property
    def total_misses(self) -> int:
        return sum(e.misses for e in self._campaigns())

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
        return sum(e.faults for e in self._campaigns())


# ----------------------------------------------------------------------
# evaluation: one campaign on the walk's elaborated design
# ----------------------------------------------------------------------
def _evaluate(service, point: DesignPoint, config: ExploreConfig,
              cost: StructuralCost, design: tuple | None = None
              ) -> EvaluatedPoint:
    """Evaluate one point: a campaign on the design the walk built,
    or on a fresh elaboration when ``design`` is None.

    An exit other than 0 (clean) or 3 (bounded evidence) raises: the
    walk cannot rank a point it has no evidence for.
    """
    from ..faultinjection import build_environment
    from ..service.core import EXIT_OK, EXIT_QUARANTINE
    sub, zone_set, worksheet = design or elaborate_design(point)[1]
    outcome = service.run_campaign(
        point.request(full=config.full, workers=config.workers),
        env=build_environment(sub, zone_set=zone_set,
                              worksheet=worksheet,
                              quick=not config.full))
    if outcome.exit_code not in (EXIT_OK, EXIT_QUARANTINE):
        detail = next((line for line in outcome.err.splitlines()
                       if line.strip() and not line.startswith("===")),
                      None)
        raise RuntimeError(
            f"exploration campaign for {point.name!r} failed with "
            f"exit {outcome.exit_code}"
            + (f": {detail}" if detail else ""))
    return EvaluatedPoint(
        point=point, cost=cost,
        claimed_sff=outcome.claimed_sff or 0.0,
        claimed_dc=outcome.claimed_dc or 0.0,
        measured_dc=outcome.measured_dc,
        safe_fraction=outcome.safe_fraction,
        faults=outcome.faults, hits=outcome.hits,
        misses=outcome.misses, simulated=outcome.simulated,
        run_id=outcome.run_id, exit_code=outcome.exit_code)


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


@dataclass
class PointRecord:
    """What the walk keeps of one elaborated design point, numbers
    only: the netlist's (gates, flops) tally, the worksheet's claimed
    SFF (the analytic score), its per-zone λDU in FIT (the dossier's
    evidence) and, for the base point, the candidate steps."""

    tally: tuple[int, int]
    claimed_sff: float
    lambda_du: dict[str, float]
    steps: tuple[tuple[int, str], ...] = ()


def elaborate_design(point: DesignPoint) -> tuple[PointRecord, tuple]:
    """Build a design point, its zones and its worksheet once; return
    the numbers the walk keeps and the ``(subsystem, zone set,
    worksheet)`` design a campaign runs on."""
    sub = point.build()
    zone_set = sub.extract_zones()
    worksheet = sub.worksheet(zone_set)
    record = PointRecord(
        tally=(len(sub.circuit.gates), len(sub.circuit.flops)),
        claimed_sff=worksheet.totals().sff,
        lambda_du={zone: rates.lambda_du for zone, rates
                   in worksheet.totals_by_zone().items()},
        steps=() if point.applied
        else tuple(candidate_steps(worksheet, point.banks)))
    return record, (sub, zone_set, worksheet)


def elaborate(point: DesignPoint) -> PointRecord:
    """A design point's numbers, without keeping its design."""
    return elaborate_design(point)[0]


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
    # one record per elaborated point; at most one design, held until
    # its campaign: the base, then the best probe of the round
    records: dict[tuple, PointRecord] = {}
    kept: dict[tuple, tuple] = {}
    records[base_point.applied], kept[base_point.applied] = \
        elaborate_design(base_point)

    def cost(point: DesignPoint) -> StructuralCost:
        return structural_cost(records[point.applied].tally,
                               records[base_point.applied].tally)

    def evaluate(point: DesignPoint) -> EvaluatedPoint:
        return _evaluate(service, point, config, cost(point),
                         kept.pop(point.applied, None))

    def probe(current: EvaluatedPoint, open_steps: list):
        """Score the criticality-ordered head analytically; return the
        best ``(candidate, gain, step)`` and keep only its design."""
        best = None
        for step in open_steps[:config.probe_width]:
            candidate = current.point.with_transform(*step)
            design = None       # let the last probe's design go
            if candidate.applied not in records:
                records[candidate.applied], design = \
                    elaborate_design(candidate)
            gain = records[candidate.applied].claimed_sff \
                - current.claimed_sff
            if best is None or gain > best[1]:
                best = (candidate, gain, step)
                kept.clear()
                if design is not None:
                    kept[candidate.applied] = design
        return best

    say(f"evaluating base point {base_point.name!r} "
        f"({config.banks} banks)")
    base = evaluate(base_point)
    result = ExplorationResult(config=config, base=base,
                               records=records)
    result.evaluations.append(base)
    result.front.add(base)
    result.log.append(
        f"base {base_point.name}: SFF {base.claimed_sff:.4%}, "
        f"cost 0, measured DC "
        f"{(base.measured_dc or 0.0):.4%}")

    steps = list(records[base_point.applied].steps)
    result.steps_considered = len(steps)

    current = base
    budget = max(1, config.budget) - 1   # base consumed one
    while budget > 0 and current.claimed_sff < config.target_sff:
        open_steps = [s for s in steps
                      if s not in current.point.applied]
        if not open_steps:
            result.log.append("frontier exhausted: no step left")
            break
        candidate, gain, step = probe(current, open_steps)
        if gain <= 0:
            # head of the ranking is a no-op from here; drop it and
            # let the next-ranked steps bid
            steps.remove(step)
            result.log.append(
                f"pruned {step[1]} on bank {step[0]}: no claimed "
                f"SFF gain at this point")
            continue
        say(f"step: {step[1]} on bank {step[0]} "
            f"(claimed SFF -> "
            f"{records[candidate.applied].claimed_sff:.4%})")
        evaluated = evaluate(candidate)
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
        # elaborated afresh on purpose: a rebuilt design must hit the
        # same store addresses
        point = result.recommended.point
        say(f"verification re-run of {point.name!r}")
        verification = _evaluate(service, point, config, cost(point))
        result.verification = verification
        result.log.append(
            f"verification {verification.point.name}: warm "
            f"{verification.hits}/{verification.hits + verification.misses},"
            f" measured DC {(verification.measured_dc or 0.0):.4%}")
    return result
