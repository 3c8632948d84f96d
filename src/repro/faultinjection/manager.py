"""Fault Injection Manager (paper §5, Figure 4).

"this function runs all the injection campaign based on automatically
generated fault lists and collects all the results."

The manager packs faults onto the parallel machines of the bit-parallel
simulator (machine 0 stays golden), replays the workload once per pass,
and records for every fault:

* **SENS** — the first cycle its zone's state deviated from golden;
* **OBSE** — the first cycle a functional observation point deviated,
  plus the per-point effects table (for main/secondary validation);
* **DIAG** — the first cycle a diagnostic alarm asserted in the faulty
  machine while the golden machine was quiet.

Outcomes are then classified into the IEC classes: safe, detected-safe
(alarm without corruption), dangerous-detected (corruption with a
timely alarm) and dangerous-undetected.

A whole campaign — shards, golden activity, coverage ledger — runs
through :class:`~repro.faultinjection.supervisor.CampaignSupervisor`,
which drives :meth:`FaultInjectionManager.run_batches` in its workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl.compiled import Program
from ..hdl.netlist import Circuit
from ..hdl.simulator import MemoryImageSetup
from ..zones.model import (
    ObservationKind,
    ObservationPoint,
    SensibleZone,
    ZoneKind,
)
from .faultlist import CandidateList
from .faults import Fault
from .monitors import CoverageCollection

OUTCOME_SAFE = "safe"
OUTCOME_DETECTED_SAFE = "detected_safe"
OUTCOME_DD = "dangerous_detected"
OUTCOME_DU = "dangerous_undetected"

#: default faulty machines per pass: the compiled kernel amortizes its
#: fixed per-cycle cost best when a full fault shard rides in one pass
DEFAULT_MACHINES_PER_PASS = 1023


@dataclass
class CampaignConfig:
    #: faulty machines per simulator pass; ``None`` picks
    #: :data:`DEFAULT_MACHINES_PER_PASS`
    machines_per_pass: int | None = None
    detection_window: int = 12     # cycles an alarm may trail corruption
    collect_toggles: bool = False  # any-machine toggles (step b credit)
    #: runaway watchdog: a pass simulating more than this many cycles
    #: raises :class:`~repro.hdl.simulator.CycleBudgetExceeded` (the
    #: supervisor quarantines the offending faults as hangs)
    cycle_budget: int | None = None
    #: cycle ranges of software/hardware test phases: a mismatch
    #: observed inside one counts as detected (the test's compare step
    #: flags it) — the detection model of the SW start-up test claims
    test_windows: tuple[tuple[int, int], ...] = ()

    def resolved_machines_per_pass(self) -> int:
        """The effective pass width, applying the default."""
        if self.machines_per_pass is not None:
            return max(1, self.machines_per_pass)
        return DEFAULT_MACHINES_PER_PASS


@dataclass
class FaultResult:
    """Everything measured for one injected fault."""

    fault: Fault
    sens_cycle: int | None = None
    obse_cycle: int | None = None
    diag_cycle: int | None = None
    first_alarm: str | None = None
    effects: dict[str, int] = field(default_factory=dict)

    def outcome(self, window: int,
                test_windows: tuple[tuple[int, int], ...] = ()) -> str:
        if self.obse_cycle is None:
            return OUTCOME_DETECTED_SAFE if self.diag_cycle is not None \
                else OUTCOME_SAFE
        if self.diag_cycle is not None and \
                self.diag_cycle <= self.obse_cycle + window:
            return OUTCOME_DD
        for lo, hi in test_windows:
            if lo <= self.obse_cycle < hi:
                return OUTCOME_DD   # the test's compare flags it
        return OUTCOME_DU


@dataclass
class CampaignResult:
    """All fault results plus coverage and bookkeeping."""

    results: list[FaultResult] = field(default_factory=list)
    coverage: CoverageCollection = field(
        default_factory=CoverageCollection)
    window: int = 12
    test_windows: tuple[tuple[int, int], ...] = ()
    passes: int = 0
    cycles_simulated: int = 0
    wall_seconds: float = 0.0
    seen0: bytearray | None = None
    seen1: bytearray | None = None

    def toggled_nets(self) -> set[int]:
        """Nets seen at both values in any machine of any pass."""
        if self.seen0 is None or self.seen1 is None:
            return set()
        return {net for net in range(len(self.seen0))
                if self.seen0[net] and self.seen1[net]}

    def outcome_of(self, res: FaultResult) -> str:
        return res.outcome(self.window, self.test_windows)

    def outcomes(self) -> dict[str, int]:
        counts = {OUTCOME_SAFE: 0, OUTCOME_DETECTED_SAFE: 0,
                  OUTCOME_DD: 0, OUTCOME_DU: 0}
        for res in self.results:
            counts[self.outcome_of(res)] += 1
        return counts

    def by_zone(self) -> dict[str, list[FaultResult]]:
        groups: dict[str, list[FaultResult]] = {}
        for res in self.results:
            groups.setdefault(res.fault.zone or "?", []).append(res)
        return groups

    def measured_dc(self) -> float:
        """Campaign-wide diagnostic coverage of dangerous failures.

        An empty campaign claims no coverage (0.0): with zero
        injections there is no evidence for the optimistic reading.
        """
        if not self.results:
            return 0.0
        counts = self.outcomes()
        dangerous = counts[OUTCOME_DD] + counts[OUTCOME_DU]
        return counts[OUTCOME_DD] / dangerous if dangerous else 1.0

    def measured_safe_fraction(self) -> float:
        if not self.results:
            return 0.0
        counts = self.outcomes()
        safe = counts[OUTCOME_SAFE] + counts[OUTCOME_DETECTED_SAFE]
        return safe / len(self.results)

    def merge_toggles(self, other: "CampaignResult") -> None:
        """OR another run's any-machine toggle bitmaps into this one.

        Used by the sharded campaign: every pass also simulates the
        fault-free machine and each fault's machine behaves the same
        whatever pass it lands in, so the union over shards equals
        what one pass loop over all the faults collects.
        """
        if other.seen0 is None or other.seen1 is None:
            return
        if self.seen0 is None:
            self.seen0 = bytearray(len(other.seen0))
            self.seen1 = bytearray(len(other.seen1))
        for net, seen in enumerate(other.seen0):
            if seen:
                self.seen0[net] = 1
        for net, seen in enumerate(other.seen1):
            if seen:
                self.seen1[net] = 1


class FaultInjectionManager:
    """The pass loop and coverage-ledger rules of one circuit +
    workload + observation set (the supervisor's per-shard core)."""

    def __init__(self, circuit: Circuit, stimuli,
                 zones: list[SensibleZone] = (),
                 observation_points: list[ObservationPoint] = (),
                 setup: MemoryImageSetup | None = None,
                 config: CampaignConfig | None = None,
                 program: Program | None = None):
        self.circuit = circuit
        self.stimuli = list(stimuli)
        # an environment's program serves only its own circuit and
        # workload: a spec edited after env.spec() builds its own
        if program is None or program.circuit is not circuit \
                or program.stimuli != self.stimuli:
            program = Program(circuit, self.stimuli)
        #: what every pass runs on
        self.program = program
        self.setup = setup
        self.config = config or CampaignConfig()
        self.functional = [p for p in observation_points
                           if p.kind is ObservationKind.OUTPUT]
        self.status = [p for p in observation_points
                       if p.kind is ObservationKind.FUNCTION]
        self.diagnostic = [p for p in observation_points
                           if p.is_diagnostic]
        self._zones_by_name = {z.name: z for z in zones}
        self._flop_index = {f.name: i
                            for i, f in enumerate(circuit.flops)}

    # ------------------------------------------------------------------
    def new_result(self) -> CampaignResult:
        """An empty result carrying this campaign's outcome rules."""
        cfg = self.config
        return CampaignResult(window=cfg.detection_window,
                              test_windows=tuple(cfg.test_windows))

    def run_batches(self, faults: list[Fault],
                    into: CampaignResult | None = None
                    ) -> CampaignResult:
        """The raw pass loop: simulate ``faults`` in per-pass batches.

        This is the per-shard core the campaign supervisor's worker
        processes run.  It performs no coverage initialisation or
        post-processing: the supervisor derives the fault-free
        activity once from the profile replay
        (:func:`~repro.faultinjection.parallel.compute_golden_trace`)
        and fills the ledger after merging the shards.
        """
        result = into if into is not None else self.new_result()
        per_pass = self.config.resolved_machines_per_pass()
        from .compiled_pass import run_pass_compiled
        for lo in range(0, len(faults), per_pass):
            run_pass_compiled(self, faults[lo:lo + per_pass], result)
            result.passes += 1
        return result

    def fill_coverage(self, result: CampaignResult) -> None:
        """Derive the coverage ledger from the per-fault results."""
        result.coverage.injections = len(result.results)
        for res in result.results:
            if res.sens_cycle is not None and res.fault.zone:
                result.coverage.sens[res.fault.zone] = True
            if res.obse_cycle is not None:
                result.coverage.mismatches += 1
            for point in res.effects:
                if point in result.coverage.obse:
                    result.coverage.obse[point] = True
                if point in result.coverage.diag:
                    result.coverage.diag[point] = True

    def _init_coverage(self, cov: CoverageCollection,
                       candidates: CandidateList) -> None:
        # SENS completeness items are the injectable state zones; wide
        # faults attributed to structural (sub-block / net) zones are
        # tracked in the results but carry no 100 %-SENS obligation.
        for fault in candidates.faults:
            if not fault.zone:
                continue
            zone = self._zones_by_name.get(fault.zone)
            if zone is not None and zone.kind not in (
                    ZoneKind.REGISTER, ZoneKind.MEMORY):
                continue
            cov.sens.setdefault(fault.zone, False)
        for point in self.functional:
            cov.obse.setdefault(point.name, False)
        for point in self.diagnostic:
            cov.diag.setdefault(point.name, False)

    # ------------------------------------------------------------------
    def _zone_probe(self, zone: SensibleZone, fault: Fault):
        if zone.kind is ZoneKind.REGISTER:
            idxs = tuple(self._flop_index[name] for name in zone.flops
                         if name in self._flop_index)
            return ("flops", idxs)
        if zone.kind is ZoneKind.MEMORY:
            word = getattr(fault, "word", None)
            if word is None:
                return None
            return ("mem", zone.memory, word)
        return ("nets", tuple(zone.nets))
