"""The four-step FMEA validation procedure (paper §5).

a) exhaustive fault injection of sensible-zone failures, cross-checked
   against the FMEA (measured S/DDF and the effects table) with
   SENS/OBSE/DIAG coverage collection;
b) workload-completeness measurement (toggle coverage >= 99 %, or a
   standard fault coverage);
c) selective local HW fault injection in the critical areas, plus
   fault simulation of permanent faults against the claimed DDF;
d) selective wide/global HW fault injection, checked for consistency
   with the zone-level analysis (no unexplained new effects).

The acceptance tolerances and fault-list sizes are the module
constants below; ``docs/methodology.md`` tabulates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fmea.ranking import rank_zones
from ..hdl.compiled import Program
from ..hdl.netlist import OP_CONST0, OP_CONST1, Circuit
from ..hdl.simulator import MemoryImageSetup
from ..soc.workloads import validation_workload
from ..zones.effects import (
    PredictedEffects,
    diagnostic_only_nets,
    predict_effects_table,
)
from ..zones.model import ZoneKind
from .analyzer import ResultAnalyzer
from .environment import InjectionEnvironment, build_environment
from .faultlist import (
    CandidateList,
    FaultListConfig,
    generate_cone_faults,
)
from .faults import BridgeFault, GlobalStuckFault
from .faultsim import simulate_faults
from .manager import CampaignConfig, CampaignResult
from .monitors import CoverageCollection
from .profiler import NetActivity, profile_workload
from .supervisor import CampaignSupervisor, SupervisorConfig


#: step a: a zone's measured DDF may fall this far below its claim
DDF_TOLERANCE = 0.35
#: step a: the measured DC may fall this far below the worksheet's
#: aggregate claimed DC
AGGREGATE_DC_TOLERANCE = 0.25
#: step c: the gate-level DC of the critical areas may differ from
#: their zone-level DC by ``AGGREGATE_DC_TOLERANCE + LOCAL_DC_MARGIN``
LOCAL_DC_MARGIN = 0.15
#: step c: the comparison needs this many dangerous zone-level samples
LOCAL_DC_MIN_SAMPLES = 8
#: step b: the paper's toggle-coverage acceptance threshold
TOGGLE_THRESHOLD = 0.99
#: step c: register areas inspected, in criticality order
CRITICAL_AREAS = 3
#: step c and the e-step top-up: at most this many gate outputs of a
#: cone get stuck-at faults
CONE_FAULTS_PER_ZONE = 24
#: step d: correlated zone pairs bridged
WIDE_FAULT_PAIRS = 4
#: step d: highest-fanout critical nets stuck globally
GLOBAL_FAULTS = 2
#: step a: transient and permanent faults generated per zone
TRANSIENT_PER_ZONE = 2
PERMANENT_PER_ZONE = 2
#: seeds every sampled fault list of the flow
VALIDATION_SEED = 2007


@dataclass
class StepResult:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        return (f"step {self.name}: "
                f"{'PASS' if self.passed else 'FAIL'} — {self.detail}")


@dataclass
class ToggleReport:
    """Result of a toggle-coverage measurement (step b)."""

    toggled: int
    total: int
    untoggled: list[str] = field(default_factory=list)
    threshold: float = TOGGLE_THRESHOLD

    @property
    def coverage(self) -> float:
        return self.toggled / self.total if self.total else 1.0

    @property
    def passed(self) -> bool:
        return self.coverage >= self.threshold

    def summary(self) -> str:
        return (f"toggle coverage {self.coverage * 100:.2f}% "
                f"({self.toggled}/{self.total} nets), "
                f"{'PASS' if self.passed else 'FAIL'} "
                f"at {self.threshold * 100:.0f}% threshold")


@dataclass
class ValidationReport:
    """Evidence bundle produced by the flow (attached to the SRS)."""

    steps: list[StepResult] = field(default_factory=list)
    campaign: CampaignResult | None = None
    toggle: ToggleReport | None = None
    local_campaign: CampaignResult | None = None
    wide_campaign: CampaignResult | None = None
    topup_campaign: CampaignResult | None = None
    fault_coverage: float | None = None
    coverage: CoverageCollection | None = None

    @property
    def passed(self) -> bool:
        return all(step.passed for step in self.steps)

    @property
    def failures(self) -> list[str]:
        return [str(s) for s in self.steps if not s.passed]

    def summary(self) -> str:
        lines = ["=== FMEA validation flow ==="]
        lines.extend(str(s) for s in self.steps)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_validation(subsystem, env: InjectionEnvironment | None = None,
                   quick: bool = True) -> ValidationReport:
    """Run steps a) - d) on a memory subsystem.

    ``quick`` picks the workload of the environment built when
    ``env`` is not given.
    """
    if env is None:
        env = build_environment(subsystem, quick=quick)
    report = ValidationReport()

    # campaigns first (a, c, d), then the full workload's fault-free
    # activity: its output activity joins the coverage ledger before
    # the top-up decision (e), and its per-net activity is the
    # workload-completeness measurement (b), which also credits
    # diagnostic-only nets with the toggles of all faulty machines
    predicted = predict_effects_table(env.zone_set)
    _step_a(env, report, predicted)
    _step_c(env, report)
    _step_d(env, report, predicted)
    activity = _full_workload_activity(subsystem, env)
    _step_coverage(report, env,
                   toggled_outputs=_toggled_outputs(env.circuit,
                                                    activity))
    _step_b(env.circuit, env, report, activity)
    report.steps.sort(key=lambda s: s.name)
    return report


def _run_campaign(env: InjectionEnvironment,
                  candidates: CandidateList) -> CampaignResult:
    """One validation campaign on the campaign supervisor.

    Quarantine is off: a fault that cannot be executed aborts the
    validation (:class:`~.supervisor.CampaignAborted`) instead of
    leaving a hole in the evidence.  Toggles are collected over every
    machine: step b credits diagnostic-only nets with them.
    """
    return CampaignSupervisor(
        env.spec(CampaignConfig(collect_toggles=True)), workers=1,
        config=SupervisorConfig(quarantine=False)).run(candidates)


def _full_workload_activity(subsystem, env: InjectionEnvironment
                            ) -> NetActivity:
    """Per-net activity of the full workload's fault-free replay: the
    environment's own when it runs that workload, else one replay on
    its compiled circuit."""
    full = list(validation_workload(subsystem, quick=False))
    if full == env.stimuli:
        return env.profile().activity
    program = Program(env.circuit, full, env.program().compiled())
    return profile_workload(env.circuit, full, setup=env.setup,
                            program=program).activity


def _toggled_outputs(circuit: Circuit, activity: NetActivity
                     ) -> set[str]:
    """Output ports whose value changed in the fault-free replay."""
    change = activity.first_change
    return {name for name, nets in circuit.outputs.items()
            if any(change[net] >= 0 for net in nets)}


def _toggle_nets(circuit: Circuit) -> list[int]:
    """The nets that can toggle: all but the constant-driven ones."""
    const = {g.out for g in circuit.gates
             if g.op in (OP_CONST0, OP_CONST1)}
    return [net for net in range(circuit.num_nets) if net not in const]


def _toggle_report(circuit: Circuit, first_change: list[int], nets,
                   threshold: float) -> ToggleReport:
    """Step b's rule over ``nets``: a net toggled iff its value ever
    changed in the fault-free replay (``first_change >= 0``)."""
    untoggled = [circuit.net_names[net] for net in nets
                 if first_change[net] < 0]
    return ToggleReport(toggled=len(nets) - len(untoggled),
                        total=len(nets), untoggled=untoggled,
                        threshold=threshold)


def measure_toggle_coverage(circuit: Circuit, stimuli,
                            threshold: float = TOGGLE_THRESHOLD,
                            setup: MemoryImageSetup | None = None
                            ) -> ToggleReport:
    """Toggle coverage of ``stimuli`` (iterable of input dicts) over
    every net that can toggle, by step b's rule.

    ``setup`` optionally preloads memories and flops before the run
    (a design's ``preload_image()``).
    """
    activity = profile_workload(circuit, list(stimuli),
                                setup=setup).activity
    return _toggle_report(circuit, activity.first_change,
                          _toggle_nets(circuit), threshold)


# ----------------------------------------------------------------------
def _step_a(env: InjectionEnvironment, report: ValidationReport,
            predicted: dict[str, PredictedEffects]) -> None:
    """Exhaustive sensible-zone injection + FMEA cross-check."""
    fl_config = FaultListConfig(
        transient_per_zone=TRANSIENT_PER_ZONE,
        permanent_per_zone=PERMANENT_PER_ZONE,
        seed=VALIDATION_SEED)
    candidates = env.candidates(fl_config)
    campaign = _run_campaign(env, candidates)
    report.campaign = campaign

    analyzer = ResultAnalyzer(campaign)
    analyzer.fill_worksheet(env.worksheet)

    # aggregate agreement: campaign DC vs worksheet claimed DC
    claimed_dc = env.worksheet.totals().dc
    measured_dc = campaign.measured_dc()
    dc_ok = measured_dc >= claimed_dc - AGGREGATE_DC_TOLERANCE

    # per-zone agreement (overclaims beyond tolerance fail)
    rows = analyzer.agreement_rows(env.worksheet, DDF_TOLERANCE)
    bad = [r for r in rows if not r["agrees"]]
    zone_ok = not bad

    # effects-table consistency with the structural prediction
    effects = analyzer.compare_effects(predicted)

    detail = (f"{len(campaign.results)} injections, "
              f"measured DC {measured_dc * 100:.1f}% vs claimed "
              f"{claimed_dc * 100:.1f}%, "
              f"{len(bad)} zone mismatches, {effects.summary()}")
    report.steps.append(StepResult("a:zone-injection",
                                   dc_ok and zone_ok
                                   and effects.consistent, detail))


def _step_b(circuit: Circuit, env: InjectionEnvironment,
            report: ValidationReport, activity: NetActivity) -> None:
    """Workload completeness: toggle coverage of the full workload.

    ``activity`` is the full workload's fault-free replay; a net
    toggled iff its value ever changed in it.  The requirement is
    split: *functional* nets must toggle under the fault-free
    workload; *diagnostic-only* nets (checker-disagreement logic that
    is structurally silent without a fault — see
    :func:`repro.zones.effects.diagnostic_only_nets`) are credited
    when they toggled in any faulty machine of the campaigns.
    """
    diag_only = diagnostic_only_nets(env.zone_set)
    campaign_toggled: set[int] = set()
    for campaign in (report.campaign, report.local_campaign,
                     report.wide_campaign, report.topup_campaign):
        if campaign is not None:
            campaign_toggled |= campaign.toggled_nets()

    nets = _toggle_nets(circuit)
    toggle = _toggle_report(circuit, activity.first_change,
                            [n for n in nets if n not in diag_only],
                            TOGGLE_THRESHOLD)
    report.toggle = toggle
    diag = [n for n in nets if n in diag_only]
    diag_hit = sum(1 for n in diag if activity.first_change[n] >= 0
                   or n in campaign_toggled)
    diag_cov = diag_hit / len(diag) if diag else 1.0
    passed = toggle.passed and diag_cov >= TOGGLE_THRESHOLD
    detail = (f"functional {toggle.summary()}; diagnostic-only nets "
              f"{diag_cov * 100:.2f}% ({diag_hit}/{len(diag)}, "
              f"golden + injection credit)")
    report.steps.append(StepResult("b:workload-completeness", passed,
                                   detail))


def _step_c(env: InjectionEnvironment, report: ValidationReport) -> None:
    """Selective local gate-level injection in the critical areas."""
    ranking = rank_zones(env.worksheet)
    paths: list[str] = []
    zones_in_areas: list[str] = []
    for row in ranking:
        try:
            zone = env.zone_set.by_name(row.zone)
        except KeyError:
            continue
        if zone.kind is not ZoneKind.REGISTER or not zone.path:
            continue
        if zone.path not in paths:
            paths.append(zone.path)
        zones_in_areas.append(zone.name)
        if len(paths) >= CRITICAL_AREAS:
            break
    if not paths:
        report.steps.append(StepResult(
            "c:local-faults", True, "no register areas to inspect"))
        return

    gate_faults = generate_cone_faults(
        env.zone_set, env.circuit, zones_in_areas,
        per_zone=CONE_FAULTS_PER_ZONE, seed=VALIDATION_SEED)
    local = _run_campaign(env, gate_faults)
    report.local_campaign = local

    # consistency: gate-level DC in the critical areas vs zone-level DC
    # (meaningful only with enough dangerous samples on the zone side)
    zone_dc, zone_samples = _zone_level_dc(report.campaign,
                                           zones_in_areas)
    local_dc = local.measured_dc()
    consistent = (zone_dc is None
                  or zone_samples < LOCAL_DC_MIN_SAMPLES
                  or abs(local_dc - zone_dc)
                  <= AGGREGATE_DC_TOLERANCE + LOCAL_DC_MARGIN)

    # fault simulator: permanent fault coverage of the areas
    fcov = simulate_faults(env.circuit, env.stimuli,
                           candidates=gate_faults, setup=env.setup,
                           program=env.program())
    report.fault_coverage = fcov.coverage

    detail = (f"areas {paths}: {len(gate_faults.faults)} stuck-at "
              f"faults, local DC {local_dc * 100:.1f}% vs zone DC "
              f"{'n/a' if zone_dc is None else f'{zone_dc * 100:.1f}%'}, "
              f"{fcov.summary()}")
    report.steps.append(StepResult("c:local-faults", consistent, detail))


def _zone_level_dc(campaign: CampaignResult | None,
                   zones: list[str]) -> tuple[float | None, int]:
    if campaign is None:
        return None, 0
    dd = du = 0
    for res in campaign.results:
        if res.fault.zone in zones:
            outcome = campaign.outcome_of(res)
            if outcome == "dangerous_detected":
                dd += 1
            elif outcome == "dangerous_undetected":
                du += 1
    if dd + du == 0:
        return None, 0
    return dd / (dd + du), dd + du


def _step_d(env: InjectionEnvironment, report: ValidationReport,
            predicted: dict[str, PredictedEffects]) -> None:
    """Wide/global faults: no unexplained new effects."""
    zone_set = env.zone_set
    circuit = env.circuit
    faults: list = []

    # wide: bridges between nets of structurally correlated zone pairs
    pairs = zone_set.correlation.correlated_pairs() \
        if zone_set.correlation else []
    for (za, zb), _shared in pairs[:WIDE_FAULT_PAIRS]:
        try:
            a = zone_set.by_name(za)
            b = zone_set.by_name(zb)
        except KeyError:
            continue
        if not a.nets or not b.nets:
            continue
        faults.append(BridgeFault(
            target=circuit.net_names[a.nets[0]], zone=za,
            victim=circuit.net_names[b.nets[0]]))

    # global: stuck on the highest-fanout critical nets
    critical = zone_set.of_kind(ZoneKind.CRITICAL_NET)
    critical.sort(key=lambda z: -z.attrs.get("fanout", 0))
    for zone in critical[:GLOBAL_FAULTS]:
        faults.append(GlobalStuckFault(
            target=zone.name, zone=zone.name,
            nets=tuple(circuit.net_names[n] for n in zone.nets),
            value=0))

    if not faults:
        report.steps.append(StepResult(
            "d:wide-global", True, "no wide/global fault sites found"))
        return

    campaign = _run_campaign(env, CandidateList(faults=faults))
    report.wide_campaign = campaign

    # consistency: every measured effect must be predicted reachable
    # from at least one zone the fault touches
    from ..zones.classify import FaultClassifier
    classifier = FaultClassifier(zone_set)
    unexplained: list[tuple[str, str]] = []
    for res in campaign.results:
        fault = res.fault
        if isinstance(fault, BridgeFault):
            extents = {fault.zone,
                       *classifier.classify_net(fault.victim).zones,
                       *classifier.classify_net(fault.target).zones}
        else:
            extents = set()
            for net in getattr(fault, "nets", ()):  # global faults
                extents.update(classifier.classify_net(net).zones)
        reachable: set[str] = set()
        for zname in extents:
            pred = predicted.get(zname)
            if pred is not None:
                reachable.update(e.observation for e in pred.effects)
        for point in res.effects:
            if reachable and point not in reachable:
                unexplained.append((fault.name, point))

    passed = not unexplained
    detail = (f"{len(faults)} wide/global faults, "
              f"{len(unexplained)} unexplained effects")
    if unexplained:
        detail += f" (e.g. {unexplained[:3]})"
    report.steps.append(StepResult("d:wide-global", passed, detail))


def _diag_topup(env: InjectionEnvironment, merged: CoverageCollection,
                report: ValidationReport) -> None:
    """Coverage-driven top-up: uncovered DIAG items get targeted local
    faults injected into the alarm's own input cone."""
    import random

    from .faults import StuckNetFault

    uncovered = [name for name, hit in merged.diag.items() if not hit]
    if not uncovered:
        return
    graph = env.zone_set.graph
    rng = random.Random(VALIDATION_SEED)
    faults = []
    point_by_name = {p.name: p for p in env.zone_set.observation_points}
    skip_ops = ("buf", "const0", "const1")
    for name in uncovered:
        point = point_by_name.get(name)
        if point is None:
            continue
        cone_gates, _, _ = graph.fanin_cone(point.nets)
        gates = [gi for gi in sorted(cone_gates)
                 if env.circuit.gates[gi].op_name not in skip_ops]
        if len(gates) > CONE_FAULTS_PER_ZONE:
            gates = rng.sample(gates, CONE_FAULTS_PER_ZONE)
        for gi in gates:
            for value in (0, 1):
                faults.append(StuckNetFault(
                    target=env.circuit.net_names[
                        env.circuit.gates[gi].out],
                    zone=None, value=value))
    if not faults:
        return
    topup = _run_campaign(env, CandidateList(faults=faults))
    report.topup_campaign = topup
    merged.merge(topup.coverage)


def _step_coverage(report: ValidationReport,
                   env: InjectionEnvironment | None = None,
                   toggled_outputs=()) -> None:
    """Campaign completeness: all SENS/OBSE/DIAG items covered (§5).

    The ledger merges all three campaigns (a, c, d) plus the golden
    activity of the full workload: an output port in
    ``toggled_outputs`` (changed in the fault-free replay) exercises
    its OBSE/DIAG item by itself.  Any DIAG item still uncovered gets
    a targeted top-up campaign into its cone.
    """
    merged = CoverageCollection()
    for campaign in (report.campaign, report.local_campaign,
                     report.wide_campaign):
        if campaign is not None:
            merged.merge(campaign.coverage)
    for name in toggled_outputs:
        for table in (merged.obse, merged.diag):
            if name in table:
                table[name] = True
    if env is not None:
        _diag_topup(env, merged, report)
    report.coverage = merged
    detail = (f"SENS {merged.sens_coverage() * 100:.0f}% "
              f"OBSE {merged.obse_coverage() * 100:.0f}% "
              f"DIAG {merged.diag_coverage() * 100:.0f}%")
    holes = merged.uncovered()
    missing = [f"{k}:{v[:3]}" for k, v in holes.items() if v]
    if missing:
        detail += " — uncovered " + "; ".join(missing)
    report.steps.append(StepResult("e:coverage-completeness",
                                   merged.complete, detail))
