"""Tests for the §5 fault-injection environment."""

import pytest

from repro.faultinjection import (
    BridgeFault,
    CampaignResult,
    CampaignSpec,
    CampaignSupervisor,
    CandidateList,
    CoverageCollection,
    FaultListConfig,
    FaultResult,
    FaultInjectionManager,
    GlobalStuckFault,
    MemFlipFault,
    MemStuckFault,
    OUTCOME_DD,
    OUTCOME_DETECTED_SAFE,
    OUTCOME_DU,
    OUTCOME_SAFE,
    ResultAnalyzer,
    SetFault,
    SeuFault,
    StuckNetFault,
    build_environment,
    collapse,
    generate_cone_faults,
    generate_gate_faults,
    generate_zone_faults,
    profile_workload,
    randomize,
    run_validation,
    simulate_faults,
)
from repro.hdl import CompiledSimulator, Module
from repro.soc import (
    MemorySubsystem,
    SubsystemConfig,
    validation_workload,
)
from repro.zones import predict_effects_table
from repro.zones.model import ObservationKind, ObservationPoint

from .campaign_oracle import run_interpreted


@pytest.fixture(scope="module")
def improved():
    return MemorySubsystem(SubsystemConfig.small_improved())


@pytest.fixture(scope="module")
def baseline():
    return MemorySubsystem(SubsystemConfig.small_baseline())


@pytest.fixture(scope="module")
def env(improved):
    return build_environment(improved, quick=True)


@pytest.fixture(scope="module")
def campaign(env):
    return CampaignSupervisor(env.spec(), workers=1).run(env.candidates())


# ----------------------------------------------------------------------
# operational profiler
# ----------------------------------------------------------------------
def test_profile_records_flop_toggles(env):
    profile = env.profile()
    assert profile.length == len(env.stimuli)
    # the BIST counter toggles constantly during the BIST phase
    assert any("memctrl/bist/cnt" in name
               for name in profile.flop_toggles)


def test_profile_records_memory_traffic(env):
    profile = env.profile()
    accesses = profile.mem_accesses["memarray/array"]
    assert any(a.write for a in accesses)
    assert any(not a.write for a in accesses)


def test_profile_zone_activity_guides_injection(env):
    import random
    profile = env.profile()
    zone = env.zone_set.by_name("fmem/decoder/pipe_data[0:3]")
    cycles = profile.injection_cycles(zone, random.Random(0), 5)
    assert len(cycles) == 5
    assert all(0 <= c < profile.length for c in cycles)


def test_profile_completeness(env):
    triggered, total = env.profile().completeness(env.zone_set)
    assert triggered / total > 0.8


def test_untriggered_zone_detected(improved):
    # two idle cycles exercise almost nothing
    profile = profile_workload(improved.circuit,
                               [improved.idle(), improved.idle()])
    triggered, total = profile.completeness(
        improved.extract_zones())
    assert triggered < total


# ----------------------------------------------------------------------
# fault lists
# ----------------------------------------------------------------------
def test_zone_fault_generation(env):
    candidates = env.candidates(FaultListConfig(seed=5))
    assert len(candidates) > 40
    kinds = {f.kind for f in candidates.faults}
    assert {"seu", "stuck", "mem_flip", "mem_stuck"} <= kinds
    # every fault is attributed to a zone
    assert all(f.zone for f in candidates.faults)


def test_fault_list_deterministic(env):
    a = env.candidates(FaultListConfig(seed=9))
    b = env.candidates(FaultListConfig(seed=9))
    assert [f.name for f in a.faults] == [f.name for f in b.faults]


def test_collapse_removes_duplicates():
    f = StuckNetFault(target="x", value=1)
    collapsed = collapse(CandidateList(faults=[f, f, f]))
    assert len(collapsed) == 1


def test_randomize_samples(env):
    candidates = env.candidates()
    sampled = randomize(candidates, 10, seed=3)
    assert len(sampled) == 10
    assert set(f.name for f in sampled.faults) <= \
        set(f.name for f in candidates.faults)


def test_gate_fault_universe(improved):
    universe = generate_gate_faults(improved.circuit)
    # two polarities per gate, buffers/constants skipped
    assert len(universe) > improved.circuit.gate_count()
    assert all(f.kind == "stuck" for f in universe.faults)


def test_gate_faults_path_filter(improved):
    only_coder = generate_gate_faults(improved.circuit,
                                      paths=("fmem/coder",))
    assert 0 < len(only_coder) < len(
        generate_gate_faults(improved.circuit))


def test_cone_fault_generation(env):
    # the write-buffer check register's cone is the coder XOR tree
    zones = [z.name for z in env.zone_set.zones
             if z.name.startswith("fmem/wbuf/check")][:1]
    faults = generate_cone_faults(env.zone_set, env.circuit, zones,
                                  per_zone=10)
    assert 0 < len(faults) <= 10
    assert all(f.zone == zones[0] for f in faults.faults)


# ----------------------------------------------------------------------
# campaign manager
# ----------------------------------------------------------------------
def test_campaign_runs_all_faults(env, campaign):
    candidates = env.candidates()
    assert len(campaign.results) == len(candidates)
    assert campaign.passes >= 1


def test_campaign_outcomes_partition(campaign):
    counts = campaign.outcomes()
    assert sum(counts.values()) == len(campaign.results)
    assert counts[OUTCOME_DD] > 0          # diagnostics fire
    assert counts[OUTCOME_SAFE] + counts[OUTCOME_DETECTED_SAFE] > 0


def test_campaign_measured_dc_high_for_improved(campaign):
    # the improved design detects nearly all dangerous failures
    assert campaign.measured_dc() > 0.85


def test_sens_triggers_recorded(campaign):
    with_sens = [r for r in campaign.results
                 if r.sens_cycle is not None]
    assert len(with_sens) > len(campaign.results) * 0.7


def test_effects_recorded_with_alarms(campaign):
    alarms = set()
    for res in campaign.results:
        alarms.update(k for k in res.effects if k.startswith("alarm"))
    assert "alarm_ce" in alarms


def test_outcome_classification_rules():
    fault = SeuFault(target="x", zone="z")
    assert FaultResult(fault).outcome(8) == OUTCOME_SAFE
    assert FaultResult(fault, diag_cycle=4).outcome(8) == \
        OUTCOME_DETECTED_SAFE
    assert FaultResult(fault, obse_cycle=10, diag_cycle=12).outcome(8) \
        == OUTCOME_DD
    assert FaultResult(fault, obse_cycle=10, diag_cycle=30).outcome(8) \
        == OUTCOME_DU
    assert FaultResult(fault, obse_cycle=10).outcome(8) == OUTCOME_DU
    # inside a test window the mismatch itself is the detection
    assert FaultResult(fault, obse_cycle=10).outcome(
        8, test_windows=((0, 20),)) == OUTCOME_DD


def test_detection_window_enforced():
    fault = SeuFault(target="x", zone="z")
    res = FaultResult(fault, obse_cycle=5, diag_cycle=20)
    assert res.outcome(30) == OUTCOME_DD
    assert res.outcome(5) == OUTCOME_DU


def _operational_pipe_campaign(sub):
    """SEUs in the decoder pipe during plain (non-test) traffic.

    Test phases count observed mismatches as detected (the test's
    compare flags them), so the baseline blind spot is only measurable
    during operational traffic — as in a real mission profile.
    """
    from repro.faultinjection import FaultInjectionManager
    ops = [sub.reset_op(), sub.reset_op(), sub.write(3, 0x5A),
           sub.idle(), sub.idle()]
    read_cycles = []
    for _ in range(4):
        read_cycles.append(len(ops))
        ops.append(sub.read(3))
        ops.extend([sub.idle(), sub.idle(), sub.idle()])
    zone_set = sub.extract_zones()
    pipe_flops = [f.name for f in sub.circuit.flops
                  if "pipe_data" in f.name][:4]
    zone = next(z.name for z in zone_set.zones
                if "pipe_data" in z.name
                and any(f in z.flops for f in pipe_flops))
    faults = [SeuFault(target=flop, zone=zone, offset=cycle + 2)
              for flop, cycle in zip(pipe_flops, read_cycles)]
    spec = CampaignSpec.from_zone_set(
        sub.circuit, ops, zone_set,
        setup=sub.preload_image())
    return CampaignSupervisor(spec, workers=1).run(
        CandidateList(faults=faults))


def test_baseline_pipe_zone_has_undetected(baseline):
    """The §6 baseline blind spot shows up as DU in the campaign."""
    counts = _operational_pipe_campaign(baseline).outcomes()
    assert counts[OUTCOME_DU] > 0


def test_improved_pipe_zone_detected(improved):
    counts = _operational_pipe_campaign(improved).outcomes()
    assert counts[OUTCOME_DU] == 0
    assert counts[OUTCOME_DD] > 0


# ----------------------------------------------------------------------
# coverage collection
# ----------------------------------------------------------------------
def test_coverage_ratios():
    cov = CoverageCollection(sens={"a": True, "b": False},
                             obse={"y": True}, diag={"d": False})
    assert cov.sens_coverage() == pytest.approx(0.5)
    assert cov.obse_coverage() == 1.0
    assert cov.diag_coverage() == 0.0
    assert not cov.complete
    assert cov.uncovered()["sens"] == ["b"]


def test_coverage_merge():
    a = CoverageCollection(sens={"z": False}, diag={"d": True})
    b = CoverageCollection(sens={"z": True}, diag={"d": False})
    a.merge(b)
    assert a.sens["z"] and a.diag["d"]


def test_campaign_coverage_items(campaign):
    cov = campaign.coverage
    assert cov.injections == len(campaign.results)
    assert cov.sens_coverage() > 0.8
    assert cov.report().startswith("=== injection coverage ===")


# ----------------------------------------------------------------------
# result analyzer
# ----------------------------------------------------------------------
def test_zone_measurements_aggregate(campaign):
    analyzer = ResultAnalyzer(campaign)
    measurements = analyzer.zone_measurements()
    assert measurements
    total = sum(m.total for m in measurements)
    assert total == len(campaign.results)
    for m in measurements:
        if m.measured_ddf is not None:
            assert 0.0 <= m.measured_ddf <= 1.0


def test_fill_worksheet_records_measurements(env, campaign):
    analyzer = ResultAnalyzer(campaign)
    updated = analyzer.fill_worksheet(env.worksheet)
    assert updated > 0
    assert env.worksheet.measured_rows()


def test_effects_table_and_consistency(env, campaign):
    analyzer = ResultAnalyzer(campaign)
    table = analyzer.effects_table()
    assert table
    predicted = predict_effects_table(env.zone_set)
    comparison = analyzer.compare_effects(predicted)
    # every measured effect must be structurally reachable
    assert comparison.consistent, comparison.violations


def test_agreement_rows(env, campaign):
    analyzer = ResultAnalyzer(campaign)
    analyzer.fill_worksheet(env.worksheet)
    rows = analyzer.agreement_rows(env.worksheet)
    assert rows
    assert all(0 <= r["measured"] <= 1 for r in rows)


def test_reports_render(env, campaign):
    analyzer = ResultAnalyzer(campaign)
    analyzer.fill_worksheet(env.worksheet)
    assert "injection outcomes" in analyzer.outcome_report()
    assert "claimed vs measured" in \
        analyzer.agreement_report(env.worksheet)


# ----------------------------------------------------------------------
# fault simulator
# ----------------------------------------------------------------------
def _output_points(circuit):
    return [ObservationPoint(name=name, kind=ObservationKind.OUTPUT,
                             nets=tuple(nets))
            for name, nets in circuit.outputs.items()]


def _assert_matches_oracle(report, circuit, stimuli, faults, setup):
    """Detected = any observed output deviates, on the interpreted
    oracle too."""
    oracle = run_interpreted(
        FaultInjectionManager(circuit, stimuli,
                              observation_points=_output_points(circuit),
                              setup=setup), faults)
    undetected = [r.fault.name for r in oracle.results
                  if r.obse_cycle is None]
    assert report.undetected_names == undetected
    assert report.detected == len(oracle.results) - len(undetected)


def test_fault_simulator_coverage(improved):
    workload = validation_workload(improved, quick=True)
    faults = generate_gate_faults(improved.circuit,
                                  paths=("fmem/decoder",))
    setup = improved.preload_image()
    report = simulate_faults(improved.circuit, workload,
                             candidates=faults, setup=setup)
    assert report.total == len(faults)
    assert 0.3 < report.coverage <= 1.0
    assert report.detected + len(report.undetected_names) == report.total
    _assert_matches_oracle(report, improved.circuit, workload, faults,
                           setup)


def test_fault_simulator_nothing_detected_without_stimuli(improved):
    faults = generate_gate_faults(improved.circuit,
                                  paths=("fmem/decoder",))
    setup = improved.preload_image()
    stimuli = [improved.idle()] * 3
    report = simulate_faults(improved.circuit, stimuli,
                             candidates=faults, setup=setup)
    assert report.coverage < 0.5
    _assert_matches_oracle(report, improved.circuit, stimuli, faults,
                           setup)


# ----------------------------------------------------------------------
# wide / global faults
# ----------------------------------------------------------------------
def test_bridge_fault_runs(env):
    net_a = env.circuit.net_names[env.circuit.flops[0].q]
    net_b = env.circuit.net_names[env.circuit.flops[1].q]
    fault = BridgeFault(target=net_a, victim=net_b, zone=None)
    campaign = CampaignSupervisor(env.spec(), workers=1).run(
        CandidateList(faults=[fault]))
    assert len(campaign.results) == 1


def test_set_fault_unaffected_by_bridge_in_its_pass():
    """A SET on a primary input is observed at cycle 0 whether or not a
    bridge in another lane forces the pass to re-evaluate."""
    m = Module("t")
    a, b, c, d = (m.input(name) for name in "abcd")
    m.output("y", a & b)
    m.output("z", c | d)
    circuit = m.build()
    points = [ObservationPoint(name="y", kind=ObservationKind.OUTPUT,
                               nets=tuple(circuit.outputs["y"]))]
    stimuli = [{"a": 0, "b": 1, "c": 0, "d": 0}] * 2
    set_fault = SetFault(target="a", offset=0)
    bridge = BridgeFault(target="c", victim=circuit.net_names[
        circuit.outputs["z"][0]])
    spec = CampaignSpec(circuit=circuit, stimuli=stimuli,
                        observation_points=points)
    for faults in ([set_fault], [set_fault, bridge]):
        candidates = CandidateList(faults=faults)
        for result in (
                CampaignSupervisor(spec, workers=1).run(candidates),
                run_interpreted(spec.manager(), candidates)):
            assert result.results[0].obse_cycle == 0, faults


def test_global_fault_affects_everything(env):
    rst_nets = tuple(env.circuit.net_names[n]
                     for n in env.circuit.inputs["rst"])
    fault = GlobalStuckFault(target="rst", nets=rst_nets, value=1)
    campaign = CampaignSupervisor(env.spec(), workers=1).run(
        CandidateList(faults=[fault]))
    res = campaign.results[0]
    assert res.obse_cycle is not None or res.effects


def test_mem_fault_descriptors_names():
    assert "mem_flip" in MemFlipFault(target="m", word=3, bit=2).name
    assert "mem_stuck1" in MemStuckFault(target="m", word=1, bit=0,
                                         value=1).name


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def test_environment_config_dict(env):
    cfg = env.as_config_dict()
    assert cfg["zones"] == len(env.zone_set.zones)
    assert cfg["cycles"] == len(env.stimuli)
    assert "hrdata" in cfg["observation_points"]
    assert any(p.startswith("alarm") for p in cfg["diagnostic_points"])


def test_environment_profile_cached(env):
    assert env.profile() is env.profile()


# ----------------------------------------------------------------------
# full validation flow
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["baseline", "improved"])
def test_validation_flow_passes(variant, baseline, improved):
    sub = baseline if variant == "baseline" else improved
    report = run_validation(sub)
    assert report.passed, report.summary()
    names = [s.name for s in report.steps]
    assert names == sorted(names)
    assert any("a:" in n for n in names)
    assert any("b:" in n for n in names)
    assert report.coverage is not None and report.coverage.complete


def test_validation_report_summary_format(improved):
    report = run_validation(improved)
    text = report.summary()
    assert "FMEA validation flow" in text
    assert "overall: PASS" in text


def test_step_coverage_credits_the_replays_output_toggles(improved):
    """An OBSE item no campaign covered, on an output port the full
    workload's fault-free replay toggles, counts as covered in the
    ledger the e-step reports (and the dossier prints)."""
    from repro.faultinjection.validation import (
        ValidationReport,
        _full_workload_activity,
        _step_coverage,
        _toggled_outputs,
    )
    toggled = _toggled_outputs(improved.circuit, _full_workload_activity(
        improved, build_environment(improved, quick=True)))
    assert "hrdata" in toggled
    campaign = CampaignResult(coverage=CoverageCollection(
        sens={"z": True}, obse={"hrdata": False}, diag={"d": True}))
    report = ValidationReport(campaign=campaign)
    _step_coverage(report, toggled_outputs=toggled)
    assert report.coverage.obse == {"hrdata": True}
    assert report.coverage.diag == {"d": True}
    (step,) = report.steps
    assert step.name == "e:coverage-completeness" and step.passed
    # the campaign's own ledger is evidence of its faults only
    assert campaign.coverage.obse == {"hrdata": False}


def test_validation_replays_the_full_workload_once(improved,
                                                   monkeypatch):
    """Step b and the e-step's golden credit share one fault-free
    replay of the full workload, on the compiled kernel at one lane;
    the campaigns run in their own processes and nothing else is
    replayed once the environment's profile exists."""
    env = build_environment(improved, quick=True)
    env.profile()
    stepped = []
    step_eval, run = CompiledSimulator.step_eval, CompiledSimulator.run

    def counting_step_eval(self, inputs=None):
        if self.machines == 1:
            stepped.append(self)
        step_eval(self, inputs)

    def counting_run(self, table, cycles, *args, **kwargs):
        if self.machines == 1:
            stepped.extend([self] * cycles)
        run(self, table, cycles, *args, **kwargs)

    monkeypatch.setattr(CompiledSimulator, "step_eval",
                        counting_step_eval)
    monkeypatch.setattr(CompiledSimulator, "run", counting_run)
    report = run_validation(improved, env=env)
    assert report.passed, report.summary()
    cycles: dict[int, int] = {}
    for sim in stepped:
        cycles[id(sim)] = cycles.get(id(sim), 0) + 1
    full = validation_workload(improved, quick=False)
    assert list(cycles.values()) == [len(full)]


def test_step_b_reuses_the_full_environments_activity(improved):
    """Step b's toggle report and the e-step's toggled outputs, taken
    from a full environment's own profile, equal those of a separate
    fault-free replay of the full workload."""
    from repro.faultinjection.validation import (
        TOGGLE_THRESHOLD,
        _toggle_nets,
        _toggle_report,
        _toggled_outputs,
    )
    from repro.zones.effects import diagnostic_only_nets
    env = build_environment(improved, quick=False)
    report = run_validation(improved, env=env)
    assert report.passed, report.summary()
    separate = profile_workload(
        improved.circuit, validation_workload(improved, quick=False),
        setup=improved.preload_image()).activity
    reused = env.profile().activity
    assert reused == separate
    circuit = improved.circuit
    diag_only = diagnostic_only_nets(env.zone_set)
    nets = [n for n in _toggle_nets(circuit) if n not in diag_only]
    assert report.toggle == _toggle_report(
        circuit, separate.first_change, nets, TOGGLE_THRESHOLD)
    assert _toggled_outputs(circuit, reused) == \
        _toggled_outputs(circuit, separate)


def test_analyzer_csv_export(env, campaign, tmp_path):
    analyzer = ResultAnalyzer(campaign)
    path = tmp_path / "campaign.csv"
    analyzer.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(campaign.results) + 1
    assert lines[0].startswith("fault,kind,zone,persistence,outcome")
    # outcomes in the export match the classification
    body = "\n".join(lines[1:])
    for outcome, count in campaign.outcomes().items():
        assert body.count(outcome) >= count


def test_mbu_fault_defeats_correction(improved):
    """An adjacent double-bit upset is detected (UE) but the data is
    lost — the SEC-DED residual that motivates scrubbing."""
    from repro.faultinjection import MbuFault
    from repro.soc import AhbMaster
    master = AhbMaster(improved)
    master.reset()
    master.write(6, 0x3C)
    MbuFault(target="memarray/array", zone=None, word=6, bit=1,
             span=2).arm(master.sim, machine=0, t0=master.sim.cycle)
    result = master.read(6)
    assert result.alarms["alarm_ue"] == 1
    assert result.alarms["alarm_ce"] == 0
