"""Differential tests: the sharded campaign supervisor must be
bit-identical to the interpreted differential oracle
(``tests/campaign_oracle.py``).

The safety metrics (DC, SFF) extracted from a campaign are only
trustworthy if distributing the faults over worker processes cannot
shift them — so every worker count is checked against the serial
oracle fault by fault, not just in aggregate.
"""

import json
import os
import pickle
from pathlib import Path

import pytest

from repro.faultinjection import (
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    CampaignSupervisor,
    CandidateList,
    MemoryImageSetup,
    SeuFault,
    StuckNetFault,
    build_environment,
    compute_golden_trace,
    shard_candidates,
)
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.soc.minicpu import CpuConfig, MiniCpu, assemble
from repro.store import CampaignCache
from repro.zones import ZoneKind, extract_zones

from .campaign_oracle import run_interpreted

DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# fmem (memory subsystem) campaign
# ----------------------------------------------------------------------
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
    """The full per-fault record, in result order."""
    return [(res.fault.name, res.sens_cycle, res.obse_cycle,
             res.diag_cycle, res.first_alarm, res.effects)
            for res in campaign.results]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fmem_parallel_equals_serial(env, candidates, serial, workers):
    campaign = CampaignSupervisor(env.spec(), workers=workers).run(candidates)
    assert campaign.outcomes() == serial.outcomes()
    assert campaign.measured_dc() == serial.measured_dc()
    assert campaign.measured_safe_fraction() == \
        serial.measured_safe_fraction()
    assert _fault_rows(campaign) == _fault_rows(serial)


def test_fmem_parallel_coverage_equals_serial(env, candidates, serial):
    campaign = CampaignSupervisor(env.spec(), workers=2).run(candidates)
    assert campaign.coverage.sens == serial.coverage.sens
    assert campaign.coverage.obse == serial.coverage.obse
    assert campaign.coverage.diag == serial.coverage.diag
    assert campaign.coverage.mismatches == serial.coverage.mismatches
    assert campaign.coverage.injections == serial.coverage.injections


@pytest.mark.parametrize("workers", [1, 2])
def test_supervisor_toggle_coverage_equals_serial(env, candidates,
                                                  workers):
    # any-machine toggle bitmaps are collected per shard and must be
    # merged, not dropped, when the shards land
    reference = run_interpreted(
        env.spec(CampaignConfig(collect_toggles=True)).manager(), candidates)
    campaign = CampaignSupervisor(
        env.spec(CampaignConfig(collect_toggles=True)),
        workers=workers).run(candidates)
    assert reference.toggled_nets()
    assert campaign.toggled_nets() == reference.toggled_nets()


def test_shard_count_does_not_change_results(env, candidates, serial):
    # more shards than workers: shard order, not completion order,
    # must drive the merge
    campaign = CampaignSupervisor(
        env.spec(), workers=2, shards=7).run(candidates)
    assert _fault_rows(campaign) == _fault_rows(serial)


# ----------------------------------------------------------------------
# minicpu campaign
# ----------------------------------------------------------------------
PROG = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0), ("out",),
        ("xor", 0), ("st", 1), ("ld", 1), ("out",), ("jnz", 0)]


@pytest.fixture(scope="module")
def cpu_setup():
    cpu = MiniCpu(CpuConfig.plain())
    zone_set = extract_zones(cpu.circuit)
    stimuli = [cpu.idle(rst=1)] * 2 + [cpu.idle()] * 40
    zone_of = {}
    for zone in zone_set.of_kind(ZoneKind.REGISTER):
        for flop in zone.flops:
            zone_of[flop] = zone.name
    flops = [f.name for f in cpu.circuit.flops
             if f.name in zone_of][:8]
    faults = []
    for i, flop in enumerate(flops):
        faults.append(SeuFault(target=flop, zone=zone_of[flop],
                               offset=5 + (i % 7)))
        faults.append(StuckNetFault(target=flop, zone=zone_of[flop],
                                    value=i % 2))
    spec = CampaignSpec.from_zone_set(
        cpu.circuit, stimuli, zone_set,
        setup=MemoryImageSetup(
            mem_images={"imem/rom": assemble(PROG)}))
    return CandidateList(faults=faults), spec


@pytest.fixture(scope="module")
def cpu_serial(cpu_setup):
    candidates, spec = cpu_setup
    return run_interpreted(spec.manager(), candidates)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_minicpu_parallel_equals_serial(cpu_setup, cpu_serial, workers):
    candidates, spec = cpu_setup
    campaign = CampaignSupervisor(spec, workers=workers) \
        .run(candidates)
    assert campaign.outcomes() == cpu_serial.outcomes()
    assert campaign.measured_dc() == cpu_serial.measured_dc()
    assert campaign.measured_safe_fraction() == \
        cpu_serial.measured_safe_fraction()
    assert _fault_rows(campaign) == _fault_rows(cpu_serial)


# ----------------------------------------------------------------------
# spec / setup picklability
# ----------------------------------------------------------------------
def test_campaign_spec_round_trips_through_pickle(env, candidates,
                                                  serial):
    spec = pickle.loads(pickle.dumps(env.spec()))
    shard = list(candidates.faults[:12])
    out = spec.manager().run_batches(shard)
    assert [r.fault.name for r in out.results] == \
        [f.name for f in shard]
    assert _fault_rows(out) == _fault_rows(serial)[:12]


def test_spec_and_manager_leave_the_callers_config_alone(env):
    full = build_environment(
        MemorySubsystem(SubsystemConfig.small_improved()), quick=False,
        zone_set=env.zone_set, worksheet=env.worksheet)
    assert env.test_windows != full.test_windows
    config = CampaignConfig()
    assert env.spec(config).config.test_windows == env.test_windows
    spec = full.spec(config)
    assert spec.config.test_windows == full.test_windows
    assert spec.manager().config.test_windows == full.test_windows
    assert config == CampaignConfig()


# ----------------------------------------------------------------------
# golden-run cache
# ----------------------------------------------------------------------
def test_golden_trace_matches_serial_coverage(env, serial):
    trace = compute_golden_trace(env.spec(CampaignConfig()).manager())
    assert trace.cycles == len(env.stimuli)
    # the validation workload reads data back, so the functional bus
    # output toggles in the fault-free run
    assert "hrdata" in trace.obse_active
    # every item the shared trace credits to workload activity is also
    # credited by the oracle's per-pass golden bookkeeping
    assert all(serial.coverage.obse[name]
               for name in trace.obse_active)
    assert all(serial.coverage.diag[name]
               for name in trace.diag_active)
    # and it is deterministic: recomputing yields the same bits
    again = compute_golden_trace(env.spec(CampaignConfig()).manager())
    assert again.obse_active == trace.obse_active
    assert again.diag_active == trace.diag_active


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_runner_stats_and_progress(env, candidates):
    seen = []
    runner = CampaignSupervisor(
        env.spec(), workers=2,
        progress=lambda done, total: seen.append((done, total)))
    campaign = runner.run(candidates)
    total = len(candidates.faults)
    assert seen and seen[-1] == (total, total)
    assert [done for done, _ in seen] == \
        sorted(done for done, _ in seen)
    stats = runner.last_stats
    assert stats is not None
    assert sum(s.faults for s in stats.shards) == total
    assert all(s.wall_seconds >= 0 for s in stats.shards)
    assert stats.total_faults == len(campaign.results)
    assert "worker" in stats.summary()


# ----------------------------------------------------------------------
# empty campaigns (regression: metrics must not divide by zero)
# ----------------------------------------------------------------------
def test_empty_campaign_metrics_are_zero(env):
    campaign = CampaignSupervisor(env.spec(), workers=1).run(CandidateList())
    assert campaign.results == []
    assert campaign.measured_dc() == 0.0
    assert campaign.measured_safe_fraction() == 0.0
    assert CampaignResult().measured_dc() == 0.0
    assert CampaignResult().measured_safe_fraction() == 0.0


def test_empty_campaign_through_runner(env):
    campaign = CampaignSupervisor(env.spec(), workers=4).run(CandidateList())
    assert campaign.results == []
    assert campaign.measured_dc() == 0.0
    assert campaign.measured_safe_fraction() == 0.0


# ----------------------------------------------------------------------
# one compile and one stimulus table per environment
# ----------------------------------------------------------------------
def _log_compiles_and_packs(monkeypatch, log: Path) -> None:
    """Append ``<pid> compile`` / ``<pid> pack`` / ``<pid> replay`` to
    ``log`` on every compile, stimulus pack and profile replay; a
    file, so forked workers' calls are counted too."""
    from repro.hdl import compiled
    real_compile = compiled.compile_circuit
    real_pack = compiled.CompiledCircuit.pack_inputs
    real_replay = compiled.Activity.__init__

    def note(name):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {name}\n")

    def compile_circuit(circuit):
        note("compile")
        return real_compile(circuit)

    def pack_inputs(self, stimuli):
        note("pack")
        return real_pack(self, stimuli)

    def replay(self, sim, strobes):
        note("replay")
        real_replay(self, sim, strobes)

    monkeypatch.setattr(compiled, "compile_circuit", compile_circuit)
    monkeypatch.setattr(compiled.CompiledCircuit, "pack_inputs",
                        pack_inputs)
    monkeypatch.setattr(compiled.Activity, "__init__", replay)


def _logged(log: Path) -> tuple[list[str], set[int]]:
    """The logged call names, sorted, and the pids that made them."""
    calls = [line.split() for line in log.read_text().splitlines()]
    return sorted(name for _, name in calls), \
        {int(pid) for pid, _ in calls}


def test_campaign_compiles_and_packs_once_in_the_parent(
        candidates, serial, tmp_path, monkeypatch):
    """The profile replay and every shard run on the environment's
    one program: one compile and one pack, both in the parent."""
    log = tmp_path / "calls.log"
    _log_compiles_and_packs(monkeypatch, log)
    env = build_environment(
        MemorySubsystem(SubsystemConfig.small_improved()), quick=True)
    spec = env.spec()        # replays the workload on env.program()
    with CampaignCache(tmp_path / "store") as cache:
        supervisor = CampaignSupervisor(spec, workers=2, shards=3,
                                        cache=cache, start_method="fork")
        campaign = supervisor.run(candidates)
        assert cache.stats.simulated == len(candidates.faults)
    workers = {s.worker for s in supervisor.last_stats.shards}
    assert len(supervisor.last_stats.shards) == 3
    assert os.getpid() not in workers
    assert _logged(log) == (["compile", "pack", "replay"],
                            {os.getpid()})
    assert _fault_rows(campaign) == _fault_rows(serial)


def test_cold_service_campaign_compiles_and_packs_once(tmp_path,
                                                       monkeypatch):
    """A cold ``run_campaign`` on small-baseline x2 with the full
    workload: its profile replay (a store miss) and its campaign share
    one compile and one pack."""
    from repro.service import CampaignRequest, CampaignService
    log = tmp_path / "calls.log"
    _log_compiles_and_packs(monkeypatch, log)
    outcome = CampaignService(tmp_path / "store").run_campaign(
        CampaignRequest(variant="small-baseline", banks=2, full=True))
    assert outcome.exit_code == 0, outcome.err
    assert _logged(log) == (["compile", "pack", "replay"],
                            {os.getpid()})


def test_edited_spec_does_not_run_the_environments_program(
        env, candidates):
    """Stimuli edited in a spec after ``env.spec()`` are simulated:
    the manager builds its own program instead of the environment's
    stale table."""
    spec = env.spec()
    env.program().table()
    spec.stimuli[5] = dict(spec.stimuli[5], haddr=3)
    shard = list(candidates.faults[:24])
    fresh = CampaignSpec.from_zone_set(env.circuit, spec.stimuli,
                                       env.zone_set, setup=env.setup)
    assert spec.manager().program is not env.program()
    assert _fault_rows(spec.manager().run_batches(shard)) == \
        _fault_rows(fresh.manager().run_batches(shard))


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_validation_compiles_once(quick, tmp_path, monkeypatch):
    """The environment's replay, the four campaigns, the fault
    simulation and step b share one compiled circuit.  A quick
    environment packs and replays the full workload once more for
    step b; a full one already holds step b's activity."""
    from repro.faultinjection import run_validation
    log = tmp_path / "calls.log"
    _log_compiles_and_packs(monkeypatch, log)
    report = run_validation(
        MemorySubsystem(SubsystemConfig.small_improved()), quick=quick)
    assert report.passed, report.summary()
    runs = 2 if quick else 1
    assert _logged(log) == (["compile"] + ["pack"] * runs
                            + ["replay"] * runs, {os.getpid()})


def test_spawned_workers_equal_forked_workers(env, candidates):
    fork, spawn = (CampaignSupervisor(env.spec(), workers=2, shards=3,
                                      start_method=method).run(candidates)
                   for method in ("fork", "spawn"))
    assert _fault_rows(spawn) == _fault_rows(fork)
    assert spawn.outcomes() == fork.outcomes()
    assert (spawn.passes, spawn.cycles_simulated) == \
        (fork.passes, fork.cycles_simulated)
    assert spawn.coverage.obse == fork.coverage.obse
    assert spawn.coverage.diag == fork.coverage.diag


# ----------------------------------------------------------------------
# golden-file regression: the fmem campaign summary is frozen
# ----------------------------------------------------------------------
def campaign_summary(campaign) -> dict:
    """The committed snapshot view of a campaign."""
    return {
        "injections": len(campaign.results),
        "outcomes": campaign.outcomes(),
        "measured_dc": round(campaign.measured_dc(), 12),
        "measured_safe_fraction": round(
            campaign.measured_safe_fraction(), 12),
        "per_fault_outcomes": [
            [res.fault.name, campaign.outcome_of(res)]
            for res in campaign.results],
    }


def test_fmem_campaign_matches_golden_file(serial):
    expected = json.loads(
        (DATA / "fmem_small_campaign.json").read_text())
    assert campaign_summary(serial) == expected
