"""Differential acceptance tests for the campaign store.

A cached, resumed or incremental campaign must be *bit-identical* to a
cold run of the interpreted oracle (``tests/campaign_oracle.py``) over
the same inputs —
same per-fault records, same outcome counts, same measured DC and safe
fraction, same coverage bits — for every worker count.  A warm rerun
must additionally perform **zero** fault simulations.
"""

import copy

import pytest

from repro.faultinjection import (
    CampaignConfig,
    CampaignSupervisor,
    CandidateList,
    SeuFault,
    StuckNetFault,
    build_environment,
)
from repro.hdl.netlist import OP_AND, OP_OR
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.soc.minicpu import CpuConfig, MiniCpu, assemble
from repro.store import CampaignCache, FingerprintContext, diff_runs
from repro.zones import ZoneKind, extract_zones

from .campaign_oracle import run_interpreted

#: the incremental test flips this OR gate to AND — it sits inside the
#: BIST datapath, so most (but not all) fault cones contain it and a
#: handful of faults genuinely change outcome class
MUTATED_GATE = "memctrl/bist/t28"


# ----------------------------------------------------------------------
# fmem (memory subsystem)
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
    return [(res.fault.name, res.sens_cycle, res.obse_cycle,
             res.diag_cycle, res.first_alarm, res.effects)
            for res in campaign.results]


def _assert_identical(campaign, reference):
    assert _fault_rows(campaign) == _fault_rows(reference)
    assert campaign.outcomes() == reference.outcomes()
    assert campaign.measured_dc() == reference.measured_dc()
    assert campaign.measured_safe_fraction() == \
        reference.measured_safe_fraction()
    assert campaign.coverage.sens == reference.coverage.sens
    assert campaign.coverage.obse == reference.coverage.obse
    assert campaign.coverage.diag == reference.coverage.diag


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fmem_cached_equals_cold_serial(env, candidates, serial,
                                        workers, tmp_path):
    with CampaignCache(tmp_path / "store") as cache:
        supervisor = CampaignSupervisor(
            env.spec(), workers=workers, cache=cache)
        _assert_identical(supervisor.run(candidates), serial)
        assert cache.stats.misses == len(candidates.faults)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fmem_warm_rerun_simulates_nothing(env, candidates, serial,
                                           workers, tmp_path):
    with CampaignCache(tmp_path / "store") as cache:
        CampaignSupervisor(
            env.spec(), workers=workers, cache=cache).run(candidates)

    with CampaignCache(tmp_path / "store") as cache:
        campaign = CampaignSupervisor(
            env.spec(), workers=workers, cache=cache).run(candidates)
        assert cache.stats.simulated == 0
        assert cache.stats.misses == 0
        assert cache.stats.hits == len(candidates.faults)
        assert cache.stats.hit_rate() == 1.0
        _assert_identical(campaign, serial)


def test_store_is_portable_across_entry_points(env, candidates, serial,
                                               tmp_path):
    """Outcomes written by a two-worker campaign are served to a
    one-worker campaign: the content address does not depend on how
    the shards that produced the record were laid out."""
    with CampaignCache(tmp_path / "store") as cache:
        CampaignSupervisor(env.spec(), workers=2, cache=cache).run(candidates)
    with CampaignCache(tmp_path / "store") as cache:
        campaign = CampaignSupervisor(
            env.spec(), workers=1, cache=cache).run(candidates)
        assert cache.stats.simulated == 0
        _assert_identical(campaign, serial)


def test_detection_window_change_is_all_hits(env, candidates, tmp_path):
    """Reclassification params don't enter the fingerprint: rerunning
    with another detection window reuses every raw record and only the
    derived outcome classes move."""
    with CampaignCache(tmp_path / "store") as cache:
        CampaignSupervisor(env.spec(), workers=1, cache=cache).run(candidates)
    reference = run_interpreted(
        env.spec(CampaignConfig(detection_window=2)).manager(), candidates)
    with CampaignCache(tmp_path / "store") as cache:
        supervisor = CampaignSupervisor(
            env.spec(CampaignConfig(detection_window=2)), workers=1,
            cache=cache)
        campaign = supervisor.run(candidates)
        assert cache.stats.simulated == 0
        assert cache.stats.hits == len(candidates.faults)
        _assert_identical(campaign, reference)


# ----------------------------------------------------------------------
# incremental recompute after a netlist edit
# ----------------------------------------------------------------------
def _mutated_spec(env):
    spec = copy.deepcopy(env.spec())
    spec.activity = None    # the golden trace must replay the edit
    for gate in spec.circuit.gates:
        if spec.circuit.net_names[gate.out] == MUTATED_GATE:
            assert gate.op == OP_OR
            gate.op = OP_AND
            return spec
    raise AssertionError(f"gate {MUTATED_GATE} not found")


def test_incremental_campaign_after_gate_mutation(env, candidates,
                                                  serial, tmp_path):
    spec0 = env.spec()
    spec1 = _mutated_spec(env)
    ctx0 = FingerprintContext.from_spec(spec0)
    ctx1 = FingerprintContext.from_spec(spec1)
    unchanged = sum(
        ctx0.fault_fingerprint(f) == ctx1.fault_fingerprint(f)
        for f in candidates.faults)
    total = len(candidates.faults)
    assert 0 < unchanged < total    # the edit must not flush the store

    reference = run_interpreted(spec1.manager(), candidates)  # mutated

    with CampaignCache(tmp_path / "store") as cache:
        CampaignSupervisor(spec0, workers=2,
                           cache=cache).run(candidates)
    with CampaignCache(tmp_path / "store") as cache:
        supervisor = CampaignSupervisor(spec1, workers=2, cache=cache)
        campaign = supervisor.run(candidates)
        # only the faults whose support cone contains the mutated gate
        # were re-simulated; the rest were served from the store
        assert cache.stats.hits == unchanged
        assert cache.stats.simulated == total - unchanged
        _assert_identical(campaign, reference)

        # `store diff` pinpoints exactly the zones whose outcome
        # population moved under the edit
        diff = diff_runs(cache)
        expected = sorted({
            res.fault.zone or "?"
            for old, res in zip(serial.results, campaign.results)
            if campaign.outcome_of(res) != serial.outcome_of(old)})
        assert sorted(diff.affected_zones()) == expected
        assert expected                 # the edit is visible in diff
        assert len(diff.changed_faults) > 0


# ----------------------------------------------------------------------
# minicpu
# ----------------------------------------------------------------------
PROG = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0), ("out",),
        ("xor", 0), ("st", 1), ("ld", 1), ("out",), ("jnz", 0)]


@pytest.fixture(scope="module")
def cpu_setup():
    from repro.faultinjection import CampaignSpec, MemoryImageSetup
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
def test_minicpu_cached_equals_cold_serial(cpu_setup, cpu_serial,
                                           workers, tmp_path):
    candidates, spec = cpu_setup
    with CampaignCache(tmp_path / "store") as cache:
        campaign = CampaignSupervisor(spec, workers=workers,
                                      cache=cache).run(candidates)
        _assert_identical(campaign, cpu_serial)
        assert cache.stats.misses == len(candidates.faults)

    with CampaignCache(tmp_path / "store") as cache:
        warm = CampaignSupervisor(spec, workers=workers,
                                  cache=cache).run(candidates)
        assert cache.stats.simulated == 0
        assert cache.stats.hits == len(candidates.faults)
        _assert_identical(warm, cpu_serial)
