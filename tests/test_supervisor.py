"""Chaos tests: the fault-tolerant campaign supervisor.

A campaign engine claiming IEC 61508-grade evidence handling must not
lose or corrupt results when a worker crashes, hangs or raises — so
these tests inject *hostile faults* that kill, stall or blow up the
worker process mid-campaign and check that (a) the campaign completes,
(b) exactly the hostile faults are quarantined, and (c) every
surviving per-fault record is bit-identical to a serial run over the
benign faults alone.
"""

import os
import signal
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinjection import (
    OUTCOME_DD,
    OUTCOME_DETECTED_SAFE,
    OUTCOME_DU,
    OUTCOME_SAFE,
    CampaignAborted,
    CampaignConfig,
    CampaignResult,
    CampaignSpec,
    CampaignSupervisor,
    CandidateList,
    FaultResult,
    MemoryImageSetup,
    SafeProgress,
    SeuFault,
    StimuliValidationError,
    StuckNetFault,
    SupervisorConfig,
    build_environment,
    validate_stimuli,
)
from repro.faultinjection.supervisor import FaultAnomaly
from repro.hdl import CycleBudgetExceeded
from repro.reporting.health import (
    degraded_bounds,
    quarantine_bounds,
    render_campaign_health,
)
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.soc.minicpu import CpuConfig, MiniCpu, assemble
from repro.zones import ZoneKind, extract_zones

from .campaign_oracle import run_interpreted
from .simulator_oracle import Simulator


@dataclass(frozen=True)
class HostileFault(SeuFault):
    """A fault whose arming sabotages the worker process."""

    mode: str = "raise"   # raise | crash | hang

    @property
    def name(self) -> str:
        return f"hostile-{self.mode}:{self.target}"

    def arm(self, sim, machine, t0):
        if self.mode == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.mode == "hang":
            time.sleep(600)
        raise RuntimeError(f"hostile fault on {self.target}")


#: fast-failing supervision policy for the chaos tests: no retries
#: (failures are deterministic) and near-zero backoff
FAST = dict(max_retries=0, backoff_base=0.001)


def _fault_rows(campaign):
    return [(res.fault.name, res.sens_cycle, res.obse_cycle,
             res.diag_cycle, res.first_alarm, res.effects)
            for res in campaign.results]


# ----------------------------------------------------------------------
# fixtures
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


def hostile_candidates(env, candidates, modes):
    """Benign candidates with one hostile fault per mode spliced in."""
    faults = list(candidates.faults)
    flops = [f.name for f in env.circuit.flops]
    zone = faults[0].zone
    hostiles = [HostileFault(target=flops[i % len(flops)], zone=zone,
                             mode=mode)
                for i, mode in enumerate(modes)]
    # spread them through the list: front, middle, back
    spliced = list(faults)
    for i, hostile in enumerate(hostiles):
        spliced.insert((i + 1) * len(spliced) // (len(hostiles) + 1),
                       hostile)
    return CandidateList(faults=spliced), hostiles


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
    hostiles = [HostileFault(target=flops[0], zone=zone_of[flops[0]],
                             mode="crash"),
                HostileFault(target=flops[1], zone=zone_of[flops[1]],
                             mode="raise")]
    spliced = list(faults)
    spliced.insert(3, hostiles[0])
    spliced.insert(11, hostiles[1])
    spec = CampaignSpec.from_zone_set(
        cpu.circuit, stimuli, zone_set,
        setup=MemoryImageSetup(
            mem_images={"imem/rom": assemble(PROG)}))
    serial = run_interpreted(spec.manager(),
                             CandidateList(faults=faults))
    return spec, CandidateList(faults=spliced), hostiles, serial


# ----------------------------------------------------------------------
# clean runs: supervision must be invisible
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_clean_supervised_run_is_bit_identical(env, candidates,
                                               serial, workers):
    supervisor = CampaignSupervisor(env.spec(), workers=workers)
    campaign = supervisor.run(candidates)
    assert supervisor.anomalies == []
    assert supervisor.last_stats.health.clean
    assert _fault_rows(campaign) == _fault_rows(serial)
    assert campaign.outcomes() == serial.outcomes()
    assert campaign.measured_dc() == serial.measured_dc()


def test_clean_run_coverage_equals_serial(env, candidates, serial):
    campaign = CampaignSupervisor(env.spec(), workers=2) \
        .run(candidates)
    assert campaign.coverage.sens == serial.coverage.sens
    assert campaign.coverage.obse == serial.coverage.obse
    assert campaign.coverage.diag == serial.coverage.diag


def test_empty_campaign_through_supervisor(env):
    campaign = CampaignSupervisor(env.spec(), workers=2) \
        .run(CandidateList())
    assert campaign.results == []
    assert campaign.measured_dc() == 0.0


# ----------------------------------------------------------------------
# chaos matrix: crash + raise hostiles, survivors bit-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fmem_chaos_survivors_bit_identical(env, candidates, serial,
                                            workers):
    spliced, hostiles = hostile_candidates(
        env, candidates, ["crash", "raise", "crash"])
    supervisor = CampaignSupervisor(
        env.spec(), workers=workers,
        config=SupervisorConfig(**FAST))
    campaign = supervisor.run(spliced)
    assert sorted(a.fault_name for a in supervisor.anomalies) == \
        sorted(h.name for h in hostiles)
    assert {a.kind for a in supervisor.anomalies} == \
        {"crash", "exception"}
    # every surviving record matches the serial benign-only reference
    assert _fault_rows(campaign) == _fault_rows(serial)
    assert campaign.outcomes() == serial.outcomes()
    assert campaign.measured_dc() == serial.measured_dc()
    health = supervisor.last_stats.health
    assert health.quarantined == len(hostiles)
    assert health.crashes >= 2 and health.exceptions >= 1
    assert not health.clean
    assert "quarantined" in supervisor.last_stats.summary()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_minicpu_chaos_survivors_bit_identical(cpu_setup, workers):
    spec, spliced, hostiles, serial = cpu_setup
    supervisor = CampaignSupervisor(
        spec, workers=workers, config=SupervisorConfig(**FAST))
    campaign = supervisor.run(spliced)
    assert sorted(a.fault_name for a in supervisor.anomalies) == \
        sorted(h.name for h in hostiles)
    assert _fault_rows(campaign) == _fault_rows(serial)
    assert campaign.measured_dc() == serial.measured_dc()


def test_hostile_crash_records_worker_details(env, candidates):
    spliced, hostiles = hostile_candidates(env, candidates, ["raise"])
    supervisor = CampaignSupervisor(
        env.spec(), workers=2, config=SupervisorConfig(**FAST))
    supervisor.run(spliced)
    (anomaly,) = supervisor.anomalies
    assert anomaly.kind == "exception"
    assert anomaly.worker is not None
    assert "hostile fault" in anomaly.traceback
    assert anomaly.attempts >= 1
    assert anomaly.zone == hostiles[0].zone


def test_hang_is_killed_and_quarantined(env, candidates):
    # small campaign so each wall-clock timeout costs little
    subset = CandidateList(faults=list(candidates.faults[:8]))
    spliced, hostiles = hostile_candidates(env, subset, ["hang"])
    supervisor = CampaignSupervisor(
        env.spec(), workers=2, shards=4,
        config=SupervisorConfig(shard_timeout=1.5, **FAST))
    start = time.time()
    campaign = supervisor.run(spliced)
    assert time.time() - start < 30
    assert [a.fault_name for a in supervisor.anomalies] == \
        [hostiles[0].name]
    assert supervisor.anomalies[0].kind == "hang"
    assert len(campaign.results) == 8
    assert supervisor.last_stats.health.hangs >= 1


def test_retries_repeat_shard_before_bisecting(env, candidates):
    spliced, _ = hostile_candidates(env, candidates, ["raise"])
    supervisor = CampaignSupervisor(
        env.spec(), workers=2,
        config=SupervisorConfig(max_retries=1, backoff_base=0.001))
    supervisor.run(spliced)
    health = supervisor.last_stats.health
    assert health.retries >= 1
    assert health.quarantined == 1
    (anomaly,) = supervisor.anomalies
    assert anomaly.attempts == 2  # initial + one retry


def test_no_quarantine_aborts_campaign(env, candidates):
    spliced, _ = hostile_candidates(env, candidates, ["raise"])
    supervisor = CampaignSupervisor(
        env.spec(), workers=2,
        config=SupervisorConfig(quarantine=False, **FAST))
    with pytest.raises(CampaignAborted):
        supervisor.run(spliced)


# ----------------------------------------------------------------------
# graceful degradation: no worker processes available
# ----------------------------------------------------------------------
def test_degrades_to_in_process_when_spawn_fails(env, candidates,
                                                 serial, monkeypatch):
    def no_spawn(self, job):
        raise OSError("Resource temporarily unavailable")
    monkeypatch.setattr(CampaignSupervisor, "_spawn", no_spawn)
    supervisor = CampaignSupervisor(env.spec(), workers=4)
    campaign = supervisor.run(candidates)
    assert supervisor.last_stats.health.degraded
    assert _fault_rows(campaign) == _fault_rows(serial)
    assert "DEGRADED" in supervisor.last_stats.summary()


def test_degraded_mode_still_quarantines_exceptions(env, candidates,
                                                    serial,
                                                    monkeypatch):
    def no_spawn(self, job):
        raise OSError("no processes for you")
    monkeypatch.setattr(CampaignSupervisor, "_spawn", no_spawn)
    spliced, hostiles = hostile_candidates(env, candidates, ["raise"])
    supervisor = CampaignSupervisor(
        env.spec(), workers=4, config=SupervisorConfig(**FAST))
    campaign = supervisor.run(spliced)
    assert [a.fault_name for a in supervisor.anomalies] == \
        [hostiles[0].name]
    assert _fault_rows(campaign) == _fault_rows(serial)


def _no_spawn(self, job):
    raise OSError("Resource temporarily unavailable")


def test_degraded_two_worker_run_matches_a_clean_run(env, candidates,
                                                     monkeypatch):
    clean = CampaignSupervisor(env.spec(), workers=2).run(candidates)
    monkeypatch.setattr(CampaignSupervisor, "_spawn", _no_spawn)
    supervisor = CampaignSupervisor(env.spec(), workers=2)
    campaign = supervisor.run(candidates)
    assert _fault_rows(campaign) == _fault_rows(clean)
    assert supervisor.last_stats.health.degraded
    assert supervisor.anomalies == []


def test_degraded_cli_campaign_prints_the_degraded_line(capsys,
                                                        monkeypatch):
    argv = ("campaign", "--variant", "small-improved", "--workers", "2",
            "--no-cache")
    code, clean, _ = _run_cli(capsys, *argv)
    assert code == 0 and "DEGRADED" not in clean
    monkeypatch.setattr(CampaignSupervisor, "_spawn", _no_spawn)
    code, out, _ = _run_cli(capsys, *argv)
    assert code == 0
    assert "DEGRADED: worker processes unavailable — ran in-process " \
        "without crash/hang containment" in out.splitlines()

    def metrics(text):
        return [ln for ln in text.splitlines()
                if ln.startswith(("|", "measured"))]
    assert metrics(out) == metrics(clean)


def test_degraded_mode_retries_bisects_and_quarantines_hangs(
        env, candidates, monkeypatch):
    """In-process, a cycle-budget runaway takes the same retry →
    bisect → quarantine path as in a worker process."""
    monkeypatch.setattr(CampaignSupervisor, "_spawn", _no_spawn)
    subset = CandidateList(faults=list(candidates.faults[:4]))
    supervisor = CampaignSupervisor(
        env.spec(CampaignConfig(cycle_budget=3)), workers=2,
        config=SupervisorConfig(max_retries=1, backoff_base=0.001))
    campaign = supervisor.run(subset)
    health = supervisor.last_stats.health
    assert health.degraded
    assert campaign.results == []
    assert sorted(a.fault_name for a in supervisor.anomalies) == \
        sorted(f.name for f in subset.faults)
    assert {a.kind for a in supervisor.anomalies} == {"hang"}
    assert health.retries >= 1
    assert health.bisections >= 1
    assert health.quarantined == 4
    assert all(a.attempts == 2 for a in supervisor.anomalies)


def test_degraded_retries_wait_out_their_backoff(env, candidates,
                                                 monkeypatch):
    """An in-process retry starts no earlier than its ``not_before``,
    as a retry in a worker process does."""
    monkeypatch.setattr(CampaignSupervisor, "_spawn", _no_spawn)
    starts = []
    run_in_process = CampaignSupervisor._run_in_process

    def timed(self, pending, job):
        starts.append((time.time(), job.not_before))
        run_in_process(self, pending, job)
    monkeypatch.setattr(CampaignSupervisor, "_run_in_process", timed)
    fault = candidates.faults[0]
    supervisor = CampaignSupervisor(
        env.spec(CampaignConfig(cycle_budget=3)), workers=1,
        config=SupervisorConfig(max_retries=2, backoff_base=0.2))
    campaign = supervisor.run(CandidateList(faults=[fault]))
    assert len(starts) == 3
    assert all(started >= due for started, due in starts)
    assert all(later - earlier >= 0.2 for (earlier, _), (later, _)
               in zip(starts, starts[1:]))
    assert campaign.results == []
    [anomaly] = supervisor.anomalies
    assert (anomaly.fault_name, anomaly.kind, anomaly.attempts) == \
        (fault.name, "hang", 3)
    assert supervisor.last_stats.health.retries == 2


# ----------------------------------------------------------------------
# cycle budget: deterministic runaway containment
# ----------------------------------------------------------------------
def test_simulator_cycle_budget_raises(env):
    sim = Simulator(env.circuit, machines=1, cycle_budget=3)
    if env.setup:
        env.setup(sim)
    with pytest.raises(CycleBudgetExceeded):
        for vector in env.stimuli:
            sim.step(vector)


def test_serial_manager_propagates_cycle_budget(env, candidates):
    manager = env.spec(CampaignConfig(cycle_budget=3)).manager()
    with pytest.raises(CycleBudgetExceeded):
        manager.run_batches(list(candidates.faults[:2]))


def test_supervisor_quarantines_cycle_budget_as_hang(env, candidates):
    subset = CandidateList(faults=list(candidates.faults[:4]))
    supervisor = CampaignSupervisor(
        env.spec(CampaignConfig(cycle_budget=3)), workers=2,
        config=SupervisorConfig(**FAST))
    campaign = supervisor.run(subset)
    assert campaign.results == []
    assert len(supervisor.anomalies) == 4
    assert {a.kind for a in supervisor.anomalies} == {"hang"}
    assert supervisor.last_stats.health.hangs >= 4


def test_ample_cycle_budget_changes_nothing(env, candidates, serial):
    subset = CandidateList(faults=list(candidates.faults[:6]))
    supervisor = CampaignSupervisor(
        env.spec(CampaignConfig(cycle_budget=len(env.stimuli) + 1)),
        workers=2)
    campaign = supervisor.run(subset)
    assert supervisor.anomalies == []
    assert _fault_rows(campaign) == _fault_rows(serial)[:6]


# ----------------------------------------------------------------------
# store integration: anomalies persist, resume skips known poison
# ----------------------------------------------------------------------
def test_anomalies_persist_and_resume_skips_poison(env, candidates,
                                                   serial, tmp_path):
    from repro.store import CampaignCache
    spliced, hostiles = hostile_candidates(env, candidates, ["raise"])

    with CampaignCache(tmp_path / "store") as cache:
        supervisor = CampaignSupervisor(
            env.spec(), workers=2, cache=cache,
            config=SupervisorConfig(**FAST))
        campaign = supervisor.run(spliced)
        assert _fault_rows(campaign) == _fault_rows(serial)
        assert cache.db.anomaly_count() == 1
        assert cache.db.shard_attempt_count() > 0
        run_id = cache.last_run_id
        membership = cache.db.run_faults(run_id)
        assert sum(1 for f in membership
                   if f["outcome"] == "quarantined") == 1
        (row,) = cache.db.anomaly_rows(run_id=run_id)
        assert row.fault_name == hostiles[0].name
        assert row.kind == "exception"

    # resume: the poison fault is served from the anomaly table and
    # never re-executed; benign faults are all cache hits
    with CampaignCache(tmp_path / "store") as cache:
        supervisor = CampaignSupervisor(
            env.spec(), workers=2, cache=cache,
            config=SupervisorConfig(**FAST))
        campaign = supervisor.run(spliced)
        assert _fault_rows(campaign) == _fault_rows(serial)
        assert cache.stats.hits == len(candidates.faults)
        assert cache.stats.simulated == 0
        assert cache.stats.poisoned == 1
        health = supervisor.last_stats.health
        assert health.known_poison_skipped == 1
        assert health.crashes == health.exceptions == 0
        (anomaly,) = supervisor.anomalies
        assert anomaly.known


def test_clearing_anomaly_allows_reexecution(env, candidates,
                                             tmp_path):
    from repro.store import CampaignCache
    spliced, _ = hostile_candidates(env, candidates, ["raise"])
    with CampaignCache(tmp_path / "store") as cache:
        CampaignSupervisor(env.spec(), workers=2, cache=cache,
                           config=SupervisorConfig(**FAST)) \
            .run(spliced)
        (row,) = cache.db.anomaly_rows()
        assert cache.db.clear_anomaly(row.fault_fp) == 1
        assert cache.db.anomaly_count() == 0
    with CampaignCache(tmp_path / "store") as cache:
        supervisor = CampaignSupervisor(
            env.spec(), workers=2, cache=cache,
            config=SupervisorConfig(**FAST))
        supervisor.run(spliced)
        # re-executed and re-quarantined, not served from the store
        assert supervisor.last_stats.health.known_poison_skipped == 0
        assert supervisor.last_stats.health.exceptions >= 1


def test_store_stats_count_anomalies(env, candidates, tmp_path):
    from repro.store import CampaignCache
    from repro.store.query import store_stats
    spliced, _ = hostile_candidates(env, candidates, ["raise"])
    with CampaignCache(tmp_path / "store") as cache:
        CampaignSupervisor(env.spec(), workers=2, cache=cache,
                           config=SupervisorConfig(**FAST)) \
            .run(spliced)
        stats = store_stats(cache)
        assert stats.anomalies == 1
        assert stats.shard_attempts > 0
        pairs = dict(stats.as_pairs())
        assert pairs["quarantined faults"] == 1


# ----------------------------------------------------------------------
# progress callback shielding
# ----------------------------------------------------------------------
def test_progress_exception_shielded_in_supervisor(env, candidates):
    calls = []

    def bad_progress(done, total):
        calls.append((done, total))
        raise ValueError("boom")

    supervisor = CampaignSupervisor(env.spec(), workers=2,
                                    progress=bad_progress)
    with pytest.warns(RuntimeWarning, match="progress callback"):
        campaign = supervisor.run(candidates)
    assert len(campaign.results) == len(candidates.faults)
    assert len(calls) == 1   # disabled after the first failure


def test_supervisor_progress_is_monotonic(env, candidates):
    seen = []
    supervisor = CampaignSupervisor(
        env.spec(), workers=2,
        progress=lambda done, total: seen.append((done, total)))
    supervisor.run(candidates)
    total = len(candidates.faults)
    assert seen and seen[-1] == (total, total)
    assert [d for d, _ in seen] == sorted(d for d, _ in seen)


def test_safe_progress_wrap_is_idempotent():
    wrapped = SafeProgress.wrap(lambda done, total: None)
    assert SafeProgress.wrap(wrapped) is wrapped
    assert SafeProgress.wrap(None) is None


# ----------------------------------------------------------------------
# stimuli validation
# ----------------------------------------------------------------------
def test_validate_stimuli_accepts_real_workload(env):
    validate_stimuli(env.circuit, env.stimuli)


def test_validate_stimuli_rejects_unknown_signal(env):
    stimuli = [dict(v) for v in env.stimuli]
    stimuli[2]["htrans_typo"] = 1
    with pytest.raises(StimuliValidationError) as err:
        validate_stimuli(env.circuit, stimuli)
    assert "htrans_typo" in str(err.value)
    assert "cycle 2" in str(err.value)


def test_validate_stimuli_rejects_undriven_input(env):
    victim = sorted(env.circuit.inputs)[0]
    stimuli = [{k: v for k, v in vec.items() if k != victim}
               for vec in env.stimuli]
    with pytest.raises(StimuliValidationError) as err:
        validate_stimuli(env.circuit, stimuli)
    assert victim in str(err.value)
    assert "never driven" in str(err.value)


def test_validate_stimuli_accepts_empty_stimuli(env):
    validate_stimuli(env.circuit, [])


# ----------------------------------------------------------------------
# quarantine metric bounds and report rendering
# ----------------------------------------------------------------------
def test_quarantine_bounds_math(serial):
    counts = serial.outcomes()
    dd = counts["dangerous_detected"]
    du = counts["dangerous_undetected"]
    safe = counts["safe"] + counts["detected_safe"]
    n = len(serial.results)
    q = 5
    bounds = quarantine_bounds(serial, q)
    assert bounds.measured == n and bounds.quarantined == q
    assert bounds.dc_measured == serial.measured_dc()
    assert bounds.dc_best == pytest.approx((dd + q) / (dd + du + q))
    assert bounds.dc_worst == pytest.approx(dd / (dd + du + q))
    assert bounds.safe_best == pytest.approx((safe + q) / (n + q))
    assert bounds.safe_worst == pytest.approx(safe / (n + q))
    assert bounds.dc_worst <= bounds.dc_measured <= bounds.dc_best
    assert bounds.safe_worst <= bounds.safe_best


#: the outcome classes in ``_campaign_of``'s argument order
OUTCOME_CLASSES = (OUTCOME_SAFE, OUTCOME_DETECTED_SAFE, OUTCOME_DD,
                   OUTCOME_DU)


def _campaign_of(safe=0, detected_safe=0, dd=0, du=0):
    """A campaign result with the given outcome counts."""
    cycles = ([(None, None)] * safe + [(None, 0)] * detected_safe
              + [(0, 0)] * dd + [(0, None)] * du)
    return CampaignResult(results=[
        FaultResult(fault=SeuFault(target=f"f{i}", zone="z"),
                    obse_cycle=obse, diag_cycle=diag)
        for i, (obse, diag) in enumerate(cycles)])


_COUNTS = st.integers(min_value=0, max_value=12)


@settings(max_examples=300, deadline=None)
@given(measured=st.tuples(_COUNTS, _COUNTS, _COUNTS, _COUNTS),
       missing=st.tuples(_COUNTS, _COUNTS, _COUNTS, _COUNTS))
def test_bounds_bracket_the_full_evidence_metrics(measured, missing):
    """However the quarantined (or lost) faults would have come out,
    the DC and safe fraction of the full evidence lie inside the
    bounds computed without them."""
    partial = _campaign_of(*measured)
    full = _campaign_of(*(m + k for m, k in zip(measured, missing)))
    assert [full.outcomes()[c] - partial.outcomes()[c]
            for c in OUTCOME_CLASSES] == list(missing)
    lost = sum(missing)
    for bounds in (quarantine_bounds(partial, lost),
                   degraded_bounds(partial, ["lost"], lost).bounds):
        assert bounds.dc_worst <= full.measured_dc() <= bounds.dc_best
        assert (bounds.safe_worst <= full.measured_safe_fraction()
                <= bounds.safe_best)


def test_quarantine_bounds_clean_campaign(serial):
    bounds = quarantine_bounds(serial, 0)
    assert bounds.clean
    assert bounds.dc_worst == bounds.dc_measured
    assert bounds.safe_best == pytest.approx(
        serial.measured_safe_fraction())


def test_render_campaign_health_lists_zones(serial):
    zone = serial.results[0].fault.zone
    anomalies = [
        FaultAnomaly(fault_name="hostile-raise:f0", zone=zone,
                     kind="exception", worker=123, attempts=1),
        FaultAnomaly(fault_name="hostile-crash:f1", zone=zone,
                     kind="crash", worker=124, attempts=3),
    ]
    text = render_campaign_health(serial, anomalies)
    assert zone in text
    assert "hostile-raise:f0" in text
    assert "worst-case DC" in text
    assert "Metric bounds under quarantine" in text


def test_render_campaign_health_clean(serial):
    text = render_campaign_health(serial, [])
    assert "clean" in text


# ----------------------------------------------------------------------
# CLI surface: exit codes, validation, store query
# ----------------------------------------------------------------------
def _run_cli(capsys, *argv):
    from repro.cli import main
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_exit_code_3_on_quarantine(capsys, tmp_path,
                                       monkeypatch):
    from repro.faultinjection.environment import InjectionEnvironment
    original = InjectionEnvironment.candidates

    def hostile(self, config=None):
        candidates = original(self, config)
        flop = self.circuit.flops[0].name
        faults = list(candidates.faults)
        faults.insert(7, HostileFault(
            target=flop, zone=faults[0].zone, mode="raise"))
        return CandidateList(faults=faults)

    monkeypatch.setattr(InjectionEnvironment, "candidates", hostile)
    code, out, _ = _run_cli(
        capsys, "campaign", "--variant", "small-improved",
        "--workers", "2", "--max-retries", "0",
        "--store", str(tmp_path / "store"))
    assert code == 3
    assert "Quarantined faults by zone" in out
    assert "hostile-raise" in out
    assert "worst-case DC" in out

    # the anomaly is queryable afterwards
    code, out, _ = _run_cli(
        capsys, "store", "query", "--run", "1",
        "--store", str(tmp_path / "store"))
    assert code == 0
    assert "quarantined faults" in out
    assert "hostile-raise" in out


def test_cli_clean_campaign_exits_zero(capsys, tmp_path):
    code, out, _ = _run_cli(
        capsys, "campaign", "--variant", "small-improved",
        "--workers", "2", "--store", str(tmp_path / "store"))
    assert code == 0
    assert "Quarantined" not in out


def test_cli_no_quarantine_aborts_with_code_1(capsys, tmp_path,
                                              monkeypatch):
    from repro.faultinjection.environment import InjectionEnvironment
    original = InjectionEnvironment.candidates

    def hostile(self, config=None):
        candidates = original(self, config)
        flop = self.circuit.flops[0].name
        faults = list(candidates.faults)
        faults.insert(0, HostileFault(
            target=flop, zone=faults[0].zone, mode="raise"))
        return CandidateList(faults=faults)

    monkeypatch.setattr(InjectionEnvironment, "candidates", hostile)
    code, _, err = _run_cli(
        capsys, "campaign", "--variant", "small-improved",
        "--workers", "2", "--max-retries", "0", "--no-quarantine",
        "--no-cache")
    assert code == 1
    assert "aborted" in err


def test_cli_rejects_invalid_stimuli(capsys, monkeypatch):
    import repro.faultinjection as fi
    original = fi.build_environment

    def broken(sub, **kw):
        env = original(sub, **kw)
        env.stimuli[1]["no_such_signal"] = 1
        return env

    monkeypatch.setattr(fi, "build_environment", broken)
    code, _, err = _run_cli(
        capsys, "campaign", "--variant", "small-improved",
        "--no-cache")
    assert code == 2
    assert "no_such_signal" in err
    assert "cycle 1" in err
