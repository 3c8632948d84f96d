"""Tests for workload generators, phases and the AHB master."""

import pytest

from repro.soc import (
    AhbMaster,
    MemorySubsystem,
    READ_LATENCY,
    SubsystemConfig,
    WRITE_GAP,
    Workload,
    app_profile,
    error_selftest,
    march_test,
    mpu_probe,
    random_traffic,
    scrub_exercise,
    startup_bist,
    validation_workload,
)
from repro.soc.workloads import Phase, bist_selftest

from .simulator_oracle import Simulator


@pytest.fixture(scope="module")
def sub():
    return MemorySubsystem(SubsystemConfig.small_improved())


def golden_run(sub, workload, watch=()):
    sim = sub.simulator()
    seen = {name: [] for name in watch}
    for op in workload:
        sim.step_eval(op)
        for name in watch:
            seen[name].append(sim.output(name))
        sim.step_commit()
    return sim, seen


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def test_phase_shifting():
    p = Phase("x", 3, 7, is_test=True)
    q = p.shifted(10)
    assert (q.start, q.end, q.is_test) == (13, 17, True)


def test_workload_concatenation_shifts_phases(sub):
    a = startup_bist(sub)
    b = march_test(sub, addresses=[0, 1])
    combined = a + b
    assert len(combined) == len(a) + len(b)
    assert len(combined.phases) == 2
    first, second = combined.phases
    assert first.start == 0 and first.end == len(a)
    assert second.start == len(a)
    assert second.end == len(combined)


def test_test_windows_cover_test_phases(sub):
    wl = validation_workload(sub, quick=True)
    windows = wl.test_windows()
    assert windows
    covered = sum(hi - lo for lo, hi in windows)
    assert 0 < covered <= len(wl)


def test_random_traffic_not_a_test_phase(sub):
    wl = random_traffic(sub, n_ops=5)
    assert wl.test_windows() == []


# ----------------------------------------------------------------------
# workload behaviours on the golden design
# ----------------------------------------------------------------------
def test_march_runs_clean(sub):
    wl = march_test(sub, addresses=range(4))
    sim, seen = golden_run(sub, wl, watch=("alarm_ue", "alarm_ce"))
    assert sum(seen["alarm_ue"]) == 0
    assert sum(seen["alarm_ce"]) == 0


def test_error_selftest_raises_ce_and_ue(sub):
    wl = error_selftest(sub)
    sim, seen = golden_run(sub, wl, watch=("alarm_ce", "alarm_ue"))
    assert sum(seen["alarm_ce"]) > 0     # every single-bit injection
    assert sum(seen["alarm_ue"]) > 0     # the final double injection


def test_error_selftest_walks_all_bits(sub):
    wl = error_selftest(sub)
    masks = {op["err_inject"] for op in wl if op.get("err_inject")}
    singles = {m for m in masks if m.bit_count() == 1}
    assert len(singles) == sub.cfg.word_bits


def test_bist_selftest_forces_fail(sub):
    wl = bist_selftest(sub)
    sim, seen = golden_run(sub, wl, watch=("alarm_bist", "bist_done"))
    assert seen["bist_done"][-1] == 1
    assert sum(seen["alarm_bist"]) > 0


def test_mpu_probe_blocks_and_allows(sub):
    wl = mpu_probe(sub)
    sim, seen = golden_run(sub, wl, watch=("alarm_mpu",))
    assert sum(seen["alarm_mpu"]) == sub.cfg.mpu_pages  # denied phase


def test_scrub_exercise_scans(sub):
    wl = scrub_exercise(sub, cycles=40)
    sim, _ = golden_run(sub, wl)
    value = sum(sim.flop_value(f"fmem/scrub/scan_cnt[{i}]") << i
                for i in range(sub.cfg.addr_bits))
    assert value > 0


def test_app_profile_exercises_mpu_and_scrub(sub):
    wl = app_profile(sub)
    sim, seen = golden_run(sub, wl, watch=("alarm_mpu",))
    assert sum(seen["alarm_mpu"]) > 0


def test_full_validation_workload_structure(sub):
    wl = validation_workload(sub, quick=False)
    names = [p.name for p in wl.phases]
    for expected in ("startup_bist", "march_c", "error_selftest",
                     "bist_selftest"):
        assert any(expected in n for n in names), expected


# ----------------------------------------------------------------------
# AHB master
# ----------------------------------------------------------------------
def test_master_write_gap_constant():
    assert WRITE_GAP >= 1
    assert READ_LATENCY == 2


def test_master_alarm_log(sub):
    master = AhbMaster(sub, mpu=0)
    master.reset()
    master.write(0, 1)
    assert ("alarm_mpu" in master.alarms_seen())
    assert all(isinstance(c, int) for c, _ in master.alarm_log)


def test_master_read_result_fields(sub):
    master = AhbMaster(sub)
    master.reset()
    master.write(2, 0x42)
    result = master.read(2)
    assert result.addr == 2
    assert result.valid
    assert result.data == 0x42
    assert set(result.alarms) == set(sub.alarm_outputs())
    assert not result.any_alarm


def test_master_bist_budget_exceeded():
    sub = MemorySubsystem(SubsystemConfig.small_baseline())
    master = AhbMaster(sub)
    master.reset()
    with pytest.raises(RuntimeError, match="BIST"):
        master.run_bist(max_cycles=3)


def test_workload_is_pure_data(sub):
    """Workloads must be replayable: plain dicts, no simulator state."""
    wl = validation_workload(sub, quick=True)
    sim1 = sub.simulator()
    sim2 = sub.simulator()
    for op in wl:
        assert isinstance(op, dict)
        sim1.step(op)
    for op in wl:
        sim2.step(op)
    for flop in range(len(sub.circuit.flops)):
        assert sim1._flop_state[flop] == sim2._flop_state[flop]


def test_address_decoder_test_catches_stuck_line(sub):
    """An address-line stuck-at between port mux and the array makes
    the marching-address read-back diverge from the golden run."""
    from repro.soc import address_decoder_test
    wl = address_decoder_test(sub)
    # golden vs faulty comparison through the parallel machines
    sim = Simulator(sub.circuit, machines=2)
    sub.preload_image()(sim)
    mem = sub.circuit.memories[0]
    sim.stick_net(mem.addr[1], 0, machines=1 << 1)
    diverged = False
    for op in wl:
        sim.step_eval(op)
        if sim.mismatch_mask(sub.circuit.outputs["hrdata"]):
            diverged = True
        sim.step_commit()
    assert diverged


def test_address_decoder_test_clean_on_healthy_array(sub):
    from repro.soc import address_decoder_test
    wl = address_decoder_test(sub)
    _, seen = golden_run(sub, wl, watch=("alarm_ue", "alarm_ce"))
    assert sum(seen["alarm_ue"]) == 0 and sum(seen["alarm_ce"]) == 0
