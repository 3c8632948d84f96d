"""Corner-case behavioural tests for the memory sub-system."""

import pytest

from repro.soc import AhbMaster, MemorySubsystem, SubsystemConfig


@pytest.fixture(scope="module")
def improved():
    return MemorySubsystem(SubsystemConfig.small_improved())


@pytest.fixture(scope="module")
def baseline():
    return MemorySubsystem(SubsystemConfig.small_baseline())


def master(sub, **kw):
    m = AhbMaster(sub, **kw)
    m.reset()
    return m


# ----------------------------------------------------------------------
# protocol corners
# ----------------------------------------------------------------------
def test_back_to_back_writes_same_address(improved):
    m = master(improved)
    m.write(5, 0x11, gap=2)
    m.write(5, 0x22, gap=2)
    m.write(5, 0x33, gap=2)
    assert m.read(5).data == 0x33


def test_interleaved_addresses(improved):
    m = master(improved)
    for i in range(8):
        m.write(i, i * 3 % 256)
    for i in reversed(range(8)):
        assert m.read(i).data == i * 3 % 256


def test_write_entire_address_space(improved):
    m = master(improved)
    for addr in range(improved.cfg.depth):
        m.write(addr, (addr * 7 + 1) & 0xFF)
    for addr in range(improved.cfg.depth):
        assert m.read(addr).data == (addr * 7 + 1) & 0xFF


def test_wraparound_data_values(improved):
    m = master(improved)
    ones = (1 << improved.cfg.data_bits) - 1
    for value in (0, 1, ones, ones - 1, 0x80):
        m.write(9, value)
        assert m.read(9).data == value


def test_read_unwritten_address_is_clean_zero(improved):
    """Preloaded background holds valid codewords for zero data."""
    m = master(improved)
    r = m.read(improved.cfg.depth - 1)
    assert r.data == 0
    assert not r.any_alarm


def test_rvalid_pulses_exactly_once_per_read(improved):
    sim = improved.simulator()
    ops = ([improved.reset_op()] * 2
           + [improved.write(1, 5)] + [improved.idle()] * 2
           + [improved.read(1)] + [improved.idle()] * 4)
    pulses = 0
    for op in ops:
        sim.step_eval(op)
        pulses += sim.output("rvalid")
        sim.step_commit()
    assert pulses == 1


def test_hrdata_zero_when_not_valid(improved):
    sim = improved.simulator()
    improved.preload_image({3: 0xAB})(sim)
    for op in [improved.reset_op()] * 2 + [improved.idle()] * 5:
        sim.step_eval(op)
        if not sim.output("rvalid"):
            assert sim.output("hrdata") == 0
        sim.step_commit()


# ----------------------------------------------------------------------
# scrub / traffic interactions
# ----------------------------------------------------------------------
def test_scrubber_yields_to_bus_traffic(improved):
    """Back-to-back traffic with scrub enabled must stay correct."""
    m = master(improved, scrub_en=1)
    payload = {a: (a * 13 + 7) & 0xFF for a in range(8)}
    for a, d in payload.items():
        m.write(a, d, gap=1)
    for a, d in payload.items():
        assert m.read(a).data == d


def test_scrub_does_not_corrupt_clean_memory(improved):
    m = master(improved, scrub_en=1)
    m.write(4, 0x77)
    image_before = [m.sim.read_mem_word("memarray/array", w)
                    for w in range(improved.cfg.depth)]
    m.idle(60)   # several full background scans
    image_after = [m.sim.read_mem_word("memarray/array", w)
                   for w in range(improved.cfg.depth)]
    assert image_before == image_after


def test_scrub_repairs_two_errors_in_sequence(improved):
    m = master(improved, scrub_en=1)
    m.write(2, 0x21)
    m.write(9, 0x43)
    for word, bit in ((2, 0), (9, 3)):
        m.sim.schedule_mem_flip("memarray/array", word, bit,
                                cycle=m.sim.cycle)
        m.read(word)       # CE -> repair scheduled
        m.idle(20)
    assert m.sim.read_mem_word("memarray/array", 2) == \
        improved.encode_word(0x21, 2)
    assert m.sim.read_mem_word("memarray/array", 9) == \
        improved.encode_word(0x43, 9)


def test_uncorrectable_error_not_scrub_written(improved):
    """A double error cannot be repaired: the scrubber must not write
    a bogus 'fix'."""
    m = master(improved, scrub_en=1)
    m.write(6, 0x0F)
    for bit in (0, 1):
        m.sim.schedule_mem_flip("memarray/array", 6, bit,
                                cycle=m.sim.cycle)
    r = m.read(6)          # flips land at the read; UE alarm
    assert r.alarms["alarm_ue"] == 1
    corrupted = m.sim.read_mem_word("memarray/array", 6)
    assert corrupted != improved.encode_word(0x0F, 6)
    m.idle(30)
    assert m.sim.read_mem_word("memarray/array", 6) == corrupted


# ----------------------------------------------------------------------
# BIST interactions
# ----------------------------------------------------------------------
def test_bist_trashes_then_traffic_recovers(baseline):
    m = master(baseline)
    assert m.run_bist() is True
    # after BIST the array holds raw patterns; normal writes recover
    m.write(3, 0x5C)
    assert m.read(3).data == 0x5C


def test_write_during_bist_held_in_buffer(baseline):
    """A bus write issued while BIST owns the port drains afterwards."""
    sim = baseline.simulator()
    ops = [baseline.reset_op()] * 2
    budget = 4 * baseline.cfg.depth + 32
    bist_ops = [baseline.idle(bist_run=1) for _ in range(budget)]
    bist_ops[5] = baseline.write(2, 0x5A, bist_run=1)
    ops += bist_ops + [baseline.idle()] * 4
    for op in ops:
        sim.step(op)
    # the buffered write drained once BIST released the port
    assert sim.read_mem_word("memarray/array", 2) == \
        baseline.encode_word(0x5A, 2)


def test_err_inject_zero_is_transparent(improved):
    a = master(improved)
    b = master(MemorySubsystem(SubsystemConfig.small_improved()))
    a.write(7, 0x2D)
    b.sim.set_input("err_inject", 0)
    b.write(7, 0x2D)
    assert a.read(7).data == b.read(7).data == 0x2D


# ----------------------------------------------------------------------
# MPU corners
# ----------------------------------------------------------------------
def test_mpu_reads_never_blocked(improved):
    m = master(improved, mpu=0)       # all pages write-protected
    r = m.read(0)
    assert r.valid                    # reads always proceed
    assert r.alarms["alarm_mpu"] == 0


def test_mpu_reconfiguration_takes_one_cycle(improved):
    m = master(improved, mpu=0)
    m.write(1, 0xEE)                  # blocked
    m.mpu = (1 << improved.cfg.mpu_pages) - 1
    m.idle(1)                         # config register latches
    m.write(1, 0xEE)                  # now allowed
    assert m.read(1).data == 0xEE
