"""Tests for the mini CPU and its lock-step protection."""

import pytest

from repro.faultinjection import (
    CampaignSpec,
    CampaignSupervisor,
    CandidateList,
    MemoryImageSetup,
    SeuFault,
    StuckNetFault,
)
from repro.soc.minicpu import (
    CpuConfig,
    MiniCpu,
    OP_LDI,
    assemble,
)
from repro.zones import ZoneKind, extract_zones


@pytest.fixture(scope="module")
def cpu():
    return MiniCpu(CpuConfig.plain())


@pytest.fixture(scope="module")
def lockstep():
    return MiniCpu(CpuConfig.lockstep_pair())


# ----------------------------------------------------------------------
# assembler
# ----------------------------------------------------------------------
def test_assemble_encodings():
    words = assemble([("nop",), ("ldi", 5), ("out",), 0xAB])
    assert words == [0x00, (OP_LDI << 5) | 5, 0b111_00000, 0xAB]


def test_assemble_rejects_bad_operand():
    with pytest.raises(ValueError):
        assemble([("ldi", 32)])


# ----------------------------------------------------------------------
# ISA semantics
# ----------------------------------------------------------------------
def test_ldi_and_out(cpu):
    _, outs = cpu.execute([("ldi", 21), ("out",), ("jnz", 2)],
                          cycles=30)
    assert outs[0] == 21


def test_store_and_load(cpu):
    prog = [("ldi", 9), ("st", 4), ("ldi", 0), ("ld", 4), ("out",),
            ("ldi", 1), ("jnz", 5)]
    _, outs = cpu.execute(prog, cycles=60)
    assert outs[0] == 9


def test_add(cpu):
    prog = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0), ("out",),
            ("ldi", 1), ("jnz", 5)]
    _, outs = cpu.execute(prog, cycles=60)
    assert outs[0] == 8


def test_xor(cpu):
    prog = [("ldi", 0b10101), ("st", 0), ("ldi", 0b01111),
            ("xor", 0), ("out",), ("ldi", 1), ("jnz", 5)]
    _, outs = cpu.execute(prog, cycles=60)
    assert outs[0] == 0b11010


def test_jnz_taken_and_not_taken(cpu):
    # ACC=0: fall through to OUT(0); then ACC=7 jumps over the trap
    prog = [("ldi", 0), ("jnz", 5), ("ldi", 7), ("jnz", 6),
            ("nop",), ("out",), ("out",), ("ldi", 1), ("jnz", 7)]
    _, outs = cpu.execute(prog, cycles=80)
    assert outs[0] == 7


def test_data_preload(cpu):
    prog = [("ld", 3), ("out",), ("ldi", 1), ("jnz", 2)]
    _, outs = cpu.execute(prog, data=[0, 0, 0, 42] + [0] * 28,
                          cycles=40)
    assert outs[0] == 42


def test_accumulating_loop(cpu):
    # sum 1..4 by looping: mem[1]=counter, mem[2]=sum... simplified:
    # repeatedly ADD a constant and OUT each value
    prog = [("ldi", 1), ("st", 1), ("ldi", 6), ("st", 2),
            ("ld", 2), ("out",), ("add", 1), ("st", 2),
            ("ld", 2), ("xor", 3), ("jnz", 4), ("out",)]
    _, outs = cpu.execute(prog, data=[0, 0, 0, 10] + [0] * 28,
                          cycles=220)
    assert outs[:5] == [6, 7, 8, 9, 0]


def test_wrong_coding_fault_changes_execution(cpu):
    """The IEC 'wrong coding or wrong execution' failure mode: a stuck
    opcode bit turns instructions into different ones."""
    sim = cpu.simulator([("ldi", 5), ("out",), ("ldi", 1),
                         ("jnz", 2)])
    rom = cpu.circuit.memories[0]
    golden = MiniCpu.run  # run the clean program elsewhere
    _, clean = cpu.execute([("ldi", 5), ("out",), ("ldi", 1),
                            ("jnz", 2)], cycles=40)
    sim.stick_net(rom.rdata[7], 0)  # opcode MSB stuck: OUT -> NOP/LDI
    corrupted = cpu.run(sim, 40)
    assert corrupted != clean
    _ = golden


# ----------------------------------------------------------------------
# lock-step behaviour
# ----------------------------------------------------------------------
PROG = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0), ("out",),
        ("ldi", 0), ("jnz", 0), ("out",)]


def test_lockstep_silent_when_healthy(lockstep):
    sim, outs = lockstep.execute(PROG, cycles=60)
    assert outs and outs[0] == 8
    assert sim.output("alarm_lockstep") == 0


def test_lockstep_catches_master_seu(lockstep):
    sim = lockstep.simulator(PROG)
    sim.schedule_flop_flip("core_a/acc[0]", cycle=8)
    outs = lockstep.run(sim, 60)
    assert sim.output("alarm_lockstep") == 1
    assert outs[0] != 8  # the corruption was real, and flagged


def test_lockstep_catches_checker_seu(lockstep):
    """Faults in the shadow core also flag (no silent checker death)."""
    sim = lockstep.simulator(PROG)
    sim.schedule_flop_flip("core_b/pc[1]", cycle=6)
    lockstep.run(sim, 60)
    assert sim.output("alarm_lockstep") == 1


def test_lockstep_alarm_sticky(lockstep):
    sim = lockstep.simulator(PROG)
    sim.schedule_flop_flip("core_a/acc[2]", cycle=8)
    lockstep.run(sim, 10)
    assert sim.output("alarm_lockstep") == 1
    for _ in range(30):            # keep running without a new reset
        sim.step(lockstep.idle())
    sim.step_eval(lockstep.idle())
    assert sim.output("alarm_lockstep") == 1


# ----------------------------------------------------------------------
# measured diagnostic coverage of lock-step (IEC table A.4: 'high')
# ----------------------------------------------------------------------
def _cpu_campaign(cpu, machines_zone_kind=ZoneKind.REGISTER):
    zone_set = extract_zones(cpu.circuit)
    stimuli = [cpu.idle(rst=1)] * 2 + [cpu.idle()] * 80
    faults = []
    core_a_flops = [f.name for f in cpu.circuit.flops
                    if f.name.startswith("core_a/")]
    zone_of = {}
    for zone in zone_set.of_kind(ZoneKind.REGISTER):
        for flop in zone.flops:
            zone_of[flop] = zone.name
    for i, flop in enumerate(core_a_flops):
        faults.append(SeuFault(target=flop, zone=zone_of[flop],
                               offset=6 + (i % 9)))
        faults.append(StuckNetFault(
            target=flop, zone=zone_of[flop], value=i % 2))
    spec = CampaignSpec.from_zone_set(
        cpu.circuit, stimuli, zone_set,
        setup=MemoryImageSetup(
            mem_images={"imem/rom": assemble(PROG)}))
    return CampaignSupervisor(spec, workers=1).run(
        CandidateList(faults=faults))


def test_lockstep_measured_dc_is_high(cpu, lockstep):
    plain = _cpu_campaign(cpu)
    protected = _cpu_campaign(lockstep)
    dc_plain = plain.measured_dc()
    dc_protected = protected.measured_dc()
    # IEC table A.4: HW redundancy with comparison is a 'high'
    # technique — the measurement must clearly dominate the bare core
    assert dc_plain < 0.5
    assert dc_protected > 0.9
