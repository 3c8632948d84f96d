"""Unit tests for the bit-parallel simulator and its fault overlays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import (
    BRIDGE_AND,
    BRIDGE_DOMINANT,
    BRIDGE_OR,
    CompiledSimulator,
    Module,
    NetlistError,
    library,
)

from .simulator_oracle import Simulator


def xor_reg_circuit(width=4):
    m = Module("t")
    a = m.input("a", width)
    b = m.input("b", width)
    q = m.reg("q", a ^ b)
    m.output("y", q)
    return m.build()


# ----------------------------------------------------------------------
# machine semantics
# ----------------------------------------------------------------------
def test_golden_machine_matches_single():
    circ = xor_reg_circuit()
    s1 = Simulator(circ, machines=1)
    s8 = Simulator(circ, machines=8)
    for a, b in [(1, 2), (7, 7), (15, 0)]:
        s1.step({"a": a, "b": b})
        s8.step({"a": a, "b": b})
        s1.step_eval({"a": 0, "b": 0})
        s8.step_eval({"a": 0, "b": 0})
        assert s1.output("y") == s8.output("y", machine=0)
        for k in range(8):
            assert s8.output("y", machine=k) == s1.output("y")
        s1.step_commit()
        s8.step_commit()


def test_input_lane_override():
    circ = xor_reg_circuit()
    sim = Simulator(circ, machines=2)
    sim.set_input("a", 0b0011)
    sim.set_input("b", 0)
    sim.set_input_lane("a", 1, 0b0101)
    sim.eval_comb()
    sim.clock_edge()
    sim.eval_comb()
    assert sim.output("y", machine=0) == 0b0011
    assert sim.output("y", machine=1) == 0b0101


def test_mismatch_mask_excludes_golden():
    circ = xor_reg_circuit()
    sim = Simulator(circ, machines=4)
    sim.stick_net(circ.outputs["y"][0], 1, machines=0b1010)
    sim.step_eval({"a": 0, "b": 0})
    mask = sim.mismatch_mask(circ.outputs["y"])
    assert mask == 0b1010


# ----------------------------------------------------------------------
# fault overlays
# ----------------------------------------------------------------------
def test_stuck_net_per_machine():
    circ = xor_reg_circuit()
    sim = Simulator(circ, machines=3)
    q0 = circ.find_net("q[0]")
    sim.stick_net(q0, 1, machines=1 << 2)
    sim.step({"a": 0, "b": 0})
    sim.step_eval({"a": 0, "b": 0})
    assert sim.output("y", machine=0) == 0
    assert sim.output("y", machine=2) == 1


def test_stuck_overrides_both_polarities():
    circ = xor_reg_circuit()
    sim = Simulator(circ, machines=3)
    net = circ.find_net("q[1]")
    sim.stick_net(net, 0, machines=1 << 1)
    sim.stick_net(net, 1, machines=1 << 2)
    sim.step({"a": 0b10, "b": 0})
    sim.step_eval({"a": 0, "b": 0})
    assert sim.output("y", machine=0) == 0b10
    assert sim.output("y", machine=1) == 0b00
    assert sim.output("y", machine=2) == 0b10


def test_flop_flip_is_transient():
    circ = xor_reg_circuit()
    sim = Simulator(circ, machines=2)
    sim.schedule_flop_flip("q[0]", cycle=2, machines=1 << 1)
    values = []
    for cycle in range(4):
        sim.step_eval({"a": 0, "b": 0})
        values.append((sim.output("y", 0), sim.output("y", 1)))
        sim.step_commit()
    assert values[2] == (0, 1)      # flipped at cycle 2
    assert values[3] == (0, 0)      # reloaded from clean datapath


def test_net_glitch_single_cycle():
    m = Module("t")
    a = m.input("a", 1)
    y = (a ^ a)  # folds to const0... use real gate instead
    y = a & m.input("b", 1)
    q = m.reg("q", y)
    m.output("q", q)
    circ = m.build()
    sim = Simulator(circ, machines=2)
    target = circ.gates[-1].out
    sim.schedule_net_glitch(target, cycle=1, machines=1 << 1)
    sim.step({"a": 0, "b": 0})          # cycle 0
    sim.step({"a": 0, "b": 0})          # cycle 1: glitch captured
    sim.step_eval({"a": 0, "b": 0})
    assert sim.flop_value("q", machine=1) == 1
    assert sim.flop_value("q", machine=0) == 0


def test_bridge_modes():
    m = Module("t")
    a = m.input("a", 1)
    b = m.input("b", 1)
    ga = a & m.const(1, 1)  # folds: use explicit gates via xor const0
    ga = a ^ m.input("pad1", 1)
    gb = b ^ m.input("pad2", 1)
    m.output("ya", ga)
    m.output("yb", gb)
    circ = m.build()
    for mode, expected in [(BRIDGE_DOMINANT, 1), (BRIDGE_AND, 0),
                           (BRIDGE_OR, 1)]:
        sim = Simulator(circ, machines=2)
        sim.add_bridge(circ.outputs["ya"][0], circ.outputs["yb"][0],
                       mode=mode, machines=1 << 1)
        sim.step_eval({"a": 1, "b": 0, "pad1": 0, "pad2": 0})
        assert sim.output("yb", machine=0) == 0
        assert sim.output("yb", machine=1) == expected


@pytest.mark.parametrize("sim_class", [Simulator, CompiledSimulator])
def test_bridge_repass_keeps_source_glitches_lane_isolated(sim_class):
    """A SET on a primary input reads the same whether or not another
    lane of the pass carries a bridge: the bridge re-pass must not
    apply the source glitch a second time (which would cancel it)."""
    m = Module("t")
    a, b, c, d = (m.input(name) for name in "abcd")
    m.output("y", a & b)
    m.output("z", c | d)
    circ = m.build()
    stim = {"a": 0, "b": 1, "c": 0, "d": 0}
    for bridged in (False, True):
        sim = sim_class(circ, machines=3)
        sim.schedule_net_glitch(circ.inputs["a"][0], 0, machines=1 << 1)
        if bridged:
            sim.add_bridge(circ.inputs["c"][0], circ.outputs["z"][0],
                           machines=1 << 2)
        sim.step_eval(stim)
        assert sim.output("y", machine=1) == 1, bridged
        assert sim.output("y", machine=0) == 0


def test_clear_faults():
    circ = xor_reg_circuit()
    sim = Simulator(circ, machines=2)
    sim.stick_net(circ.outputs["y"][0], 1, machines=2)
    sim.clear_faults()
    sim.step_eval({"a": 0, "b": 0})
    assert sim.mismatch_mask(circ.outputs["y"]) == 0


# ----------------------------------------------------------------------
# memory engine
# ----------------------------------------------------------------------
def mem_circuit(depth=8, width=4):
    m = Module("t")
    addr = m.input("addr", 3)
    wd = m.input("wd", width)
    we = m.input("we", 1)
    rd = m.memory("ram", depth, width, addr, wd, we)
    m.output("rd", rd)
    return m.build()


def test_memory_read_before_write():
    circ = mem_circuit()
    sim = Simulator(circ)
    sim.load_mem("ram", [0xA] + [0] * 7)
    # write 0x5 at address 0 while reading it: rdata gets the old value
    sim.step({"addr": 0, "wd": 0x5, "we": 1})
    sim.step_eval({"addr": 0, "wd": 0, "we": 0})
    assert sim.output("rd") == 0xA
    sim.step_commit()
    sim.step_eval({"addr": 0, "wd": 0, "we": 0})
    sim.step_commit()
    sim.step_eval({"addr": 0, "wd": 0, "we": 0})
    assert sim.output("rd") == 0x5


def test_memory_divergent_addresses():
    """Machines reading different addresses (address-line fault)."""
    circ = mem_circuit()
    sim = Simulator(circ, machines=2)
    sim.load_mem("ram", [0x1, 0x2] + [0] * 6)
    addr0 = circ.inputs["addr"][0]
    sim.stick_net(addr0, 0, machines=1 << 1)  # machine 1 reads addr&~1
    sim.step({"addr": 1, "wd": 0, "we": 0})
    sim.step_eval({"addr": 1, "wd": 0, "we": 0})
    assert sim.output("rd", machine=0) == 0x2
    assert sim.output("rd", machine=1) == 0x1


def test_memory_divergent_write():
    circ = mem_circuit()
    sim = Simulator(circ, machines=2)
    we = circ.inputs["we"][0]
    sim.stick_net(we, 0, machines=1 << 1)  # machine 1 never writes
    sim.step({"addr": 3, "wd": 0xF, "we": 1})
    assert sim.read_mem_word("ram", 3, machine=0) == 0xF
    assert sim.read_mem_word("ram", 3, machine=1) == 0
    assert sim.mem_word_mismatch("ram", 3) == 0b10


def test_memory_cell_stuck():
    circ = mem_circuit()
    sim = Simulator(circ, machines=2)
    sim.set_mem_cell_stuck("ram", 2, 0, value=1, machines=1 << 1)
    sim.step({"addr": 2, "wd": 0, "we": 1})
    sim.step({"addr": 2, "wd": 0, "we": 0})
    sim.step_eval({"addr": 2, "wd": 0, "we": 0})
    assert sim.output("rd", machine=0) == 0
    assert sim.output("rd", machine=1) == 1


def test_memory_soft_error_flip():
    circ = mem_circuit()
    sim = Simulator(circ)
    sim.load_mem("ram", [0] * 8)
    sim.schedule_mem_flip("ram", 4, 2, cycle=1)
    sim.step({"addr": 4, "wd": 0, "we": 0})  # cycle 0
    sim.step({"addr": 4, "wd": 0, "we": 0})  # cycle 1: flip applied
    assert sim.read_mem_word("ram", 4) == 0b100


def test_memory_coupling_fault():
    circ = mem_circuit()
    sim = Simulator(circ, machines=2)
    sim.add_mem_coupling("ram", aggressor=(1, 0), victim=(2, 3),
                         machines=1 << 1)
    sim.step({"addr": 1, "wd": 1, "we": 1})  # aggressor bit 0 rises
    assert sim.read_mem_word("ram", 2, machine=1) == 0b1000
    assert sim.read_mem_word("ram", 2, machine=0) == 0


# ----------------------------------------------------------------------
# toggle collection
# ----------------------------------------------------------------------
def test_toggle_collection_golden():
    circ = xor_reg_circuit(2)
    sim = Simulator(circ, collect_toggles=True)
    sim.step({"a": 0, "b": 0})
    cov_before = sim.toggle_coverage()
    sim.step({"a": 3, "b": 0})
    sim.step({"a": 0, "b": 3})
    sim.step({"a": 0, "b": 0})
    sim.step({"a": 0, "b": 0})
    assert sim.toggle_coverage() > cov_before
    assert sim.toggle_coverage() == 1.0
    assert sim.untoggled_nets() == []


def test_toggle_any_machine_mode():
    circ = xor_reg_circuit(1)
    sim = Simulator(circ, machines=2, collect_toggles=True,
                    toggle_any_machine=True)
    q = circ.find_net("q")
    sim.stick_net(q, 1, machines=1 << 1)  # only the faulty machine sees 1
    sim.step({"a": 0, "b": 0})
    sim.step({"a": 0, "b": 0})
    toggled, total = sim.toggle_report()
    # q toggles thanks to the faulty machine
    assert sim._seen0[q] and sim._seen1[q]


# ----------------------------------------------------------------------
# misc
@pytest.mark.parametrize("word", [-1, 8])
def test_memory_faults_outside_the_array_raise_at_arming(word):
    """The clock edge and the campaign's SENS probes index memory cells
    without bounds checks, so every memory fault checks its cell when
    it is armed: a negative word must not wrap to the last one."""
    sim = CompiledSimulator(mem_circuit(), machines=2)
    with pytest.raises(IndexError):
        sim.schedule_mem_flip("ram", word, 0, cycle=1)
    with pytest.raises(IndexError):
        sim.set_mem_cell_stuck("ram", word, 0, value=1)
    with pytest.raises(IndexError):
        sim.add_mem_coupling("ram", aggressor=(word, 0), victim=(1, 0))
    with pytest.raises(IndexError):
        sim.add_mem_coupling("ram", aggressor=(1, 0), victim=(word, 0))
    with pytest.raises(IndexError):
        sim.schedule_mem_flip("ram", 0, 4, cycle=1)
    assert not sim._mem_flips


def _reg_and_ram():
    """One register and one memory, so every id kind has items."""
    m = Module("t")
    addr = m.input("addr", 3)
    m.output("q", m.reg("r", addr))
    m.output("rd", m.memory("ram", 8, 4, addr, m.input("wd", 4),
                            m.input("we", 1)))
    return m.build()


#: one fault per id kind, armed on the id under test
ARM_BY_ID = {
    "net": [lambda sim, i: sim.stick_net(i, 1, machines=[1]),
            lambda sim, i: sim.schedule_net_glitch(i, cycle=0),
            lambda sim, i: sim.add_bridge(i, 0),
            lambda sim, i: sim.add_bridge(0, i)],
    "flop": [lambda sim, i: sim.schedule_flop_flip(i, cycle=0),
             lambda sim, i: sim.set_flop(i, 1)],
    "memory": [lambda sim, i: sim.schedule_mem_flip(i, 0, 0, cycle=0),
               lambda sim, i: sim.set_mem_cell_stuck(i, 0, 0, value=1),
               lambda sim, i: sim.add_mem_coupling(i, (0, 0), (1, 0))],
}


@pytest.mark.parametrize("engine", [CompiledSimulator, Simulator])
@pytest.mark.parametrize("kind", sorted(ARM_BY_ID))
def test_integer_ids_outside_the_circuit_raise_at_arming(engine, kind):
    """An integer id is checked when a fault is armed: -1 must not wrap
    to the last net, flop or memory, and one past the end must not
    wait for the first evaluation to fail.  The compiled kernel's C
    loop reads the fault tables built from these ids unchecked."""
    circ = _reg_and_ram()
    count = {"net": circ.num_nets, "flop": len(circ.flops),
             "memory": len(circ.memories)}[kind]
    for arm in ARM_BY_ID[kind]:
        for bad in (-1, count):
            sim = engine(circ, machines=2)
            with pytest.raises(NetlistError,
                               match=rf"{kind} id {bad} .* {count} "):
                arm(sim, bad)
            sim.step({"addr": 1, "wd": 2, "we": 1})
            # nothing was armed: machine 1 still equals machine 0
            assert sim.mismatch_mask(range(circ.num_nets)) == 0
        arm(engine(circ, machines=2), count - 1)


def test_mismatch_helpers_reject_ids_outside_the_circuit():
    """``mismatch_mask`` and ``flop_state_mismatch`` range-check an
    integer array in one step and resolve any other sequence id by
    id; both refuse an id outside the circuit."""
    circ = _reg_and_ram()
    sim = CompiledSimulator(circ, machines=2)
    sim.step({"addr": 1, "wd": 2, "we": 1})
    helpers = {"net": (sim.mismatch_mask, circ.num_nets),
               "flop": (sim.flop_state_mismatch, len(circ.flops))}
    for kind, (helper, count) in helpers.items():
        for ids, bad in (([0, count], count), ([-1], -1),
                         (np.array([0, count]), count),
                         (np.array([-1, 0]), -1)):
            with pytest.raises(NetlistError,
                               match=rf"{kind} id {bad} .* {count} "):
                helper(ids)
        assert helper(np.arange(count)) == helper(list(range(count))) \
            == 0
    with pytest.raises(NetlistError):
        sim.flop_state_mismatch(["missing_flop"])


# ----------------------------------------------------------------------
def test_unknown_names_raise():
    circ = xor_reg_circuit()
    sim = Simulator(circ)
    with pytest.raises(NetlistError):
        sim.set_input("nope", 1)
    with pytest.raises(NetlistError):
        sim.peek("missing_net")
    with pytest.raises(NetlistError):
        sim.schedule_flop_flip("missing_flop", cycle=0)


def test_machine_count_validation():
    with pytest.raises(ValueError):
        Simulator(xor_reg_circuit(), machines=0)


@given(st.integers(0, 15), st.integers(0, 15), st.integers(1, 8))
@settings(max_examples=25)
def test_parallel_machines_independent(a, b, machines):
    """Untouched machines always agree with machine 0."""
    circ = xor_reg_circuit()
    sim = Simulator(circ, machines=machines)
    sim.step({"a": a, "b": b})
    sim.step_eval({"a": 0, "b": 0})
    for k in range(machines):
        assert sim.output("y", machine=k) == a ^ b


def test_counter_rollover():
    m = Module("t")
    cnt = library.counter(m, "c", 3)
    m.output("c", cnt)
    sim = Simulator(m.build())
    seen = []
    for _ in range(10):
        sim.step_eval({})
        seen.append(sim.output("c"))
        sim.step_commit()
    assert seen == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]
