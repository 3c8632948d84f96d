"""Smoke tests for the HDL substrate (expanded per-module tests live in
test_hdl_netlist / test_hdl_builder / test_hdl_simulator)."""

from repro.hdl import Module, library, roundtrip

from .simulator_oracle import Simulator


def build_toy():
    m = Module("toy")
    a = m.input("a", 4)
    b = m.input("b", 4)
    rst = m.input("rst")
    with m.scope("dp"):
        s, carry = library.ripple_add(m, a, b)
        q = m.reg("acc", s, rst=rst)
    m.output("sum", q)
    m.output("cout", carry)
    return m.build()


def test_build_and_simulate():
    circ = build_toy()
    assert circ.gate_count() > 0
    assert circ.flop_count() == 4
    sim = Simulator(circ)
    sim.step({"a": 3, "b": 5, "rst": 0})
    # register captured 8 at the edge; visible after next eval
    sim.step({"a": 0, "b": 0, "rst": 0})
    assert sim.output("sum") == 8


def test_counter_and_memory():
    m = Module("memtoy")
    en = m.input("en")
    wdata = m.input("wdata", 8)
    we = m.input("we")
    addr = library.counter(m, "addr", 3, en=en)
    rdata = m.memory("ram", 8, 8, addr, wdata, we)
    m.output("rdata", rdata)
    m.output("addr", addr)
    circ = m.build()
    sim = Simulator(circ)
    # write 0xAB at address 0
    sim.step({"en": 0, "wdata": 0xAB, "we": 1})
    sim.step({"en": 0, "wdata": 0, "we": 0})
    sim.step({"en": 0, "wdata": 0, "we": 0})
    assert sim.output("rdata") == 0xAB
    assert sim.read_mem_word("ram", 0) == 0xAB


def test_parallel_fault_machines():
    circ = build_toy()
    sim = Simulator(circ, machines=3)
    # machine 1: stuck-at-0 on the acc[0] flop output
    q0 = circ.find_net("dp/acc[0]")
    sim.stick_net(q0, 0, machines=1 << 1)
    sim.step({"a": 1, "b": 0, "rst": 0})
    sim.step({"a": 0, "b": 0, "rst": 0})
    assert sim.output("sum", machine=0) == 1
    assert sim.output("sum", machine=1) == 0
    assert sim.output("sum", machine=2) == 1
    mism = sim.mismatch_mask(circ.outputs["sum"])
    assert mism == 1 << 1


def test_verilog_roundtrip():
    circ = build_toy()
    back = roundtrip(circ)
    assert back.gate_count() == circ.gate_count()
    assert back.flop_count() == circ.flop_count()
    sim_a, sim_b = Simulator(circ), Simulator(back)
    for stim in [{"a": 2, "b": 7, "rst": 0}, {"a": 9, "b": 9, "rst": 0},
                 {"a": 1, "b": 1, "rst": 1}]:
        sim_a.step(stim)
        sim_b.step(stim)
        assert sim_a.output("sum") == sim_b.output("sum")
