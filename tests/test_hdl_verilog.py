"""Tests for the structural Verilog writer/parser."""

import pytest

from repro.hdl import (
    Module,
    NetlistError,
    library,
    parse_verilog,
    roundtrip,
    write_verilog,
)
from repro.soc import MemorySubsystem, SubsystemConfig

from .simulator_oracle import Simulator


def sample_circuit():
    m = Module("dut")
    a = m.input("a", 4)
    b = m.input("b", 4)
    en = m.input("en")
    rst = m.input("rst")
    with m.scope("alu"):
        s, cout = library.ripple_add(m, a, b)
    q = m.reg("acc", s, en=en, rst=rst, init=3)
    m.output("sum", q)
    m.output("cout", cout)
    return m.build()


def test_write_contains_structure():
    text = write_verilog(sample_circuit())
    assert text.startswith("module dut (clk, a, b, en, rst, sum, cout);")
    assert "input [3:0] a;" in text
    assert "output [3:0] sum;" in text
    assert "DFFER" in text          # enable + reset flop cell
    assert "// path: alu" in text
    assert text.rstrip().endswith("endmodule")


def test_roundtrip_preserves_structure():
    circ = sample_circuit()
    back = roundtrip(circ)
    assert back.name == circ.name
    assert back.gate_count() == circ.gate_count()
    assert back.flop_count() == circ.flop_count()
    assert list(back.inputs) == list(circ.inputs)
    assert list(back.outputs) == list(circ.outputs)
    # hierarchy and flop metadata survive
    assert back.scopes() == circ.scopes()
    assert {f.init for f in back.flops} == {f.init for f in circ.flops}


def test_roundtrip_simulates_identically():
    circ = sample_circuit()
    back = roundtrip(circ)
    sa, sb = Simulator(circ), Simulator(back)
    stims = [{"a": 1, "b": 2, "en": 1, "rst": 0},
             {"a": 9, "b": 9, "en": 1, "rst": 0},
             {"a": 0, "b": 0, "en": 0, "rst": 0},
             {"a": 5, "b": 5, "en": 1, "rst": 1}]
    for stim in stims:
        sa.step_eval(stim)
        sb.step_eval(stim)
        assert sa.output("sum") == sb.output("sum")
        assert sa.output("cout") == sb.output("cout")
        sa.step_commit()
        sb.step_commit()


def test_roundtrip_with_memory():
    m = Module("memdut")
    addr = m.input("addr", 3)
    wd = m.input("wd", 4)
    we = m.input("we")
    with m.scope("core"):
        rd = m.memory("ram", 8, 4, addr, wd, we)
    m.output("rd", rd)
    circ = m.build()
    back = roundtrip(circ)
    assert len(back.memories) == 1
    mem = back.memories[0]
    assert mem.depth == 8 and mem.width == 4
    assert mem.name == "core/ram"

    sa, sb = Simulator(circ), Simulator(back)
    for stim in [{"addr": 2, "wd": 0xF, "we": 1},
                 {"addr": 2, "wd": 0, "we": 0},
                 {"addr": 2, "wd": 0, "we": 0}]:
        sa.step(stim)
        sb.step(stim)
    sa.step_eval({"addr": 2, "wd": 0, "we": 0})
    sb.step_eval({"addr": 2, "wd": 0, "we": 0})
    assert sa.output("rd") == sb.output("rd") == 0xF


def test_roundtrip_full_subsystem_zone_equivalence():
    """The interchange must preserve what the extraction tool needs."""
    sub = MemorySubsystem(SubsystemConfig.small_baseline())
    back = roundtrip(sub.circuit)
    from repro.zones import extract_zones
    zs_orig = extract_zones(sub.circuit, sub.extraction_config())
    zs_back = extract_zones(back, sub.extraction_config())
    assert {z.name for z in zs_orig.zones} == \
        {z.name for z in zs_back.zones}
    for zone in zs_orig.zones:
        assert zs_back.by_name(zone.name).cone_gates == zone.cone_gates


def test_parse_rejects_garbage():
    with pytest.raises(NetlistError):
        parse_verilog("this is not verilog")


def test_parse_bad_arity():
    text = """module bad (clk, y);
  output y;
  wire n0; // y
  AND2 g0 (n0);
endmodule
"""
    with pytest.raises(NetlistError, match="arity"):
        parse_verilog(text)
