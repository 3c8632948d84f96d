"""Tests for sensible-zone extraction, cones, classification, effects."""

import pytest

from repro.faultinjection.validation import WIDE_FAULT_PAIRS
from repro.hdl import Module, library
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.zones import (
    ExtractionConfig,
    FaultClass,
    FaultClassifier,
    ObservationKind,
    ZoneKind,
    extract_zones,
    correlate_zones,
    predict_effects_table,
)

from .graph_oracle import ConeAnalyzer, EffectPredictor


def build_pipeline_circuit():
    """in -> comb -> stage1 -> comb -> stage2 -> out, plus alarm logic."""
    m = Module("pipe")
    a = m.input("a", 4)
    b = m.input("b", 4)
    with m.scope("front"):
        s1 = m.reg("stage1", a ^ b)
    with m.scope("back"):
        s2 = m.reg("stage2", s1 & a)
        bad = s2.reduce_or()
    m.output("y", s2)
    m.output("alarm_any", bad)
    return m.build()


@pytest.fixture(scope="module")
def pipe_zones():
    return extract_zones(build_pipeline_circuit())


def test_register_zones_found(pipe_zones):
    regs = pipe_zones.of_kind(ZoneKind.REGISTER)
    names = {z.name for z in regs}
    assert "front/stage1" in names
    assert "back/stage2" in names
    for z in regs:
        assert z.size_bits == 4
        assert len(z.flops) == 4


def test_port_zones(pipe_zones):
    names = {z.name for z in pipe_zones.zones}
    assert "pi:a" in names and "po:y" in names


def test_observation_points_alarm_classified(pipe_zones):
    diag = pipe_zones.diagnostic_points()
    assert [p.name for p in diag] == ["alarm_any"]
    assert diag[0].kind is ObservationKind.ALARM
    funcs = {p.name for p in pipe_zones.functional_points()}
    assert "y" in funcs


def test_cone_statistics(pipe_zones):
    s1 = pipe_zones.by_name("front/stage1")
    assert s1.cone_gates == 4  # four XOR gates
    s2 = pipe_zones.by_name("back/stage2")
    assert s2.cone_gates == 4  # four AND gates
    assert s2.cone_depth >= 1


def test_subblock_zones(pipe_zones):
    blocks = {z.name for z in pipe_zones.of_kind(ZoneKind.SUBBLOCK)}
    assert "block:front" in blocks and "block:back" in blocks


def test_register_slicing():
    m = Module("wide")
    d = m.input("d", 16)
    q = m.reg("big", d)
    m.output("q", q)
    zs = extract_zones(m.build(),
                       ExtractionConfig(register_slice_bits=4),
                       analyze_cones=False)
    regs = zs.of_kind(ZoneKind.REGISTER)
    assert len(regs) == 4
    assert all(z.size_bits == 4 for z in regs)


def test_memory_region_zones():
    m = Module("memz")
    addr = m.input("addr", 5)
    wdata = m.input("wdata", 8)
    we = m.input("we")
    rdata = m.memory("ram", 32, 8, addr, wdata, we)
    m.output("rdata", rdata)
    zs = extract_zones(m.build(),
                       ExtractionConfig(memory_words_per_zone=8),
                       analyze_cones=False)
    mems = zs.of_kind(ZoneKind.MEMORY)
    assert len(mems) == 4
    assert mems[0].mem_words == (0, 7)
    assert mems[0].size_bits == 64


def test_critical_net_detection():
    m = Module("crit")
    en = m.input("en")
    d = m.input("d", 30)
    q = m.reg("r", d, en=en)  # enable fans out to 30 flops
    m.output("q", q)
    zs = extract_zones(m.build(), ExtractionConfig(critical_fanout=24),
                       analyze_cones=False)
    crit = zs.of_kind(ZoneKind.CRITICAL_NET)
    assert any("en" in z.name for z in crit)


# ----------------------------------------------------------------------
# cones
# ----------------------------------------------------------------------
def test_cone_boundary_stops_at_registers():
    circ = build_pipeline_circuit()
    analyzer = ConeAnalyzer(circ)
    zs = extract_zones(circ)
    s2 = zs.by_name("back/stage2")
    cone = zs.cones[s2.name]
    boundary_names = {circ.net_names[n] for n in cone.boundary_nets}
    # stage2's cone must stop at stage1's q pins, not reach back to b
    assert any("stage1" in n for n in boundary_names)
    assert not any(n.startswith("b[") for n in boundary_names)


def test_zone_correlation_shared_logic():
    m = Module("shared")
    a = m.input("a", 4)
    b = m.input("b", 4)
    common = a & b  # shared by both registers
    q1 = m.reg("r1", common ^ a)
    q2 = m.reg("r2", common | b)
    m.output("y1", q1)
    m.output("y2", q2)
    zs = extract_zones(m.build())
    pairs = dict(zs.correlation.correlated_pairs())
    assert any({"r1", "r2"} <= set(pair) or ("r1", "r2") == pair
               for pair in pairs)
    assert zs.correlation.wide_gate_count >= 4  # the four AND gates


def test_correlated_pairs_do_not_depend_on_zone_order():
    """Pairs sharing as many gates sort by name, so the pairs step d
    bridges do not depend on how the cones were collected."""
    zs = MemorySubsystem(SubsystemConfig.small_baseline()).extract_zones()
    pairs = zs.correlation.correlated_pairs()
    # step d's cut falls inside a tie on this design
    counts = [n for _, n in pairs]
    assert counts[WIDE_FAULT_PAIRS - 1] == counts[WIDE_FAULT_PAIRS]
    zs.cones = dict(reversed(zs.cones.items()))
    assert correlate_zones(zs.cones).correlated_pairs() == pairs


# ----------------------------------------------------------------------
# local / wide / global classification
# ----------------------------------------------------------------------
def test_fault_classification():
    m = Module("cls")
    a = m.input("a", 8)
    shared_gate = a[0] & a[1]             # one gate feeding two cones
    q1 = m.reg("r1", a[0:4] ^ shared_gate.repeat(4))
    q2 = m.reg("r2", a[4:8] ^ shared_gate.repeat(4))
    q3 = m.reg("r3", a[0:4] | a[4:8])     # private cone
    m.output("y", m.cat(q1, q2, q3))
    circ = m.build()
    zs = extract_zones(circ)
    classifier = FaultClassifier(zs, global_fraction=0.9)

    # an OR gate sits only in r3's cone -> local
    or_gates = [i for i, g in enumerate(circ.gates)
                if g.op_name == "or"]
    extent = classifier.classify_gate(or_gates[0])
    assert extent.fault_class is FaultClass.LOCAL
    assert extent.zones == ("r3",)

    # the AND gate feeds both r1 and r2 -> wide (multiple failures)
    and_gates = [i for i, g in enumerate(circ.gates)
                 if g.op_name == "and"]
    extent = classifier.classify_gate(and_gates[0])
    assert extent.fault_class is FaultClass.WIDE
    assert set(extent.zones) == {"r1", "r2"}

    census = classifier.census()
    assert census["wide"] >= 1


def test_global_net_designation():
    circ = build_pipeline_circuit()
    zs = extract_zones(circ)
    classifier = FaultClassifier(zs, global_nets=("a[0]",))
    extent = classifier.classify_net("a[0]")
    assert extent.fault_class is FaultClass.GLOBAL


def test_net_feeding_a_memory_port_belongs_to_the_memory_zone():
    m = Module("ram")
    addr = m.input("addr", 2)
    wdata = m.input("wdata", 4)
    we = m.input("we")
    rdata = m.memory("ram", 4, 4, addr, wdata, we)
    m.output("y", m.reg("r", rdata))
    circ = m.build()
    zs = extract_zones(circ)
    (ram,) = zs.of_kind(ZoneKind.MEMORY)
    extent = FaultClassifier(zs).classify_net(circ.inputs["wdata"][0])
    assert extent.zones == ("pi:wdata", ram.name)
    assert extent.fault_class is FaultClass.WIDE


# ----------------------------------------------------------------------
# effect prediction
# ----------------------------------------------------------------------
def test_main_and_secondary_effects():
    circ = build_pipeline_circuit()
    zs = extract_zones(circ)
    table = predict_effects_table(zs)

    s1 = table["front/stage1"]
    # stage1 feeds stage2 which feeds both y and alarm_any
    assert s1.main is not None
    assert s1.reaches("y") and s1.reaches("alarm_any")
    # the main effect needs one register crossing (stage2)
    assert s1.main.distance == 1

    s2 = table["back/stage2"]
    assert s2.main.distance == 0  # direct combinational path to outputs
    assert {e.observation for e in s2.effects} == {"y", "alarm_any"}


def test_effect_ordering_main_first():
    circ = build_pipeline_circuit()
    zs = extract_zones(circ)
    predictor = EffectPredictor(circ, zs.observation_points)
    eff = predictor.predict(zs.by_name("pi:a"))
    dists = [e.distance for e in eff.effects]
    assert dists == sorted(dists)
    assert eff.effects[0].is_main
    assert all(not e.is_main for e in eff.effects[1:])


def test_unreachable_zone_has_no_effects():
    m = Module("dead")
    a = m.input("a", 2)
    q = m.reg("sink", a)   # register feeds nothing
    m.output("y", m.input("b", 2))
    _ = q
    circ = m.build()
    zs = extract_zones(circ)
    table = predict_effects_table(zs)
    assert table["sink"].effects == []
