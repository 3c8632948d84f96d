"""Tests for X-propagation reset coverage and the fault dictionary."""

import pytest

from repro.faultinjection import (
    CampaignSupervisor,
    FaultDictionary,
    build_environment,
    signature_of,
)
from repro.hdl import Module, XSimulator, reset_coverage
from repro.soc import MemorySubsystem, SubsystemConfig


# ----------------------------------------------------------------------
# 3-valued simulation basics
# ----------------------------------------------------------------------
def test_x_blocks_through_and_or():
    m = Module("t")
    a = m.input("a", 1)
    q = m.declare_reg("u", 1)          # never reset: starts X
    m.connect_reg(q, q)
    m.output("and0", q & a)
    m.output("or1", q | ~a)
    circ = m.build()
    sim = XSimulator(circ)
    sim.step({"a": 0})
    # X & 0 = 0 (known), X | 1 = 1 (known)
    assert sim.values[circ.outputs["and0"][0]] == 0
    assert sim.values[circ.outputs["or1"][0]] == 1
    sim.step({"a": 1})
    # X & 1 = X, X | 0 = X
    assert sim.values[circ.outputs["and0"][0]] is None
    assert sim.values[circ.outputs["or1"][0]] is None


def test_reset_clears_reset_flops_only():
    m = Module("t")
    d = m.input("d", 1)
    en = m.input("en")
    rst = m.input("rst")
    with_rst = m.reg("ctrl", d, rst=rst, init=1)
    held = m.reg("data", d, en=en)   # holds its X while disabled
    m.output("y", with_rst & held)
    circ = m.build()
    report = reset_coverage(circ, [{"d": 0, "en": 0, "rst": 1}] * 2)
    assert "data" in report.unknown_after_reset
    assert "ctrl" not in report.unknown_after_reset


def test_x_exposed_at_output_detected():
    m = Module("t")
    rst = m.input("rst")
    u = m.declare_reg("u", 1)
    m.connect_reg(u, u)                 # uninitialized, held forever
    m.output("y", u)
    _ = rst
    circ = m.build()
    report = reset_coverage(circ, [{"rst": 1}] * 2, [{"rst": 0}] * 2)
    assert not report.clean
    assert report.x_reaching_outputs == ["y"]


def test_written_before_use_is_clean():
    m = Module("t")
    d = m.input("d", 2)
    en = m.input("en")
    rst = m.input("rst")
    valid = m.reg("valid", en, rst=rst)
    data = m.reg("data", d, en=en)      # no reset, gated by valid
    m.output("y", data & valid.repeat(2))
    circ = m.build()
    report = reset_coverage(
        circ, [{"d": 0, "en": 0, "rst": 1}] * 2,
        [{"d": 3, "en": 1, "rst": 0}, {"d": 3, "en": 0, "rst": 0}])
    assert not report.fully_initialized   # 'data' starts X
    assert report.clean                   # but X never escapes


def test_subsystem_reset_is_x_clean():
    """The §6 design's sign-off: un-reset datapath registers never
    expose X at an output."""
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    reset = [sub.reset_op() for _ in range(3)]
    check = [sub.write(2, 0x11), sub.idle(), sub.idle(),
             sub.read(2), sub.idle(), sub.idle(), sub.idle()]
    report = reset_coverage(sub.circuit, reset, check)
    assert not report.fully_initialized   # datapath regs are X...
    assert report.clean                   # ...and it doesn't matter


def test_mux_x_select_pessimism():
    m = Module("t")
    a = m.input("a", 1)
    u = m.declare_reg("u", 1)
    m.connect_reg(u, u)
    m.output("same", m.mux(u, a, a))     # folded: both arms same net
    b = m.input("b", 1)
    m.output("diff", m.mux(u, a, b))
    circ = m.build()
    sim = XSimulator(circ)
    sim.step({"a": 1, "b": 0})
    assert sim.values[circ.outputs["same"][0]] == 1   # arms agree
    assert sim.values[circ.outputs["diff"][0]] is None


# ----------------------------------------------------------------------
# fault dictionary
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dictionary():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    env = build_environment(sub, quick=True)
    campaign = CampaignSupervisor(env.spec(), workers=1).run(env.candidates())
    return campaign, FaultDictionary.build(campaign)


def test_signature_canonicalization():
    effects = {"alarm_ce": 9, "hrdata": 7}
    assert signature_of(effects) == ("alarm_ce", "hrdata")
    assert signature_of(effects, with_latency=True) == \
        ("hrdata", "alarm_ce")


def test_dictionary_statistics(dictionary):
    _, d = dictionary
    assert d.distinct_signatures > 10
    assert 0.0 < d.resolution() <= 1.0
    assert d.ambiguity() >= 1.0
    assert "fault dictionary" in d.summary()


def test_diagnose_ranks_true_zone_highly(dictionary):
    campaign, d = dictionary
    hits = 0
    total = 0
    for res in campaign.results:
        if not res.effects or res.fault.zone is None:
            continue
        total += 1
        candidates = d.diagnose(res.effects, top=5)
        if any(c.zone == res.fault.zone for c in candidates):
            hits += 1
    # the true zone appears among the top candidates most of the time
    assert total > 20
    assert hits / total > 0.75


def test_diagnose_unknown_signature_falls_back(dictionary):
    _, d = dictionary
    candidates = d.diagnose({"alarm_ce": 3})
    # subset matching still produces candidates
    assert candidates
    confidences = [c.confidence for c in candidates]
    assert confidences == sorted(confidences, reverse=True)


def test_diagnose_empty_effects(dictionary):
    _, d = dictionary
    # an empty picture matches everything — candidates exist but carry
    # little confidence
    candidates = d.diagnose({})
    assert isinstance(candidates, list)
