"""Tests for the structural component generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import Module, NetlistError, library

from .simulator_oracle import Simulator


def build_and_sim(build):
    m = Module("t")
    build(m)
    return Simulator(m.build())


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 1))
@settings(max_examples=40)
def test_ripple_add(a, b, cin):
    m = Module("t")
    va, vb = m.input("a", 8), m.input("b", 8)
    vcin = m.input("cin", 1)
    s, cout = library.ripple_add(m, va, vb, vcin)
    m.output("s", s)
    m.output("cout", cout)
    sim = Simulator(m.build())
    sim.step_eval({"a": a, "b": b, "cin": cin})
    total = a + b + cin
    assert sim.output("s") == total & 0xFF
    assert sim.output("cout") == total >> 8


@given(st.integers(0, 255))
@settings(max_examples=30)
def test_increment(a):
    m = Module("t")
    va = m.input("a", 8)
    s, carry = library.increment(m, va)
    m.output("s", s)
    m.output("c", carry)
    sim = Simulator(m.build())
    sim.step_eval({"a": a})
    assert sim.output("s") == (a + 1) & 0xFF
    assert sim.output("c") == (a + 1) >> 8


def test_ripple_add_width_mismatch():
    m = Module("t")
    with pytest.raises(NetlistError):
        library.ripple_add(m, m.input("a", 4), m.input("b", 5))


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def test_counter_wrap_at():
    m = Module("t")
    cnt = library.counter(m, "c", 3, wrap_at=5)
    m.output("c", cnt)
    sim = Simulator(m.build())
    seen = []
    for _ in range(8):
        sim.step_eval({})
        seen.append(sim.output("c"))
        sim.step_commit()
    assert seen == [0, 1, 2, 3, 4, 0, 1, 2]


def test_counter_with_enable():
    m = Module("t")
    en = m.input("en", 1)
    cnt = library.counter(m, "c", 4, en=en)
    m.output("c", cnt)
    sim = Simulator(m.build())
    sim.step({"en": 1})
    sim.step({"en": 0})
    sim.step({"en": 0})
    sim.step_eval({"en": 1})
    assert sim.output("c") == 1  # held while disabled


# ----------------------------------------------------------------------
# decode / compare / select
# ----------------------------------------------------------------------
@given(st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=30)
def test_equals_const(v, const):
    m = Module("t")
    vec = m.input("v", 4)
    m.output("eq", library.equals_const(m, vec, const))
    sim = Simulator(m.build())
    sim.step_eval({"v": v})
    assert sim.output("eq") == int(v == const)


@given(st.integers(0, 7))
@settings(max_examples=20)
def test_decoder_onehot(sel):
    m = Module("t")
    vs = m.input("s", 3)
    m.output("hot", library.decoder(m, vs))
    sim = Simulator(m.build())
    sim.step_eval({"s": sel})
    assert sim.output("hot") == 1 << sel


@given(st.integers(0, 3), st.lists(st.integers(0, 255), min_size=4,
                                   max_size=4))
@settings(max_examples=25)
def test_mux_many(sel, options):
    m = Module("t")
    vs = m.input("s", 2)
    opts = [m.const(v, 8) for v in options]
    m.output("y", library.mux_many(m, vs, opts))
    sim = Simulator(m.build())
    sim.step_eval({"s": sel})
    assert sim.output("y") == options[sel]


def test_mux_many_non_power_of_two():
    m = Module("t")
    vs = m.input("s", 2)
    opts = [m.const(v, 4) for v in (1, 2, 3)]
    m.output("y", library.mux_many(m, vs, opts))
    sim = Simulator(m.build())
    for sel, expected in [(0, 1), (1, 2), (2, 3)]:
        sim.step_eval({"s": sel})
        assert sim.output("y") == expected


def test_onehot_mux():
    m = Module("t")
    sels = m.input("sel", 3)
    opts = [m.const(v, 4) for v in (0xA, 0xB, 0xC)]
    m.output("y", library.onehot_mux(
        m, [sels[i] for i in range(3)], opts))
    sim = Simulator(m.build())
    sim.step_eval({"sel": 0b010})
    assert sim.output("y") == 0xB


def test_priority_encoder():
    m = Module("t")
    req = m.input("req", 4)
    idx, valid = library.priority_encoder(m, req)
    m.output("idx", idx)
    m.output("valid", valid)
    sim = Simulator(m.build())
    for req_v, expect_idx, expect_valid in [
            (0b0000, 0, 0), (0b0001, 0, 1), (0b0100, 2, 1),
            (0b0110, 1, 1), (0b1111, 0, 1)]:
        sim.step_eval({"req": req_v})
        assert sim.output("valid") == expect_valid
        if expect_valid:
            assert sim.output("idx") == expect_idx


@given(st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=30)
def test_less_than_const(v, const):
    m = Module("t")
    vec = m.input("v", 4)
    m.output("lt", library.less_than_const(m, vec, const))
    sim = Simulator(m.build())
    sim.step_eval({"v": v})
    assert sim.output("lt") == int(v < const)


def test_register_chain_depth():
    m = Module("t")
    d = m.input("d", 2)
    out = library.register_chain(m, "pipe", d, stages=3)
    m.output("y", out)
    circ = m.build()
    assert circ.flop_count() == 6
    sim = Simulator(circ)
    sim.step({"d": 0b11})
    sim.step({"d": 0})
    sim.step({"d": 0})
    sim.step_eval({"d": 0})
    assert sim.output("y") == 0b11  # 3-cycle latency
