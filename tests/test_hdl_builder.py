"""Unit and property tests for the builder DSL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import Module, NetlistError

from .simulator_oracle import Simulator


def eval_comb(build, inputs):
    """Build a 1-output combinational module and evaluate once."""
    m = Module("t")
    outs = build(m)
    m.output("y", outs)
    sim = Simulator(m.build())
    sim.step_eval(inputs)
    return sim.output("y")


# ----------------------------------------------------------------------
# bitwise operators match Python semantics
# ----------------------------------------------------------------------
@given(st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=40)
def test_and_or_xor_invert(a, b):
    m = Module("t")
    va = m.input("a", 8)
    vb = m.input("b", 8)
    m.output("and_", va & vb)
    m.output("or_", va | vb)
    m.output("xor_", va ^ vb)
    m.output("inv", ~va)
    m.output("nand_", va.nand(vb))
    m.output("nor_", va.nor(vb))
    m.output("xnor_", va.xnor(vb))
    sim = Simulator(m.build())
    sim.step_eval({"a": a, "b": b})
    assert sim.output("and_") == a & b
    assert sim.output("or_") == a | b
    assert sim.output("xor_") == a ^ b
    assert sim.output("inv") == (~a) & 0xFF
    assert sim.output("nand_") == (~(a & b)) & 0xFF
    assert sim.output("nor_") == (~(a | b)) & 0xFF
    assert sim.output("xnor_") == (~(a ^ b)) & 0xFF


@given(st.integers(0, 255))
@settings(max_examples=30)
def test_reductions(a):
    m = Module("t")
    va = m.input("a", 8)
    m.output("rand", va.reduce_and())
    m.output("ror", va.reduce_or())
    m.output("rxor", va.reduce_xor())
    m.output("zero", va.is_zero())
    sim = Simulator(m.build())
    sim.step_eval({"a": a})
    assert sim.output("rand") == (1 if a == 0xFF else 0)
    assert sim.output("ror") == (1 if a else 0)
    assert sim.output("rxor") == bin(a).count("1") % 2
    assert sim.output("zero") == (1 if a == 0 else 0)


@given(st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=30)
def test_eq_ne(a, b):
    m = Module("t")
    va = m.input("a", 8)
    vb = m.input("b", 8)
    m.output("eq", va.eq(vb))
    m.output("ne", va.ne(vb))
    sim = Simulator(m.build())
    sim.step_eval({"a": a, "b": b})
    assert sim.output("eq") == int(a == b)
    assert sim.output("ne") == int(a != b)


def test_slicing_and_concat():
    m = Module("t")
    a = m.input("a", 8)
    m.output("low", a[0:4])
    m.output("high", a[4:8])
    m.output("bit7", a[7])
    m.output("swapped", m.cat(a[4:8], a[0:4]))
    sim = Simulator(m.build())
    sim.step_eval({"a": 0xA5})
    assert sim.output("low") == 0x5
    assert sim.output("high") == 0xA
    assert sim.output("bit7") == 1
    assert sim.output("swapped") == 0x5A


def test_mux_selects():
    m = Module("t")
    s = m.input("s", 1)
    a = m.input("a", 4)
    b = m.input("b", 4)
    m.output("y", m.mux(s, a, b))
    sim = Simulator(m.build())
    sim.step_eval({"s": 1, "a": 3, "b": 12})
    assert sim.output("y") == 3
    sim.step_eval({"s": 0, "a": 3, "b": 12})
    assert sim.output("y") == 12


def test_repeat_and_zext():
    m = Module("t")
    bit = m.input("b", 1)
    a = m.input("a", 3)
    m.output("rep", bit.repeat(4))
    m.output("ext", a.zext(6))
    sim = Simulator(m.build())
    sim.step_eval({"b": 1, "a": 0b101})
    assert sim.output("rep") == 0b1111
    assert sim.output("ext") == 0b101


def test_width_mismatch_raises():
    m = Module("t")
    a = m.input("a", 4)
    b = m.input("b", 5)
    with pytest.raises(NetlistError, match="width mismatch"):
        _ = a & b


def test_scalar_broadcast():
    m = Module("t")
    a = m.input("a", 4)
    en = m.input("en", 1)
    m.output("y", a & en)   # 1-bit broadcast against 4-bit
    sim = Simulator(m.build())
    sim.step_eval({"a": 0xF, "en": 1})
    assert sim.output("y") == 0xF
    sim.step_eval({"a": 0xF, "en": 0})
    assert sim.output("y") == 0


def test_int_coercion_in_ops():
    m = Module("t")
    a = m.input("a", 4)
    m.output("y", a ^ 0b1010)
    sim = Simulator(m.build())
    sim.step_eval({"a": 0b0110})
    assert sim.output("y") == 0b1100


# ----------------------------------------------------------------------
# registers
# ----------------------------------------------------------------------
def test_register_enable_and_reset():
    m = Module("t")
    d = m.input("d", 4)
    en = m.input("en", 1)
    rst = m.input("rst", 1)
    q = m.reg("r", d, en=en, rst=rst, init=0b0101)
    m.output("q", q)
    sim = Simulator(m.build())
    # init value visible before any clock
    sim.step_eval({"d": 0, "en": 0, "rst": 0})
    assert sim.output("q") == 0b0101
    sim.step_commit()
    # enable low: holds
    sim.step({"d": 0xF, "en": 0, "rst": 0})
    sim.step_eval({"d": 0, "en": 0, "rst": 0})
    assert sim.output("q") == 0b0101
    sim.step_commit()
    # enable high: captures
    sim.step({"d": 0xF, "en": 1, "rst": 0})
    sim.step_eval({"d": 0, "en": 0, "rst": 0})
    assert sim.output("q") == 0xF
    sim.step_commit()
    # sync reset returns to init
    sim.step({"d": 0x3, "en": 1, "rst": 1})
    sim.step_eval({"d": 0, "en": 0, "rst": 0})
    assert sim.output("q") == 0b0101


def test_feedback_register_requires_connect():
    m = Module("t")
    q = m.declare_reg("r", 2)
    m.output("q", q)
    with pytest.raises(NetlistError, match="unconnected registers"):
        m.build()


def test_connect_reg_twice_fails():
    m = Module("t")
    a = m.input("a", 2)
    q = m.declare_reg("r", 2)
    m.connect_reg(q, a)
    with pytest.raises(NetlistError, match="not pending"):
        m.connect_reg(q, a)


def test_duplicate_ports_fail():
    m = Module("t")
    m.input("a", 1)
    with pytest.raises(NetlistError, match="duplicate input"):
        m.input("a", 1)
    v = m.const(0, 1)
    m.output("y", v)
    with pytest.raises(NetlistError, match="duplicate output"):
        m.output("y", v)


def test_named_probe_nets():
    m = Module("t")
    a = m.input("a", 2)
    with m.scope("blk"):
        probed = (a ^ 0b11).named("probe")
    m.output("y", probed)
    c = m.build()
    assert c.find_net("blk/probe[0]") >= 0


# ----------------------------------------------------------------------
# constant folding
# ----------------------------------------------------------------------
@pytest.mark.parametrize("expr,expected", [
    (lambda m, a: a & m.const(0, 4), 0),
    (lambda m, a: a & m.const(0xF, 4), 0b0110),
    (lambda m, a: a | m.const(0xF, 4), 0xF),
    (lambda m, a: a ^ m.const(0, 4), 0b0110),
    (lambda m, a: a ^ m.const(0xF, 4), 0b1001),
    (lambda m, a: a & a, 0b0110),
    (lambda m, a: a ^ a, 0),
])
def test_fold_results_correct(expr, expected):
    m = Module("t")
    a = m.input("a", 4)
    m.output("y", expr(m, a))
    sim = Simulator(m.build())
    sim.step_eval({"a": 0b0110})
    assert sim.output("y") == expected


def test_fold_reduces_gate_count():
    m1 = Module("folded")
    a1 = m1.input("a", 8)
    m1.output("y", a1 & m1.const(0xFF, 8))
    folded = m1.build().gate_count()
    assert folded == 0  # AND with all-ones folds away entirely


def test_fold_mux_identity_arms():
    m = Module("t")
    s = m.input("s", 1)
    m.output("as_sel", m.mux(s, m.const(1, 1), m.const(0, 1)))
    m.output("as_inv", m.mux(s, m.const(0, 1), m.const(1, 1)))
    sim = Simulator(m.build())
    for sv in (0, 1):
        sim.step_eval({"s": sv})
        assert sim.output("as_sel") == sv
        assert sim.output("as_inv") == 1 - sv


# ----------------------------------------------------------------------
# forward references
# ----------------------------------------------------------------------
def test_forward_resolve_roundtrip():
    m = Module("t")
    a = m.input("a", 4)
    fwd = m.forward("later", 4)
    y = a ^ fwd                     # use before the driver exists
    m.output("y", y)
    m.resolve(fwd, a & m.const(0b1100, 4))
    sim = Simulator(m.build())
    sim.step_eval({"a": 0b1010})
    assert sim.output("y") == 0b1010 ^ (0b1010 & 0b1100)


def test_unresolved_forward_fails_build():
    m = Module("t")
    fwd = m.forward("never", 2)
    m.output("y", fwd)
    with pytest.raises(NetlistError, match="unresolved forwards"):
        m.build()


def test_forward_width_mismatch():
    m = Module("t")
    fwd = m.forward("w", 3)
    with pytest.raises(NetlistError, match="width mismatch"):
        m.resolve(fwd, m.const(0, 2))


def test_resolve_twice_fails():
    m = Module("t")
    fwd = m.forward("x", 1)
    m.resolve(fwd, m.const(0, 1))
    with pytest.raises(NetlistError, match="not forward-declared"):
        m.resolve(fwd, m.const(1, 1))


def test_forward_cannot_hide_comb_loop():
    m = Module("t")
    a = m.input("a", 1)
    fwd = m.forward("loop", 1)
    y = a & fwd
    m.resolve(fwd, y)               # y depends on fwd depends on y
    m.output("y", y)
    with pytest.raises(NetlistError, match="cycle"):
        m.build()
