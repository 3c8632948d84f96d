"""Differential testing: the levelized simulator vs a reference
evaluator on randomly generated circuits.

Hypothesis builds random combinational DAGs + register layers through
the DSL; a tiny independent interpreter evaluates the same structure
directly from the netlist.  Any divergence is a simulator bug.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import Module
from repro.hdl.netlist import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_MUX,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
)

from .simulator_oracle import Simulator


def reference_eval(circuit, input_values, flop_state):
    """Independent single-machine evaluator (dict-based, recursive)."""
    values = {}
    for name, nets in circuit.inputs.items():
        for bit, net in enumerate(nets):
            values[net] = (input_values[name] >> bit) & 1
    for i, flop in enumerate(circuit.flops):
        values[flop.q] = flop_state[i]

    for gi in circuit.levelize():
        gate = circuit.gates[gi]
        ins = [values[n] for n in gate.inputs]
        if gate.op == OP_AND:
            v = ins[0] & ins[1]
        elif gate.op == OP_OR:
            v = ins[0] | ins[1]
        elif gate.op == OP_XOR:
            v = ins[0] ^ ins[1]
        elif gate.op == OP_NAND:
            v = 1 - (ins[0] & ins[1])
        elif gate.op == OP_NOR:
            v = 1 - (ins[0] | ins[1])
        elif gate.op == OP_XNOR:
            v = 1 - (ins[0] ^ ins[1])
        elif gate.op == OP_NOT:
            v = 1 - ins[0]
        elif gate.op == OP_BUF:
            v = ins[0]
        elif gate.op == OP_MUX:
            v = ins[1] if ins[0] else ins[2]
        elif gate.op == OP_CONST0:
            v = 0
        else:
            v = 1
        values[gate.out] = v

    outputs = {}
    for name, nets in circuit.outputs.items():
        outputs[name] = sum(values[n] << b for b, n in enumerate(nets))
    next_state = []
    for i, flop in enumerate(circuit.flops):
        d = values[flop.d]
        q = flop_state[i]
        en = values[flop.en] if flop.en is not None else 1
        nxt = d if en else q
        if flop.rst is not None and values[flop.rst]:
            nxt = flop.init
        next_state.append(nxt)
    return outputs, next_state


def random_circuit(seed: int, n_inputs: int, n_ops: int, n_regs: int):
    """A random layered design built through the DSL."""
    rng = random.Random(seed)
    m = Module(f"rand{seed}")
    pool = []
    for i in range(n_inputs):
        pool.extend(m.input(f"in{i}", 2))
    rst = m.input("rst")
    for step in range(n_ops):
        op = rng.randrange(6)
        a = rng.choice(pool)
        b = rng.choice(pool)
        if op == 0:
            pool.append(a & b)
        elif op == 1:
            pool.append(a | b)
        elif op == 2:
            pool.append(a ^ b)
        elif op == 3:
            pool.append(~a)
        elif op == 4:
            pool.append(m.mux(rng.choice(pool), a, b))
        else:
            pool.append(a.nand(b))
    regs = []
    for r in range(n_regs):
        en = rng.choice(pool) if rng.random() < 0.5 else None
        use_rst = rst if rng.random() < 0.5 else None
        q = m.reg(f"r{r}", rng.choice(pool), en=en, rst=use_rst,
                  init=rng.getrandbits(1))
        regs.append(q)
        pool.append(q)
    out = pool[-1]
    for q in regs:
        out = out ^ q
    m.output("y", out)
    m.output("z", m.cat(*(rng.choice(pool) for _ in range(3))))
    return m.build()


@given(seed=st.integers(0, 10_000),
       stim_seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_simulator_matches_reference(seed, stim_seed):
    circuit = random_circuit(seed, n_inputs=3, n_ops=25, n_regs=4)
    sim = Simulator(circuit)
    state = [f.init for f in circuit.flops]

    rng = random.Random(stim_seed)
    for _cycle in range(6):
        stim = {f"in{i}": rng.getrandbits(2) for i in range(3)}
        stim["rst"] = 1 if rng.random() < 0.2 else 0
        sim.step_eval(stim)
        expected_out, state = reference_eval(circuit, stim, state)
        for name, value in expected_out.items():
            assert sim.output(name) == value, (name, _cycle)
        sim.step_commit()
        for i in range(len(circuit.flops)):
            assert sim._flop_state[i] & 1 == state[i], i


@given(seed=st.integers(0, 10_000), machine=st.integers(1, 7))
@settings(max_examples=15, deadline=None)
def test_stuck_fault_machine_matches_modified_reference(seed, machine):
    """A stuck-at in machine k equals the reference evaluator run with
    that net's value forced — end-to-end fault-model equivalence."""
    circuit = random_circuit(seed, n_inputs=3, n_ops=20, n_regs=3)
    real_gates = [g for g in circuit.gates
                  if g.op not in (OP_CONST0, OP_CONST1, OP_BUF)]
    if not real_gates:
        return
    rng = random.Random(seed)
    target = rng.choice(real_gates).out
    value = rng.getrandbits(1)

    sim = Simulator(circuit, machines=8)
    sim.stick_net(target, value, machines=1 << machine)

    state = [f.init for f in circuit.flops]
    for _cycle in range(5):
        stim = {f"in{i}": rng.getrandbits(2) for i in range(3)}
        stim["rst"] = 0
        sim.step_eval(stim)
        expected_out, state = _forced_reference(circuit, stim, state,
                                                target, value)
        for name, exp in expected_out.items():
            assert sim.output(name, machine=machine) == exp
        sim.step_commit()


def _forced_reference(circuit, stim, state, forced_net, forced_value):
    """Reference evaluation with one net overridden after computing."""
    base_inputs = dict(stim)
    values = {}
    for name, nets in circuit.inputs.items():
        for bit, net in enumerate(nets):
            values[net] = (base_inputs[name] >> bit) & 1
    for i, flop in enumerate(circuit.flops):
        values[flop.q] = state[i]
    if forced_net in values:
        values[forced_net] = forced_value

    for gi in circuit.levelize():
        gate = circuit.gates[gi]
        ins = [values[n] for n in gate.inputs]
        if gate.op == OP_AND:
            v = ins[0] & ins[1]
        elif gate.op == OP_OR:
            v = ins[0] | ins[1]
        elif gate.op == OP_XOR:
            v = ins[0] ^ ins[1]
        elif gate.op == OP_NAND:
            v = 1 - (ins[0] & ins[1])
        elif gate.op == OP_NOR:
            v = 1 - (ins[0] | ins[1])
        elif gate.op == OP_XNOR:
            v = 1 - (ins[0] ^ ins[1])
        elif gate.op == OP_NOT:
            v = 1 - ins[0]
        elif gate.op == OP_BUF:
            v = ins[0]
        elif gate.op == OP_MUX:
            v = ins[1] if ins[0] else ins[2]
        elif gate.op == OP_CONST0:
            v = 0
        else:
            v = 1
        if gate.out == forced_net:
            v = forced_value
        values[gate.out] = v

    outputs = {}
    for name, nets in circuit.outputs.items():
        outputs[name] = sum(values[n] << b for b, n in enumerate(nets))
    next_state = []
    for i, flop in enumerate(circuit.flops):
        d = values[flop.d]
        q = state[i]
        en = values[flop.en] if flop.en is not None else 1
        nxt = d if en else q
        if flop.rst is not None and values[flop.rst]:
            nxt = flop.init
        next_state.append(nxt)
    return outputs, next_state
