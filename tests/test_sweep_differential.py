"""The C level sweep against the numpy level sweep, word for word.

:class:`~tests.campaign_oracle.NumpySweepSimulator` is the compiled
kernel with its level sweep run as numpy micro-ops.  Both simulators
get the same fault load and inputs, and their value arrays must be
equal after every cycle, every word of every row: padding lanes past
the last machine included, which the interpreted-oracle suites cannot
see.  The load puts a forced net in every overlay bucket, glitches on
sources and on gate outputs mid-program, and bridges in all three
modes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import BRIDGE_AND, BRIDGE_DOMINANT, BRIDGE_OR, \
    CompiledSimulator, compile_circuit
from repro.hdl.netlist import OP_BUF
from repro.service.core import make_subsystem

from .campaign_oracle import NumpySweepSimulator
from .test_compiled_differential import fuzz_circuit

BRIDGE_MODES = (BRIDGE_DOMINANT, BRIDGE_AND, BRIDGE_OR)


def _with_buffers(circuit, rng):
    """``circuit`` plus a few BUF gates (the fuzzer emits none)."""
    for i in range(3):
        src = rng.randrange(circuit.num_nets)
        circuit.add_gate(OP_BUF, (src,), circuit.new_net(f"buf{i}"))
    return circuit


def _arm(rng, cc, sims, machines, bridges: bool, cycles: int) -> None:
    """One forced net per overlay bucket, source and mid-level
    glitches, and (optionally) bridges of every mode, on every sim."""
    def lanes():
        return rng.getrandbits(machines) | 1 << rng.randrange(machines)

    by_bucket: dict[int, list[int]] = {}
    for net, bucket in enumerate(cc.bucket_of.tolist()):
        by_bucket.setdefault(bucket, []).append(net)
    calls = []
    for bucket in sorted(by_bucket):
        net = rng.choice(by_bucket[bucket])
        calls.append(("stick_net", net, rng.getrandbits(1), lanes()))
    mid = max(1, cc.depth // 2)
    for bucket in (0, mid, cc.depth):
        for _ in range(2):
            net = rng.choice(by_bucket.get(bucket, by_bucket[0]))
            calls.append(("schedule_net_glitch", net,
                          rng.randrange(cycles), lanes()))
    if bridges:
        for mode in BRIDGE_MODES:
            for _ in range(2):
                aggressor, victim = rng.sample(range(cc.num_nets), 2)
                calls.append(("add_bridge", aggressor, victim, mode,
                              lanes()))
    for sim in sims:
        for name, *args, mask in calls:
            getattr(sim, name)(*args, machines=mask)


def _assert_same_words(c_sim, np_sim, cycle):
    assert np.array_equal(c_sim._vals, np_sim._vals), \
        f"value words differ after cycle {cycle}"
    assert np.array_equal(c_sim._flop_state, np_sim._flop_state)


def _run_both(circuit, machines, seed, cycles, bridges):
    rng = random.Random(seed)
    cc = compile_circuit(circuit)
    sims = [CompiledSimulator(cc, machines=machines),
            NumpySweepSimulator(cc, machines=machines)]
    _arm(rng, cc, sims, machines, bridges, cycles)
    widths = {n: len(b) for n, b in circuit.inputs.items()}
    for cycle in range(cycles):
        inputs = {n: rng.getrandbits(w) for n, w in widths.items()}
        for sim in sims:
            sim.step(inputs)
        _assert_same_words(*sims, cycle)


@pytest.mark.parametrize("words", [1, 2, 6])
@given(seed=st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_c_sweep_equals_numpy_sweep_on_fuzzed_netlists(words, seed):
    rng = random.Random(seed)
    circuit = _with_buffers(fuzz_circuit(seed), rng)
    # a partial last word, so padding lanes exist at every W
    machines = 64 * (words - 1) + rng.randrange(1, 64)
    _run_both(circuit, machines, seed, cycles=12,
              bridges=seed % 3 != 0)


@pytest.mark.parametrize("bridges", [False, True])
def test_c_sweep_equals_numpy_sweep_on_a_banked_design(bridges):
    circuit = make_subsystem("small-baseline", banks=2).circuit
    _run_both(circuit, machines=342, seed=7, cycles=40,
              bridges=bridges)
