"""The operational-profile replay against its interpreted oracle.

``profile_workload`` replays the workload on the compiled kernel at
one lane; ``campaign_oracle.profile_interpreted`` replays it on the
interpreted simulator, net by net.  Their ``to_dict()`` JSON must be
identical, dict order included, because stored profiles are keyed and
compared as JSON blobs.

The layout guard pins what makes the compiled kernel fast: every
micro-op of the level program runs on C-contiguous operands of the
destination's shape.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinjection.profiler import profile_workload
from repro.hdl.compiled import CompiledSimulator, compile_circuit
from repro.service.core import make_subsystem
from repro.soc.minicpu import CpuConfig, MiniCpu, assemble
from repro.soc.workloads import validation_workload

from .campaign_oracle import profile_interpreted
from .test_compiled_differential import fuzz_circuit

MINICPU_PROGRAM = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0),
                   ("out",), ("ldi", 0), ("jnz", 0), ("out",)]


def assert_same_profile(circuit, stimuli, setup=None, read_strobes=None):
    compiled = profile_workload(circuit, stimuli, setup=setup,
                                read_strobes=read_strobes)
    oracle = profile_interpreted(circuit, stimuli, setup=setup,
                                 read_strobes=read_strobes)
    assert json.dumps(compiled.to_dict()) == \
        json.dumps(oracle.to_dict())
    return compiled


@given(seed=st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_profile_equals_interpreted_on_fuzzed_netlists(seed):
    circuit = fuzz_circuit(seed)
    rng = random.Random(seed)
    widths = {n: len(b) for n, b in circuit.inputs.items()}
    stimuli = [{n: rng.getrandbits(w) for n, w in widths.items()}
               for _ in range(rng.randrange(1, 24))]
    strobes = None
    if circuit.memories and rng.random() < 0.5:
        # any 1-bit net serves as a read strobe
        strobes = {circuit.memories[0].name:
                   rng.choice(circuit.net_names)}
    image = [rng.getrandbits(4) for _ in range(8)]
    flops = [f.name for f in circuit.flops if rng.random() < 0.3]

    def setup(sim):
        for mem in circuit.memories:
            sim.load_mem(mem.name, image)
        for name in flops:
            sim.set_flop(name, 1)

    assert_same_profile(circuit, stimuli, setup, strobes)


@pytest.mark.parametrize("variant,banks", [("small-improved", 1),
                                           ("small-baseline", 2)])
def test_profile_equals_interpreted_on_full_workloads(variant, banks):
    sub = make_subsystem(variant, banks=banks)
    stimuli = list(validation_workload(sub, quick=False))
    profile = assert_same_profile(
        sub.circuit, stimuli, lambda sim: sub.preload(sim, {}),
        sub.read_strobes())
    assert profile.flop_toggles and profile.mem_accesses


def test_profile_equals_interpreted_on_minicpu():
    cpu = MiniCpu(CpuConfig.lockstep_pair())

    def setup(sim):
        sim.load_mem("imem/rom", assemble(MINICPU_PROGRAM))

    stimuli = [cpu.idle(rst=1)] * 2 + [cpu.idle()] * 80
    profile = assert_same_profile(cpu.circuit, stimuli, setup)
    assert profile.flop_toggles


@pytest.mark.parametrize("machines", [1, 342])
def test_level_program_operands_are_contiguous(machines):
    """Every operand and destination of every micro-op is a
    C-contiguous array of the destination's shape: no strided gather
    views, no broadcast masks, no scalars."""
    circuit = make_subsystem("small-baseline", banks=2).circuit
    sim = CompiledSimulator(compile_circuit(circuit), machines=machines)
    ops = 0
    for _, _, micro in sim._program:
        for _, a, b, dst in micro:
            assert dst.flags.c_contiguous
            for operand in (a, b):
                if operand is None:
                    continue
                assert isinstance(operand, np.ndarray)
                assert operand.flags.c_contiguous
                assert operand.shape == dst.shape
            ops += 1
    assert ops
