"""The operational-profile replay against its interpreted oracle.

``profile_workload`` replays the workload on the compiled kernel at
one lane; ``campaign_oracle.profile_interpreted`` replays it on the
interpreted simulator, net by net.  Their ``to_dict()`` JSON must be
identical, dict order included, because stored profiles are keyed and
compared as JSON blobs.

The table guard pins what the C level sweep relies on: it reads the
compiled program's flat tables without bounds checks.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinjection.profiler import profile_workload
from repro.hdl import Module
from repro.hdl.compiled import compile_circuit
from repro.hdl.netlist import OP_ARITY, OP_BUF, OP_MUX
from repro.hdl.simulator import MemoryImageSetup
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
    setup = MemoryImageSetup(
        mem_images={mem.name: image for mem in circuit.memories},
        flop_values={name: 1 for name in flops})
    assert_same_profile(circuit, stimuli, setup, strobes)


@pytest.mark.parametrize("variant,banks", [("small-improved", 1),
                                           ("small-baseline", 2)])
def test_profile_equals_interpreted_on_full_workloads(variant, banks):
    sub = make_subsystem(variant, banks=banks)
    stimuli = list(validation_workload(sub, quick=False))
    profile = assert_same_profile(
        sub.circuit, stimuli, sub.preload_image(),
        sub.read_strobes())
    assert profile.flop_toggles and profile.mem_accesses


def test_profile_equals_interpreted_on_minicpu():
    cpu = MiniCpu(CpuConfig.lockstep_pair())
    setup = MemoryImageSetup(
        mem_images={"imem/rom": assemble(MINICPU_PROGRAM)})
    stimuli = [cpu.idle(rst=1)] * 2 + [cpu.idle()] * 80
    profile = assert_same_profile(cpu.circuit, stimuli, setup)
    assert profile.flop_toggles


def test_profile_records_wide_addresses_exactly():
    """A 66-bit address port on a depth-5 memory: every recorded
    access carries the whole driven integer, bits 64 and 65 included."""
    m = Module("wideaddr")
    addr = m.input("addr", 66)
    m.output("rdata", m.memory("mem", 5, 4, addr, m.input("wdata", 4),
                               m.input("we")))
    addresses = (2**63, 2**64, 2**65 | 3, 7)
    stimuli = [{"addr": a, "wdata": k, "we": k % 2}
               for k, a in enumerate(addresses)]
    profile = assert_same_profile(m.build(), stimuli)
    assert [a.addr for a in profile.mem_accesses["mem"]] == \
        list(addresses)


@pytest.mark.parametrize("design", ["small-baseline", "minicpu",
                                    *range(20)])
def test_level_tables_are_in_range(design):
    """The flat tables the C sweep reads without bounds checks: gate
    ops only, every group's outputs one contiguous row range right
    after the previous group's, gather blocks back to back, and every
    gather index a row already final when its level runs."""
    if design == "small-baseline":
        circuit = make_subsystem(design, banks=2).circuit
    elif design == "minicpu":
        circuit = MiniCpu(CpuConfig.lockstep_pair()).circuit
    else:
        circuit = fuzz_circuit(design)
    cc = compile_circuit(circuit)
    for table in (cc.level_groups, cc.groups, cc.gather):
        assert table.dtype == np.int64 and table.flags.c_contiguous
    assert cc.level_groups[0] == 0
    assert cc.level_groups[-1] == len(cc.groups)
    assert np.all(np.diff(cc.level_groups) > 0)
    assert len(cc.level_groups) == cc.depth + 1
    row, offset = cc.num_source_rows, 0
    for lv in range(cc.depth):
        level_lo = row
        for op, count, out_lo, base in cc.groups[
                cc.level_groups[lv]:cc.level_groups[lv + 1]].tolist():
            assert OP_BUF <= op <= OP_MUX
            assert count > 0
            assert (out_lo, base) == (row, offset)
            row += count
            offset += OP_ARITY[op] * count
            rows = cc.gather[base:offset]
            assert np.all((rows >= 0) & (rows < level_lo))
    assert row == cc.num_nets < cc.num_rows
    assert offset == len(cc.gather)
