"""Differential fuzzing: the compiled bit-parallel kernel vs the
interpreted big-int oracle.

The compiled engine (:mod:`repro.hdl.compiled`) re-implements the whole
simulation semantics — levelization, lane packing, fault overlays, the
divergent-address memory path — so every behavior it has is checked
against the interpreted :class:`~repro.hdl.Simulator` on the same
inputs, bit for bit:

* hundreds of fuzzed random netlists (random gate mix, fan-out,
  flop/memory placement) swept cycle-by-cycle under random fault loads,
  comparing every net, every flop, and every memory word;
* the same sweep under bridges (all three modes) beside SETs in other
  lanes, and memory coupling faults: same-word victims above and below
  the aggressor bit, self-coupling, chained aggressor/victim cells,
  divergent addresses and one bank of a stacked group;
* fuzzed and real multi-bank designs whose same-shape memories the
  kernel steps as one stacked group, under address-line stuck-ats in
  every bank plus cell flips and stuck cells;
* full campaigns on the fmem subsystem and the mini CPU, run by the
  campaign supervisor, comparing the per-fault records, outcome
  tallies, DC, SFF and coverage with the interpreted pass loop of
  :mod:`tests.campaign_oracle`;
* the sharded supervised runner at 1, 2, and 4 workers against that
  serial oracle;
* campaigns mixing bridges and coupling faults with every other kind;
* the C cycle loop (``CompiledSimulator.run``) against a ``step`` loop,
  a three-lane-word campaign's toggle maps against the oracle's, and a
  cycle budget ending inside a stretch of cycles run in one C call.
"""

import random

import numpy as np
import pytest

from repro.faultinjection import (
    BridgeFault,
    CampaignConfig,
    CandidateList,
    MemFlipFault,
    MemoryImageSetup,
    MemStuckFault,
    SetFault,
    SeuFault,
    StuckNetFault,
    build_environment,
)
from repro.faultinjection.faults import MemCouplingFault
from repro.faultinjection.parallel import CampaignSpec
from repro.faultinjection.supervisor import CampaignSupervisor
from repro.hdl import BRIDGE_AND, BRIDGE_DOMINANT, BRIDGE_OR, \
    CompiledSimulator, CycleBudgetExceeded, Module, compile_circuit
from repro.service.core import make_subsystem
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.soc.minicpu import CpuConfig, MiniCpu, assemble
from repro.zones.model import (
    ObservationKind,
    ObservationPoint,
    SensibleZone,
    ZoneKind,
)

from .campaign_oracle import run_interpreted
from .simulator_oracle import Simulator

# lane-boundary machine counts (single word, exactly full word, word
# + 1) plus small ones — cycled across fuzz seeds
MACHINE_SWEEP = (2, 9, 48, 63, 64, 65)

BRIDGE_MODES = (BRIDGE_DOMINANT, BRIDGE_AND, BRIDGE_OR)


def fuzz_circuit(seed: int):
    """A random design: gate mix, fan-out, flops, sometimes a memory."""
    rng = random.Random(seed)
    m = Module(f"fuzz{seed}")
    pool = []
    for i in range(3):
        pool.extend(m.input(f"in{i}", 2))
    rst = m.input("rst")
    n_ops = rng.randrange(12, 36)
    for _ in range(n_ops):
        op = rng.randrange(8)
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
        elif op == 5:
            pool.append(a.nand(b))
        elif op == 6:
            pool.append(a.nor(b))
        else:
            pool.append(a.xnor(b))
    n_regs = rng.randrange(2, 6)
    regs = []
    for r in range(n_regs):
        en = rng.choice(pool) if rng.random() < 0.5 else None
        use_rst = rst if rng.random() < 0.5 else None
        q = m.reg(f"r{r}", rng.choice(pool), en=en, rst=use_rst,
                  init=rng.getrandbits(1))
        regs.append(q)
        pool.append(q)
    if rng.random() < 0.6:
        addr = m.cat(*(rng.choice(pool) for _ in range(3)))
        wdata = m.cat(*(rng.choice(pool) for _ in range(4)))
        we = rng.choice(pool)
        rdata = m.memory("fmem", 8, 4, addr, wdata, we)
        pool.extend(rdata)
    out = pool[-1]
    for q in regs:
        out = out ^ q
    m.output("y", out)
    m.output("z", m.cat(*(rng.choice(pool) for _ in range(3))))
    return m.build()


def _arm_random_faults(rng, circuit, sims, machines):
    """The same random fault load armed on every sim in ``sims``."""
    nets = list(range(circuit.num_nets))
    flops = list(range(len(circuit.flops)))
    mem = circuit.memories[0] if circuit.memories else None
    for k in range(1, machines):
        kind = rng.randrange(5 if mem is not None else 3)
        mask = 1 << k
        if kind == 0:
            n, v = rng.choice(nets), rng.getrandbits(1)
            for s in sims:
                s.stick_net(n, v, machines=mask)
        elif kind == 1 and flops:
            f, cyc = rng.choice(flops), rng.randrange(6)
            for s in sims:
                s.schedule_flop_flip(f, cyc, machines=mask)
        elif kind == 2:
            n, cyc = rng.choice(nets), rng.randrange(6)
            for s in sims:
                s.schedule_net_glitch(n, cyc, machines=mask)
        elif kind == 3:
            w, b = rng.randrange(mem.depth), rng.randrange(mem.width)
            cyc = rng.randrange(6)
            for s in sims:
                s.schedule_mem_flip(mem.name, w, b, cyc,
                                    machines=mask)
        else:
            w, b = rng.randrange(mem.depth), rng.randrange(mem.width)
            v = rng.getrandbits(1)
            for s in sims:
                s.set_mem_cell_stuck(mem.name, w, b, v,
                                     machines=mask)


def _sweep_and_compare(circuit, seed, machines, cycles=8,
                       arm=_arm_random_faults, fired=None):
    """Run both simulators under the fault load ``arm`` draws; any
    divergence of a net, flop, memory cell or toggle map fails.  With
    ``fired``, the tag of every coupling the oracle flipped is added
    to it.  Returns the compiled simulator."""
    rng = random.Random(seed * 7919 + machines)
    isim = Simulator(circuit, machines=machines, collect_toggles=True,
                     toggle_any_machine=True)
    csim = CompiledSimulator(compile_circuit(circuit), machines=machines,
                             collect_toggles=True)
    tags = arm(rng, circuit, (isim, csim), machines)
    if fired is not None:
        _record_coupling_flips(isim, tags, fired)

    widths = {n: len(bits) for n, bits in circuit.inputs.items()}
    full = (1 << machines) - 1
    for cyc in range(cycles):
        # an input left undriven keeps last cycle's (possibly glitched
        # or bridged) value
        stim = {n: rng.getrandbits(w) for n, w in widths.items()
                if rng.random() < 0.9}
        isim.step_eval(stim)
        csim.step_eval(stim)
        for n in range(circuit.num_nets):
            assert (isim.peek(n) & full) == csim.peek(n), \
                (seed, machines, cyc, n)
        isim.step_commit()
        csim.step_commit()
        for i in range(len(circuit.flops)):
            assert (isim._flop_state[i] & full) == \
                csim._unpack(csim._flop_state[i]), \
                (seed, machines, cyc, i)
        for mi, mem in enumerate(circuit.memories):
            for w in range(mem.depth):
                for b in range(mem.width):
                    assert isim._mem_store[mi][w][b] & full == \
                        csim._unpack(csim._mem_store[mi][w, :, b]), \
                        (seed, machines, cyc, mem.name, w, b)
    assert isim._seen0 == csim._seen0 and isim._seen1 == csim._seen1
    return csim


def test_fuzzed_circuits_bit_identical():
    """>=200 fuzzed netlists, every net/flop/mem word, every cycle."""
    for seed in range(200):
        circuit = fuzz_circuit(seed)
        machines = MACHINE_SWEEP[seed % len(MACHINE_SWEEP)]
        _sweep_and_compare(circuit, seed, machines)


def test_fuzzed_lane_boundaries_dense():
    """Extra lane-boundary passes (63/64/65) on a fixed circuit set."""
    for seed in (3, 17, 42):
        circuit = fuzz_circuit(seed)
        for machines in (63, 64, 65):
            _sweep_and_compare(circuit, seed, machines, cycles=12)


# ----------------------------------------------------------------------
# stacked memories: same-shape banks stepped as one group
# ----------------------------------------------------------------------
def fuzz_banked_circuit(seed: int, banks: int):
    """A random design with ``banks`` same-shape memories (one stacked
    group in the compiled kernel) plus one memory of another shape."""
    rng = random.Random(seed)
    m = Module(f"banked{seed}")
    pool = []
    for i in range(4):
        pool.extend(m.input(f"in{i}", 2))
    for _ in range(rng.randrange(8, 20)):
        a, b = rng.choice(pool), rng.choice(pool)
        pool.append(rng.choice((a & b, a | b, a ^ b, ~a)))
    for bank in range(banks):
        addr = m.cat(*(rng.choice(pool) for _ in range(3)))
        wdata = m.cat(*(rng.choice(pool) for _ in range(4)))
        pool.extend(m.memory(f"bank{bank}", 8, 4, addr, wdata,
                             rng.choice(pool)))
    pool.extend(m.memory("odd", 4, 3,
                         m.cat(*(rng.choice(pool) for _ in range(2))),
                         m.cat(*(rng.choice(pool) for _ in range(3))),
                         rng.choice(pool)))
    for r in range(3):
        pool.append(m.reg(f"r{r}", rng.choice(pool)))
    m.output("y", m.cat(*pool[-6:]))
    return m.build()


def _sweep_banked(circuit, seed, machines, cycles=16):
    """Address-line stuck-ats in every bank plus cell flips and stuck
    cells, compared every cycle against the interpreted oracle.

    Returns how many oracle memory steps took the uniform path (every
    lane on one address) and how many the per-lane path.
    """
    rng = random.Random(seed)
    isim = Simulator(circuit, machines=machines)
    csim = CompiledSimulator(compile_circuit(circuit),
                             machines=machines)
    paths = {"uniform": 0, "per-lane": 0}
    step = isim._mem_cycle

    def spy(mi, mem):
        uniform = all(isim._values[n] in (0, isim.full_mask)
                      for n in mem.addr)
        paths["uniform" if uniform else "per-lane"] += 1
        step(mi, mem)

    isim._mem_cycle = spy
    for k in range(1, machines):
        mem = rng.choice(circuit.memories)
        kind = rng.randrange(3)
        for s in (isim, csim):
            if kind == 0:
                s.stick_net(mem.addr[k % len(mem.addr)], k % 2,
                            machines=1 << k)
            elif kind == 1:
                s.schedule_mem_flip(mem.name, k % mem.depth,
                                    k % mem.width, k % cycles,
                                    machines=1 << k)
            else:
                s.set_mem_cell_stuck(mem.name, k % mem.depth,
                                     k % mem.width, k % 2,
                                     machines=1 << k)
    widths = {n: len(bits) for n, bits in circuit.inputs.items()}
    full = (1 << machines) - 1
    for cyc in range(cycles):
        stim = {n: rng.getrandbits(w) for n, w in widths.items()}
        isim.step(stim)
        csim.step(stim)
        for n in range(circuit.num_nets):
            assert (isim.peek(n) & full) == csim.peek(n), \
                (seed, machines, cyc, n)
        for mem in circuit.memories:
            for w in range(mem.depth):
                assert isim.mem_word_mismatch(mem.name, w) == \
                    csim.mem_word_mismatch(mem.name, w), \
                    (seed, machines, cyc, mem.name, w)
    for mem in circuit.memories:
        for w in range(mem.depth):
            for mch in range(machines):
                assert isim.read_mem_word(mem.name, w, machine=mch) \
                    == csim.read_mem_word(mem.name, w, machine=mch), \
                    (seed, machines, mem.name, w, mch)
    return paths


@pytest.mark.parametrize("banks", [2, 4])
def test_stacked_memory_banks_bit_identical(banks):
    paths = {"uniform": 0, "per-lane": 0}
    for seed in range(24):
        circuit = fuzz_banked_circuit(seed, banks)
        for path, count in _sweep_banked(
                circuit, seed,
                MACHINE_SWEEP[seed % len(MACHINE_SWEEP)]).items():
            paths[path] += count
    # both of the oracle's memory paths ran
    assert paths["uniform"] and paths["per-lane"], paths


def _bank_faults(circuit, rng):
    """Address-line stuck-ats in every bank plus cell flips and stuck
    cells in every bank."""
    faults = []
    for mem in circuit.memories:
        for bit, net in enumerate(mem.addr):
            faults.append(StuckNetFault(target=net, value=bit % 2))
        for _ in range(3):
            faults.append(MemFlipFault(target=mem.name,
                                       word=rng.randrange(mem.depth),
                                       bit=rng.randrange(mem.width),
                                       offset=rng.randrange(200)))
            faults.append(MemStuckFault(target=mem.name,
                                        word=rng.randrange(mem.depth),
                                        bit=rng.randrange(mem.width),
                                        value=rng.getrandbits(1)))
    return faults


@pytest.mark.parametrize("banks", [2, 4])
def test_banked_subsystem_campaign_engines_identical(banks):
    env = build_environment(
        make_subsystem("small-baseline", banks=banks), quick=True)
    faults = _bank_faults(env.circuit, random.Random(banks))
    stimuli = env.stimuli[:240]

    spec = CampaignSpec.from_zone_set(env.circuit, stimuli, env.zone_set,
                                      setup=env.setup)
    candidates = CandidateList(faults=faults)
    ri = run_interpreted(spec.manager(), candidates)
    rc = CampaignSupervisor(spec, workers=1).run(candidates)
    assert _fault_records(ri) == _fault_records(rc)
    assert ri.outcomes() == rc.outcomes()
    assert ri.coverage.sens == rc.coverage.sens


# ----------------------------------------------------------------------
# bridge and memory-coupling overlays
# ----------------------------------------------------------------------
#: coupling shapes the overlay sweep arms; each must fire at least once
COUPLING_TAGS = ("above", "below", "self", "other-word", "chain",
                 "divergent")


def _arm_bridges_and_couplings(rng, circuit, sims, machines):
    """Bridges in every mode (victims on source and gate nets, a few on
    random lane sets) beside SETs and stuck-ats in other lanes, plus
    one coupling shape per memory lane.  Returns
    {(memory, aggressor, victim, lane): tag}."""
    nets = list(range(circuit.num_nets))
    sources = [n for bits in circuit.inputs.values() for n in bits]
    sources += [f.q for f in circuit.flops]
    tags = {}

    def couple(mem, aggressor, victim, k, tag):
        for s in sims:
            s.add_mem_coupling(mem.name, aggressor, victim,
                               machines=1 << k)
        tags[(mem.name, aggressor, victim, k)] = tag

    for k in range(1, machines):
        mask = 1 << k
        kind = rng.randrange(4 if circuit.memories else 3)
        if kind == 0:
            victim = rng.choice(sources if rng.random() < 0.4 else nets)
            agg, mode = rng.choice(nets), rng.choice(BRIDGE_MODES)
            if rng.random() < 0.2:
                # random lanes: bridges on one victim overlap, and the
                # later one wins on the shared lanes
                mask = rng.getrandbits(machines)
            for s in sims:
                s.add_bridge(agg, victim, mode=mode, machines=mask)
        elif kind == 1:
            n, cyc = rng.choice(nets), rng.randrange(8)
            for s in sims:
                s.schedule_net_glitch(n, cyc, machines=mask)
        elif kind == 2:
            n, v = rng.choice(nets), rng.getrandbits(1)
            for s in sims:
                s.stick_net(n, v, machines=mask)
        else:
            mem = rng.choice(circuit.memories)
            w, b = rng.randrange(mem.depth), rng.randrange(mem.width - 1)
            tag = rng.choice(COUPLING_TAGS)
            if tag == "above":
                couple(mem, (w, b), (w, rng.randrange(b + 1, mem.width)),
                       k, tag)
            elif tag == "below":
                couple(mem, (w, b + 1), (w, rng.randrange(b + 1)), k,
                       tag)
            elif tag == "self":
                couple(mem, (w, b), (w, b), k, tag)
            elif tag == "other-word":
                couple(mem, (w, b), ((w + 1) % mem.depth, b), k, tag)
            elif tag == "chain":
                # the victim of the first is the second's aggressor,
                # one bit up in the same word
                couple(mem, (w, b), (w, b + 1), k, tag)
                couple(mem, (w, b + 1), ((w + 3) % mem.depth, b), k,
                       tag)
            else:
                n, v = rng.choice(mem.addr), rng.getrandbits(1)
                for s in sims:
                    s.stick_net(n, v, machines=mask)
                couple(mem, (w, b), (w, b + 1), k, tag)
    return tags


def _record_coupling_flips(isim, tags, fired):
    """Spy on the oracle: add the tag of every coupling it flips."""
    names = {id(isim._mem_store[i]): m.name
             for i, m in enumerate(isim.circuit.memories)}
    couple = isim._apply_coupling

    def spy(store, coupling, addr, bit, transition):
        for aggressor, victim, mask in coupling:
            if aggressor == (addr, bit) and transition & mask:
                lane = (transition & mask).bit_length() - 1
                fired.add(tags[(names[id(store)], aggressor, victim,
                                lane)])
        couple(store, coupling, addr, bit, transition)

    isim._apply_coupling = spy


def test_fuzzed_bridges_and_couplings_bit_identical():
    fired = set()
    for seed in range(120):
        _sweep_and_compare(fuzz_circuit(seed), seed,
                           MACHINE_SWEEP[seed % len(MACHINE_SWEEP)],
                           cycles=12, arm=_arm_bridges_and_couplings,
                           fired=fired)
    assert fired == set(COUPLING_TAGS)


@pytest.mark.parametrize("banks", [2, 4])
def test_stacked_bank_couplings_bit_identical(banks):
    """Couplings in single banks of a stacked same-shape group."""
    fired = set()
    for seed in range(24):
        _sweep_and_compare(fuzz_banked_circuit(seed, banks), seed,
                           MACHINE_SWEEP[seed % len(MACHINE_SWEEP)],
                           cycles=12, arm=_arm_bridges_and_couplings,
                           fired=fired)
    assert fired == set(COUPLING_TAGS)


# ----------------------------------------------------------------------
# edge shapes, padding lanes and wide addresses
# ----------------------------------------------------------------------
def edge_shape_circuit(seed: int, flops: int = 3, en_rst: bool = True,
                       mem: tuple[int, int] | None = (8, 3)):
    """A random design of one shape: ``flops`` registers (with random
    en/rst only when ``en_rst``), and with ``mem`` a ``(depth, address
    bits)`` memory of 4-bit words."""
    rng = random.Random(seed)
    m = Module(f"shape{seed}")
    pool = []
    for i in range(3):
        pool.extend(m.input(f"in{i}", 3))
    rst = m.input("rst")
    for _ in range(rng.randrange(10, 24)):
        a, b = rng.choice(pool), rng.choice(pool)
        pool.append(rng.choice((a & b, a | b, a ^ b, ~a, a.nand(b),
                                m.mux(rng.choice(pool), a, b))))
    for r in range(flops):
        en = rng.choice(pool) if en_rst and rng.random() < 0.7 else None
        use_rst = rst if en_rst and rng.random() < 0.7 else None
        pool.append(m.reg(f"r{r}", rng.choice(pool), en=en, rst=use_rst,
                          init=rng.getrandbits(1)))
    if mem is not None:
        depth, abits = mem
        pool.extend(m.memory(
            "fmem", depth, 4,
            m.cat(*(rng.choice(pool) for _ in range(abits))),
            m.cat(*(rng.choice(pool) for _ in range(4))),
            rng.choice(pool)))
    m.output("y", m.cat(*pool[-6:]))
    return m.build()


EDGE_SHAPES = {
    "no-flops": lambda seed: edge_shape_circuit(seed, flops=0),
    "no-memories": lambda seed: edge_shape_circuit(seed, mem=None),
    "flops-without-en-rst":
        lambda seed: edge_shape_circuit(seed, en_rst=False),
    "depth-5-on-3-address-bits":
        lambda seed: edge_shape_circuit(seed, mem=(5, 3)),
    "address-wider-than-depth":
        lambda seed: edge_shape_circuit(seed, mem=(6, 7)),
    "fuzzed": fuzz_circuit,
    "banked": lambda seed: fuzz_banked_circuit(seed, 3),
}


def _assert_padding_clear(csim):
    """Every bit past the last machine is 0 in the value array, the
    flop state, every stacked store and every read-data buffer."""
    pad = ~csim._full
    words = [csim._vals, csim._flop_state]
    for group in csim._mem_groups:
        words += [np.moveaxis(group.store, 2, -1), group.rdata]
    for block in words:
        assert not (block & pad).any()


@pytest.mark.parametrize("machines", [1, 63, 65, 130])
@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
def test_edge_shapes_match_the_oracle_with_padding_clear(shape, machines):
    for seed in range(4):
        circuit = EDGE_SHAPES[shape](seed)
        for arm in (_arm_random_faults, _arm_bridges_and_couplings):
            _assert_padding_clear(_sweep_and_compare(
                circuit, seed, machines, cycles=10, arm=arm))


def test_wide_addresses_match_the_oracle():
    """A 66-bit address on a depth-5 memory: address bit ``a`` weighs
    ``2**a % 5``, the bits at 63 and above included, on the uniform
    and on the per-lane memory path."""
    m = Module("wideaddr")
    addr = m.input("addr", 66)
    m.output("rdata", m.memory("mem", 5, 4, addr, m.input("wdata", 4),
                               m.input("we")))
    circuit = m.build()
    machines = 3
    isim = Simulator(circuit, machines=machines)
    csim = CompiledSimulator(compile_circuit(circuit), machines=machines)
    addresses = (2**63, 2**64, 2**65 | 3, 7)
    steps = [({"addr": a, "wdata": 9 + k, "we": 1}, None)
             for k, a in enumerate(addresses)]
    steps += [({"addr": a, "we": 0}, None) for a in addresses]
    # machine 2 on another wide address: the per-lane path
    steps += [({"addr": 2**63, "wdata": 5, "we": 1}, 2**64),
              ({"addr": 2**65 | 3, "we": 0}, 2**64 | 2**63)]
    for cyc, (inputs, lane_addr) in enumerate(steps):
        for sim in (isim, csim):
            for name, value in inputs.items():
                sim.set_input(name, value)
            if lane_addr is not None:
                sim.set_input_lane("addr", 2, lane_addr)
            sim.step_eval()
        for n in range(circuit.num_nets):
            assert isim.peek(n) == csim.peek(n), (cyc, n)
        isim.step_commit()
        csim.step_commit()
        for w in range(5):
            for mch in range(machines):
                assert isim.read_mem_word("mem", w, machine=mch) == \
                    csim.read_mem_word("mem", w, machine=mch), \
                    (cyc, w, mch)
    assert [isim.read_mem_word("mem", w) for w in range(5)] == \
        [11, 10, 12, 5, 0]
    assert isim.read_mem_word("mem", 1, machine=2) == 5


# ----------------------------------------------------------------------
# mini campaigns on fuzzed circuits
# ----------------------------------------------------------------------
def _fuzz_campaign_pieces(seed):
    """(circuit, stimuli, observation points, fault list) for one seed."""
    rng = random.Random(seed + 31337)
    circuit = fuzz_circuit(seed)
    points = [
        ObservationPoint(name="y", kind=ObservationKind.OUTPUT,
                         nets=tuple(circuit.outputs["y"])),
        ObservationPoint(name="z", kind=ObservationKind.FUNCTION,
                         nets=tuple(circuit.outputs["z"])),
        ObservationPoint(name="alarm", kind=ObservationKind.ALARM,
                         nets=(rng.randrange(circuit.num_nets),)),
    ]
    widths = {n: len(b) for n, b in circuit.inputs.items()}
    stimuli = [{n: rng.getrandbits(w) for n, w in widths.items()}
               for _ in range(10)]
    nets = list(range(circuit.num_nets))
    flops = [f.name for f in circuit.flops]
    mem = circuit.memories[0] if circuit.memories else None
    faults = []
    for _ in range(rng.randrange(5, 20)):
        kind = rng.randrange(4 if mem is not None else 3)
        if kind == 0:
            faults.append(StuckNetFault(target=rng.choice(nets),
                                        value=rng.getrandbits(1)))
        elif kind == 1 and flops:
            faults.append(SeuFault(target=rng.choice(flops),
                                   offset=rng.randrange(8)))
        elif kind == 2:
            faults.append(SetFault(target=rng.choice(nets),
                                   offset=rng.randrange(8)))
        elif rng.random() < 0.5:
            faults.append(MemFlipFault(target=mem.name,
                                       word=rng.randrange(mem.depth),
                                       bit=rng.randrange(mem.width),
                                       offset=rng.randrange(8)))
        else:
            faults.append(MemStuckFault(target=mem.name,
                                        word=rng.randrange(mem.depth),
                                        bit=rng.randrange(mem.width),
                                        value=rng.getrandbits(1)))
    return circuit, stimuli, points, faults


def _fault_records(result):
    return [(r.fault.name, r.sens_cycle, r.obse_cycle, r.diag_cycle,
             r.first_alarm, list(r.effects.items()))
            for r in result.results]


def _spec(circuit, stimuli, points, machines_per_pass=None):
    return CampaignSpec(
        circuit=circuit, stimuli=stimuli, observation_points=points,
        config=CampaignConfig(machines_per_pass=machines_per_pass))


def _run_compiled(spec, candidates):
    """The production campaign: the supervisor on one worker."""
    return CampaignSupervisor(spec, workers=1).run(candidates)


def _run_both(circuit, stimuli, points, faults):
    """(oracle, compiled) campaigns over one fault list."""
    spec = _spec(circuit, stimuli, points)
    candidates = CandidateList(faults=faults)
    return (run_interpreted(spec.manager(), candidates),
            _run_compiled(spec, candidates))


def test_fuzzed_mini_campaigns_engines_identical():
    """Whole campaigns on fuzzed circuits: identical records + rates."""
    for seed in range(40):
        circuit, stimuli, points, faults = _fuzz_campaign_pieces(seed)
        ri, rc = _run_both(circuit, stimuli, points, faults)
        assert _fault_records(ri) == _fault_records(rc), seed
        assert ri.outcomes() == rc.outcomes(), seed
        assert ri.measured_dc() == rc.measured_dc(), seed
        assert ri.measured_safe_fraction() == \
            rc.measured_safe_fraction(), seed
        assert ri.coverage == rc.coverage, seed


def test_fuzzed_campaign_pass_boundaries():
    """Identical results when faults split across passes differently."""
    circuit, stimuli, points, faults = _fuzz_campaign_pieces(7)
    candidates = CandidateList(faults=faults)
    baseline = run_interpreted(_spec(circuit, stimuli, points).manager(),
                               candidates)
    for per_pass in (1, 3, 63, 64, 65):
        rc = _run_compiled(_spec(circuit, stimuli, points, per_pass),
                           candidates)
        assert _fault_records(rc) == _fault_records(baseline), per_pass


def _golden_trace(circuit, stimuli):
    """Each net's fault-free value per cycle, read between eval and
    edge as the pass observes it."""
    sim = CompiledSimulator(compile_circuit(circuit))
    trace = []
    for inputs in stimuli:
        sim.step_eval(inputs)
        trace.append([sim.peek(n) for n in range(circuit.num_nets)])
        sim.step_commit()
    return trace


def _multiword_campaign_pieces(seed):
    """A fuzzed campaign of 150 zoned faults (151 machines: three lane
    words, the last holding 23), with register, memory and net SENS
    probes and two alarms that the golden machine raises on some
    cycles and not on others."""
    rng = random.Random(seed)
    circuit = fuzz_circuit(seed)
    widths = {n: len(b) for n, b in circuit.inputs.items()}
    stimuli = [{n: rng.getrandbits(w) for n, w in widths.items()}
               for _ in range(24)]
    trace = _golden_trace(circuit, stimuli)
    # alarms the golden machine raises on some cycles, not on all
    toggling = [n for n in range(circuit.num_nets)
                if 0 < sum(cycle[n] for cycle in trace) < len(trace)]
    alarms = rng.sample(toggling, 2)
    points = [
        ObservationPoint(name="y", kind=ObservationKind.OUTPUT,
                         nets=tuple(circuit.outputs["y"])),
        ObservationPoint(name="z", kind=ObservationKind.FUNCTION,
                         nets=tuple(circuit.outputs["z"])),
        *(ObservationPoint(name=f"alarm{k}", kind=ObservationKind.ALARM,
                           nets=(net,)) for k, net in enumerate(alarms)),
    ]
    flops = [f.name for f in circuit.flops]
    mem = circuit.memories[0]
    logic = tuple(rng.sample(range(circuit.num_nets), 3))
    zones = [
        SensibleZone(name="regs", kind=ZoneKind.REGISTER,
                     flops=tuple(flops[:-1])),
        SensibleZone(name="last", kind=ZoneKind.REGISTER,
                     flops=(flops[-1],)),
        SensibleZone(name="ram", kind=ZoneKind.MEMORY, memory=mem.name),
        SensibleZone(name="logic", kind=ZoneKind.LOGICAL, nets=logic),
    ]
    faults = []
    for _ in range(150):
        kind = rng.randrange(5)
        if kind == 0:
            flop = rng.choice(flops)
            faults.append(SeuFault(
                target=flop, offset=rng.randrange(20),
                zone="last" if flop == flops[-1] else "regs"))
        elif kind == 1:
            faults.append(MemFlipFault(
                target=mem.name, zone="ram", word=rng.randrange(mem.depth),
                bit=rng.randrange(mem.width), offset=rng.randrange(20)))
        elif kind == 2:
            faults.append(MemStuckFault(
                target=mem.name, zone="ram", word=rng.randrange(mem.depth),
                bit=rng.randrange(mem.width), value=rng.getrandbits(1)))
        elif kind == 3:
            faults.append(StuckNetFault(target=rng.choice(logic),
                                        value=rng.getrandbits(1),
                                        zone="logic"))
        else:
            faults.append(SetFault(target=rng.randrange(circuit.num_nets),
                                   offset=rng.randrange(20)))
    # each alarm stuck high in a lane of the first and of the last word:
    # raised while the golden alarm is quiet, masked while it is high
    for net, k in zip(alarms * 2, (5, 40, 130, 149)):
        faults[k] = StuckNetFault(target=net, value=1)
    return circuit, stimuli, zones, points, faults


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_multiword_campaign_matches_oracle(seed):
    """One pass of 150 faults over three lane words, the last one
    partly filled: every SENS probe family and both alarms fire, and
    the records equal the interpreted oracle's, effects order
    included."""
    circuit, stimuli, zones, points, faults = \
        _multiword_campaign_pieces(seed)
    spec = CampaignSpec(circuit=circuit, stimuli=stimuli, zones=zones,
                        observation_points=points)
    candidates = CandidateList(faults=faults)
    ri = run_interpreted(spec.manager(), candidates)
    rc = _run_compiled(spec, candidates)
    assert rc.passes == 1
    assert _fault_records(ri) == _fault_records(rc)
    assert ri.outcomes() == rc.outcomes()

    for zone in ("regs", "last", "ram", "logic"):
        assert any(r.sens_cycle is not None for r in rc.results
                   if r.fault.zone == zone), zone
    for name in ("alarm0", "alarm1"):
        assert any(name in r.effects for r in rc.results), name
    assert any(r.first_alarm for r in rc.results)
    last_word = rc.results[127:]
    assert any(r.sens_cycle is not None for r in last_word)
    assert any(r.obse_cycle is not None for r in last_word)


def test_bridge_in_mixed_pass_matches_oracle():
    """A bridge sharing its pass with random-net SETs and other kinds:
    the compiled pass equals the interpreted oracle record for record
    (the SETs' lanes are untouched by the bridge re-pass)."""
    circuit, stimuli, points, faults = _fuzz_campaign_pieces(11)
    a, b = 2, circuit.num_nets - 3
    faults = faults[:6] + [BridgeFault(target=a, victim=b)]
    ri, rc = _run_both(circuit, stimuli, points, faults)
    assert _fault_records(ri) == _fault_records(rc)
    assert ri.outcomes() == rc.outcomes()


def test_bridge_and_coupling_campaigns_match_oracle():
    """Fuzzed campaigns whose fault lists add bridges in every mode and
    memory coupling faults to the other kinds."""
    checked = 0
    for seed in range(24):
        circuit, stimuli, points, faults = _fuzz_campaign_pieces(seed)
        rng = random.Random(seed)
        nets = range(circuit.num_nets)
        faults = faults + [
            BridgeFault(target=rng.choice(nets), victim=rng.choice(nets),
                        mode=mode) for mode in BRIDGE_MODES]
        for mem in circuit.memories:
            for _ in range(4):
                aw = rng.randrange(mem.depth)
                faults.append(MemCouplingFault(
                    target=mem.name,
                    aggressor=(aw, rng.randrange(mem.width)),
                    victim=(rng.choice((aw, rng.randrange(mem.depth))),
                            rng.randrange(mem.width))))
        rng.shuffle(faults)
        ri, rc = _run_both(circuit, stimuli, points, faults)
        assert _fault_records(ri) == _fault_records(rc), seed
        assert ri.outcomes() == rc.outcomes(), seed
        checked += bool(circuit.memories)
    assert checked


@pytest.mark.parametrize("seed", range(8))
def test_run_equals_a_step_loop(seed):
    """``CompiledSimulator.run`` over a packed stimulus table leaves the
    state a ``step`` loop leaves: every value word, flop, memory cell
    and toggle map, under random faults with flips and glitches in
    mid-run cycles and bridges, after a first ``step`` that had a
    glitch of its own, and with some ports left undriven."""
    circuit = fuzz_circuit(seed)
    machines = (2, 65, 130)[seed % 3]
    rng = random.Random(seed)
    cc = compile_circuit(circuit)
    sims = [CompiledSimulator(cc, machines=machines, collect_toggles=True)
            for _ in range(2)]
    _arm_random_faults(rng, circuit, sims, machines)
    glitched, aggressor, victim = rng.sample(range(circuit.num_nets), 3)
    widths = {n: len(bits) for n, bits in circuit.inputs.items()}
    stimuli = [{n: rng.getrandbits(w) for n, w in widths.items()
                if rng.random() < 0.8} for _ in range(12)]
    for sim in sims:
        sim.add_bridge(aggressor, victim, BRIDGE_MODES[seed % 3],
                       machines=1 << (machines - 1))
        sim.schedule_net_glitch(glitched, cycle=0, machines=1)
        sim.step(stimuli[0])
    sims[0].run(cc.pack_inputs(stimuli[1:]), len(stimuli) - 1)
    for inputs in stimuli[1:]:
        sims[1].step(inputs)
    ran, stepped = sims
    assert ran.cycle == stepped.cycle == len(stimuli)
    for name in ("_vals", "_flop_state", "_t_seen0", "_t_seen1"):
        assert np.array_equal(getattr(ran, name), getattr(stepped, name))
    for a, b in zip(ran._mem_store, stepped._mem_store):
        assert np.array_equal(a, b)


def _toggle_campaign_pieces(seed):
    """A bridge of every mode and a glitch on a primary-input net, each
    repeated over 150 lanes (three lane words), on the circuit of
    :func:`_multiword_campaign_pieces` under a quiet workload in which
    only ``in0`` moves, so the golden run leaves nets for the faults to
    toggle; toggle maps are collected."""
    circuit, stimuli, zones, points, _ = _multiword_campaign_pieces(seed)
    stimuli = [{port: value if port == "in0" else 0
                for port, value in cycle.items()} for cycle in stimuli]
    rng = random.Random(seed)
    nets = range(circuit.num_nets)
    faults = [BridgeFault(target=rng.choice(nets), victim=rng.choice(nets),
                          mode=mode) for mode in BRIDGE_MODES]
    inputs = [net for port in circuit.inputs.values() for net in port]
    faults.append(SetFault(target=rng.choice(inputs), offset=6))
    spec = CampaignSpec(circuit=circuit, stimuli=stimuli, zones=zones,
                        observation_points=points,
                        config=CampaignConfig(collect_toggles=True))
    return spec, CandidateList(faults=(faults * 38)[:150])


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_toggle_campaign_matches_oracle(seed):
    """Any-machine toggle maps of a one-pass, three-lane-word campaign
    with bridges in all three modes and a primary-input glitch: the
    compiled pass's ``seen0``/``seen1`` equal the interpreted oracle's,
    net for net."""
    spec, candidates = _toggle_campaign_pieces(seed)
    ri = run_interpreted(spec.manager(), candidates,
                         machines_per_pass=len(candidates.faults))
    rc = _run_compiled(spec, candidates)
    assert rc.passes == 1
    assert _fault_records(ri) == _fault_records(rc)
    assert (rc.seen0, rc.seen1) == (ri.seen0, ri.seen1)
    assert rc.toggled_nets() == ri.toggled_nets()
    assert 0 < len(rc.toggled_nets()) < spec.circuit.num_nets


def test_cycle_budget_inside_a_quiet_run_raises_at_the_budget(
        monkeypatch):
    """A budget that ends inside a stretch of cycles the C loop runs
    in one call: the pass raises when the budget's cycle would start,
    as the per-cycle ``step_eval`` does, and adds no fault record."""
    spec, candidates = _toggle_campaign_pieces(1)
    spec.stimuli = spec.stimuli * 4     # a long tail after cycle 6's SET
    faults = list(candidates.faults)
    stops: list[int] = []
    sims: list[CompiledSimulator] = []
    run = CompiledSimulator.run

    def spying_run(sim, table, cycles, probes=None, record=None,
                   activity=None):
        def logged(cycle, count):
            stops.append(cycle)
            record(cycle, count)
        sims.append(sim)
        run(sim, table, cycles, probes, logged, activity)

    monkeypatch.setattr(CompiledSimulator, "run", spying_run)
    spec.manager().run_batches(faults)
    events = {f.offset for f in faults if hasattr(f, "offset")}
    # the first cycle b that neither ends a recorded cycle's call nor
    # starts an event cycle, with cycle b - 2 not returning either
    budget = next(b for b in range(3, len(spec.stimuli))
                  if not {b - 2, b - 1} & set(stops)
                  and not {b - 1, b} & events)
    assert budget < len(spec.stimuli) - 1

    spec.config.cycle_budget = budget
    result = spec.manager().new_result()
    with pytest.raises(CycleBudgetExceeded,
                       match=f"budget of {budget} cycle"):
        spec.manager().run_batches(faults, into=result)
    assert result.results == []
    with pytest.raises(CycleBudgetExceeded,
                       match=f"budget of {budget} cycle"):
        run_interpreted(spec.manager(), candidates)
    assert sims[-1].cycle == budget


# ----------------------------------------------------------------------
# real designs: fmem subsystem + mini CPU
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fmem_env():
    return build_environment(
        MemorySubsystem(SubsystemConfig.small_improved()), quick=True)


def test_fmem_campaign_engines_identical(fmem_env):
    candidates = fmem_env.candidates()
    ri = run_interpreted(fmem_env.spec().manager(), candidates)
    rc = CampaignSupervisor(fmem_env.spec(), workers=1).run(candidates)
    assert _fault_records(ri) == _fault_records(rc)
    assert ri.outcomes() == rc.outcomes()
    assert ri.measured_dc() == rc.measured_dc()
    assert ri.measured_safe_fraction() == rc.measured_safe_fraction()
    assert ri.coverage.sens == rc.coverage.sens
    assert ri.coverage.obse == rc.coverage.obse
    assert ri.coverage.diag == rc.coverage.diag


def test_minicpu_campaign_engines_identical():
    cpu = MiniCpu(CpuConfig.lockstep_pair())
    circuit = cpu.circuit
    prog = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0), ("out",),
            ("ldi", 0), ("jnz", 0), ("out",)]
    stimuli = [cpu.idle(rst=1)] * 2 + [cpu.idle()] * 40
    points = [
        ObservationPoint(name="out", kind=ObservationKind.OUTPUT,
                         nets=tuple(circuit.outputs["out_port"])
                         + tuple(circuit.outputs["out_valid"])),
        ObservationPoint(name="lockstep",
                         kind=ObservationKind.ALARM,
                         nets=tuple(
                             circuit.outputs["alarm_lockstep"])),
    ]
    rng = random.Random(99)
    flops = [f.name for f in circuit.flops]
    ram = next(m for m in circuit.memories if "ram" in m.name)
    faults = [SeuFault(target=rng.choice(flops),
                       offset=rng.randrange(30)) for _ in range(25)]
    faults += [StuckNetFault(target=rng.randrange(circuit.num_nets),
                             value=rng.getrandbits(1))
               for _ in range(25)]
    faults += [MemFlipFault(target=ram.name,
                            word=rng.randrange(ram.depth),
                            bit=rng.randrange(ram.width),
                            offset=rng.randrange(30))
               for _ in range(10)]

    spec = CampaignSpec(
        circuit=circuit, stimuli=stimuli, observation_points=points,
        setup=MemoryImageSetup(mem_images={"imem/rom": assemble(prog)}))
    candidates = CandidateList(faults=faults)
    ri = run_interpreted(spec.manager(), candidates)
    rc = _run_compiled(spec, candidates)
    assert _fault_records(ri) == _fault_records(rc)
    assert ri.outcomes() == rc.outcomes()
    assert ri.measured_dc() == rc.measured_dc()
    assert ri.coverage == rc.coverage


# ----------------------------------------------------------------------
# sharded supervised campaign against the serial oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_campaign_engines_identical(fmem_env, workers):
    """DC/SFF and outcome tallies equal the oracle at any worker count."""
    candidates = fmem_env.candidates()
    spec = fmem_env.spec()
    reference = run_interpreted(spec.manager(), candidates)
    sharded = CampaignSupervisor(spec, workers=workers).run(candidates)

    assert _fault_records(sharded) == _fault_records(reference)
    assert sharded.outcomes() == reference.outcomes()
    assert sharded.measured_dc() == reference.measured_dc()
    assert sharded.measured_safe_fraction() == \
        reference.measured_safe_fraction()
