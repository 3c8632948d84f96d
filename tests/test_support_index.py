"""Property tests for the support-cone index behind fault fingerprints.

:class:`~repro.store.fingerprint.SupportIndex` walks integer adjacency
lists over a ``bytearray`` mark and assembles each cone's canonical
document from precomputed JSON fragments.  Both are checked here on
the random netlists of the compiled-kernel differential fuzzer against
a naive reference kept in this file: a breadth-first search over
``graph_oracle.fanout_map`` / ``Circuit.driver_map``, and ``json.dumps`` of
the sorted cone records.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.netlist import OP_NAMES
from repro.store.fingerprint import SupportIndex, digest

from .graph_oracle import fanout_map
from .test_compiled_differential import fuzz_circuit


# ----------------------------------------------------------------------
# the naive reference
# ----------------------------------------------------------------------
def reference_forward(circuit, nets, mems):
    fanout = fanout_map(circuit)
    out_nets, out_mems = set(nets), set(mems)
    queue = list(nets)
    for mi in mems:
        queue.extend(circuit.memories[mi].rdata)
    while queue:
        net = queue.pop()
        out_nets.add(net)
        for desc in fanout.get(net, ()):
            if desc[0] == "gate":
                new = [circuit.gates[desc[1]].out]
            elif desc[0] == "flop":
                new = [circuit.flops[desc[1]].q]
            elif desc[0] == "mem":
                out_mems.add(desc[1])
                new = list(circuit.memories[desc[1]].rdata)
            else:
                new = []
            queue.extend(n for n in new if n not in out_nets)
    return out_nets, out_mems


def reference_backward(circuit, nets, mems):
    drivers = circuit.driver_map()
    out_nets, out_mems = set(nets), set()
    queue = list(nets)

    def add_mem(mi):
        if mi not in out_mems:
            out_mems.add(mi)
            mem = circuit.memories[mi]
            queue.extend((*mem.addr, *mem.wdata, mem.we))

    for mi in mems:
        add_mem(mi)
    while queue:
        net = queue.pop()
        out_nets.add(net)
        desc = drivers.get(net)
        if desc is None:
            continue
        if desc[0] == "gate":
            queue.extend(circuit.gates[desc[1]].inputs)
        elif desc[0] == "flop":
            flop = circuit.flops[desc[1]]
            queue.extend(n for n in (flop.d, flop.en, flop.rst)
                         if n is not None)
        elif desc[0] == "mem":
            add_mem(desc[1])
    return out_nets, out_mems


def reference_support(circuit, nets, mems):
    return reference_backward(circuit,
                              *reference_forward(circuit, nets, mems))


def reference_canonical(circuit, nets, mems):
    name_of = circuit.net_names

    def names(seq):
        return [name_of[n] for n in seq]

    return {
        "gates": sorted(
            (name_of[g.out], OP_NAMES[g.op], names(g.inputs))
            for g in circuit.gates if g.out in nets),
        "flops": sorted(
            (f.name, name_of[f.d], name_of[f.q],
             None if f.en is None else name_of[f.en],
             None if f.rst is None else name_of[f.rst], f.init)
            for f in circuit.flops if f.q in nets),
        "memories": sorted(
            (m.name, m.depth, m.width, names(m.addr), names(m.wdata),
             name_of[m.we], names(m.rdata))
            for i, m in enumerate(circuit.memories) if i in mems),
        "inputs": {
            port: [[bit, name_of[n]]
                   for bit, n in enumerate(port_nets) if n in nets]
            for port, port_nets in sorted(circuit.inputs.items())
            if any(n in nets for n in port_nets)},
    }


def decode(index, mark):
    """The ``(nets, memory indices)`` a cone's node mark covers."""
    n = index.num_nets
    return ({i for i in range(n) if mark[i]},
            {i - n for i in range(n, len(mark)) if mark[i]})


def assert_matches_reference(circuit, nets, mems):
    index = SupportIndex(circuit)
    [cone] = index.cones([(nets, mems)])
    assert decode(index, cone.forward) == \
        reference_forward(circuit, nets, mems)
    support = reference_support(circuit, nets, mems)
    assert decode(index, cone.support) == support
    assert cone.fingerprint == digest(
        reference_canonical(circuit, *support))


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@st.composite
def seeded_circuits(draw):
    circuit = fuzz_circuit(draw(st.integers(0, 10_000)))
    nets = draw(st.sets(st.integers(0, circuit.num_nets - 1),
                        max_size=4))
    mems = draw(st.sets(st.integers(0, len(circuit.memories) - 1),
                        max_size=1)) if circuit.memories else set()
    return circuit, nets, mems


@settings(max_examples=80, deadline=None)
@given(seeded_circuits())
def test_closures_match_naive_bfs(case):
    circuit, nets, mems = case
    assert_matches_reference(circuit, nets, mems)


def _corpus():
    return [fuzz_circuit(seed) for seed in range(40)]


def test_corpus_covers_enables_resets_and_memories():
    """The structures the walks special-case all occur in the fuzzed
    netlists the properties run on."""
    corpus = _corpus()
    assert any(f.en is not None for c in corpus for f in c.flops)
    assert any(f.rst is not None for c in corpus for f in c.flops)
    assert any(c.memories for c in corpus)


def test_flop_enable_and_reset_seeds():
    for circuit in _corpus():
        for flop in circuit.flops:
            for net in (flop.en, flop.rst, flop.q):
                if net is not None:
                    assert_matches_reference(circuit, {net}, set())


def test_memory_and_memory_driven_seeds():
    for circuit in _corpus():
        for mi, mem in enumerate(circuit.memories):
            assert_matches_reference(circuit, set(), {mi})
            assert_matches_reference(circuit, {mem.rdata[0]}, set())
            assert_matches_reference(circuit, {mem.we}, {mi})


def test_fragments_sort_like_json_records():
    """Names whose JSON escapes sort differently from the names
    themselves (quotes, control characters, non-ASCII) and names that
    prefix each other: the fragment order is the records' order."""
    rng = random.Random(5)
    alphabet = ['a', 'a"', 'a!', 'a ', 'ab', '\x01', 'é', '\\', 'z']
    for seed in range(10):
        circuit = fuzz_circuit(seed)
        circuit.net_names = [
            rng.choice(alphabet) + rng.choice(alphabet) + str(i)
            for i in range(circuit.num_nets)]
        for net in rng.sample(range(circuit.num_nets), 5):
            assert_matches_reference(circuit, {net}, set())
        assert_matches_reference(circuit, set(range(circuit.num_nets)),
                                 set(range(len(circuit.memories))))
