"""Differential properties of the netlist graph index.

:class:`~repro.hdl.netgraph.NetGraph` replaced the private adjacency
builds and walkers of the cone analysis, the effect prediction, the
diagnostic-only net split, the support-cone index and the compiler's
levelizer, and the zone extractor's critical-net and sub-block walks
over a per-net consumer map.  Those walkers live on in
``tests/graph_oracle.py``; on the random netlists of the compiled-kernel
differential fuzzer every walk of the shared graph must give their
results exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import CompileError, NetGraph, compile_circuit
from repro.hdl.netlist import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_OR,
    Circuit,
    Flop,
)
from repro.store.fingerprint import SupportIndex
from repro.zones.extractor import ZoneExtractor
from repro.zones import (
    ExtractionConfig,
    ObservationKind,
    ObservationPoint,
    ZoneSet,
    diagnostic_only_nets,
    extract_zones,
    predict_effects_table,
)

from .graph_oracle import (
    ConeAnalyzer,
    EffectPredictor,
    compiled_drivers,
    compiled_levels,
    critical_net_zones,
    diagnostic_only_nets as oracle_diagnostic_only_nets,
    subblock_zones,
    support_closures,
)
from .test_compiled_differential import fuzz_circuit


@st.composite
def circuits_with_nets(draw):
    """A fuzzed circuit and a few random net sets over it."""
    circuit = fuzz_circuit(draw(st.integers(0, 10_000)))
    nets = st.lists(st.integers(0, circuit.num_nets - 1), max_size=5)
    return circuit, [draw(nets) for _ in range(4)]


@settings(max_examples=60, deadline=None)
@given(circuits_with_nets())
def test_fanin_cones_match_oracle(case):
    circuit, root_sets = case
    graph = NetGraph(circuit)
    analyzer = ConeAnalyzer(circuit)
    for roots in root_sets:
        cone = analyzer.cone_of_nets(roots)
        assert graph.fanin_cone(roots) == (
            cone.gates, cone.boundary_nets, cone.depth)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_zone_cones_match_oracle(seed):
    circuit = fuzz_circuit(seed)
    zone_set = extract_zones(circuit)
    analyzer = ConeAnalyzer(circuit)
    for zone in zone_set.zones:
        expected = analyzer.cone_of_zone_inputs(zone)
        assert zone_set.cones[zone.name] == expected
        assert zone.cone_gates == analyzer.effective_gate_count(expected)
        assert zone.cone_inputs == len(expected.boundary_nets)
        assert zone.cone_depth == expected.depth


@settings(max_examples=60, deadline=None)
@given(circuits_with_nets())
def test_distances_match_oracle(case):
    circuit, seed_sets = case
    graph = NetGraph(circuit)
    predictor = EffectPredictor(circuit, [])
    for seeds in seed_sets:
        got = {node: d for node, d in graph.distances(seeds).items()
               if node < circuit.num_nets}
        assert got == predictor.distances_from(seeds)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_effects_table_matches_oracle(seed):
    circuit = fuzz_circuit(seed)
    zone_set = extract_zones(circuit)
    predictor = EffectPredictor(circuit, zone_set.observation_points)
    table = predict_effects_table(zone_set)
    assert list(table) == [zone.name for zone in zone_set.zones]
    for zone in zone_set.zones:
        assert table[zone.name] == predictor.predict(zone)


@st.composite
def circuits_with_points(draw):
    """A fuzzed circuit observed at random nets, some as alarms."""
    circuit = fuzz_circuit(draw(st.integers(0, 10_000)))
    nets = st.lists(st.integers(0, circuit.num_nets - 1), min_size=1,
                    max_size=3)
    kinds = st.sampled_from(list(ObservationKind))
    points = [ObservationPoint(name=f"p{i}", kind=draw(kinds),
                               nets=tuple(draw(nets)))
              for i in range(draw(st.integers(0, 5)))]
    return circuit, points


@settings(max_examples=80, deadline=None)
@given(circuits_with_points())
def test_diagnostic_only_nets_match_oracle(case):
    circuit, points = case
    zone_set = ZoneSet(circuit, [], points)
    assert diagnostic_only_nets(zone_set) == \
        oracle_diagnostic_only_nets(circuit, points)


@st.composite
def seeded_circuits(draw):
    circuit = fuzz_circuit(draw(st.integers(0, 10_000)))
    nets = draw(st.sets(st.integers(0, circuit.num_nets - 1),
                        max_size=4))
    mems = draw(st.sets(st.integers(0, len(circuit.memories) - 1),
                        max_size=1)) if circuit.memories else set()
    return circuit, nets, mems


@settings(max_examples=60, deadline=None)
@given(seeded_circuits())
def test_support_closures_match_oracle(case):
    circuit, nets, mems = case
    [cone] = SupportIndex(circuit).cones([(nets, mems)])
    assert (cone.forward, cone.support) == \
        support_closures(circuit, nets, mems)


def looped_circuit(seed: int):
    """:func:`fuzz_circuit` with sequential feedback, which the fuzzer
    never builds: every flop's ``d`` and memory's ``we`` rewired to one
    of the last fifth of the nets, which are mostly downstream of the
    flops (the ``y`` output XORs every ``q``), closing loops through
    flops and memory macros."""
    circuit = fuzz_circuit(seed)
    rng = random.Random(seed)
    late = range(circuit.num_nets * 4 // 5, circuit.num_nets)
    for flop in circuit.flops:
        flop.d = rng.choice(late)
    for mem in circuit.memories:
        mem.we = rng.choice(late)
    return circuit


def test_looped_corpus_has_cycles_through_flops_and_memories():
    through_flops = through_memories = 0
    for seed in range(40):
        circuit = looped_circuit(seed)
        comp, _ = NetGraph(circuit).components
        members: dict[int, list[int]] = {}
        for node, c in enumerate(comp):
            members.setdefault(c, []).append(node)
        n = circuit.num_nets
        for nodes in members.values():
            if len(nodes) > 1:
                through_memories += any(node >= n for node in nodes)
                through_flops += any(node < n for node in nodes)
    assert through_flops and through_memories


@st.composite
def seed_set_batches(draw):
    """A fuzzed circuit with feedback and 1-8 seed sets drawn from a
    few nets and memories, so the sets overlap.  (The acyclic fuzzed
    circuits are the single-set oracle test's.)"""
    circuit = looped_circuit(draw(st.integers(0, 10_000)))
    pool = draw(st.lists(st.integers(0, circuit.num_nets - 1),
                         min_size=1, max_size=6))
    mems = st.sets(st.sampled_from(range(len(circuit.memories))),
                   max_size=1) if circuit.memories else st.just(set())
    sets = draw(st.lists(st.tuples(
        st.sets(st.sampled_from(pool), min_size=1, max_size=4), mems),
        min_size=1, max_size=8))
    return circuit, sets


@settings(max_examples=80, deadline=None)
@given(seed_set_batches())
def test_batched_support_closures_match_oracle(case):
    """One sweep over many seed sets gives each set the closures of its
    own walk, and the cone fingerprint of a batch of one."""
    circuit, sets = case
    cones = SupportIndex(circuit).cones(sets)
    assert len(cones) == len(sets)
    for (nets, mems), cone in zip(sets, cones):
        assert (cone.forward, cone.support) == \
            support_closures(circuit, nets, mems)
        [alone] = SupportIndex(circuit).cones([(nets, mems)])
        assert cone.fingerprint == alone.fingerprint


def test_more_seed_sets_than_a_machine_word():
    circuit = looped_circuit(3)
    sets = [({net}, set()) for net in range(circuit.num_nets)] * 3
    assert len(sets) > 64
    for (nets, mems), cone in zip(sets, SupportIndex(circuit).cones(sets)):
        assert (cone.forward, cone.support) == \
            support_closures(circuit, nets, mems)


def test_components_of_a_long_loop_need_no_recursion():
    """A 5000-buffer chain closed by a flop is one component; the
    iterative walk does not hit the interpreter's recursion limit."""
    c = Circuit(name="ring")
    q = c.new_net("q")
    net = q
    for i in range(5000):
        out = c.new_net(f"b{i}")
        c.add_gate(OP_BUF, (net,), out)
        net = out
    c.flops.append(Flop("r", d=net, q=q))
    comp, order = NetGraph(c).components
    assert set(comp) == {0} and sorted(order) == list(range(c.num_nets))
    [cone] = SupportIndex(c).cones([({q}, set())])
    assert cone.forward == cone.support == b"\x01" * c.num_nets


def assert_levels_match(circuit):
    levels = compiled_levels(circuit, compiled_drivers(circuit))
    compiled = compile_circuit(circuit)
    assert compiled.depth == (max(levels) + 1 if levels else 0)
    for gi, gate in enumerate(circuit.gates):
        if gate.op not in (OP_CONST0, OP_CONST1):
            assert compiled.bucket_of[gate.out] == levels[gi] + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_compiled_levels_match_oracle(seed):
    assert_levels_match(fuzz_circuit(seed))


def test_constants_and_undriven_nets_are_level_zero_sources():
    c = Circuit(name="srcs")
    x, u, k, a, y = (c.new_net(name) for name in "xukay")
    c.inputs["x"] = [x]
    c.add_gate(OP_CONST1, (), k)
    c.add_gate(OP_AND, (u, k), a)       # u: driven by nothing
    c.add_gate(OP_OR, (a, x), y)
    c.outputs["y"] = [y]
    assert_levels_match(c)
    assert NetGraph(c).depth[a] == 2    # a constant is depth 1


def test_loop_diagnostic_matches_oracle():
    """A combinational loop raises the oracle's E120 diagnostic."""
    c = Circuit(name="loop")
    x, a, b, y = (c.new_net(name) for name in "xaby")
    c.inputs["x"] = [x]
    c.add_gate(OP_AND, (x, b), a)
    c.add_gate(OP_OR, (a, x), b)
    c.add_gate(OP_AND, (b, x), y)
    c.outputs["y"] = [y]
    with pytest.raises(CompileError) as expected:
        compiled_levels(c, compiled_drivers(c))
    with pytest.raises(CompileError) as got:
        compile_circuit(c)
    assert str(got.value) == str(expected.value)
    assert got.value.code == expected.value.code == "E120"


@st.composite
def circuits_with_paths(draw):
    """A fuzzed circuit whose gates and flops sit in random scopes of
    a small hierarchy (some outside any scope), plus a few extra
    output ports, so blocks both feed and use each other."""
    circuit = fuzz_circuit(draw(st.integers(0, 10_000)))
    scopes = ["", "a", "a/x", "a/x/p", "a/y", "b", "b/x"]
    for item in (*circuit.gates, *circuit.flops):
        item.path = draw(st.sampled_from(scopes))
    nets = st.integers(0, circuit.num_nets - 1)
    for k in range(draw(st.integers(0, 3))):
        circuit.outputs[f"po{k}"] = draw(st.lists(nets, min_size=1,
                                                  max_size=3))
    return circuit


@settings(max_examples=80, deadline=None)
@given(circuits_with_paths(), st.integers(1, 6), st.integers(1, 3))
def test_critical_net_and_subblock_zones_match_oracle(circuit, fanout,
                                                      depth):
    """Both zone kinds from the graph equal the consumer-map walks:
    the critical nets (output pins counted as loads) in the map's
    insertion order with their fan-out and driver kind, and every
    block's outputs, at each fan-out threshold and scope depth."""
    config = ExtractionConfig(critical_fanout=fanout,
                              subblock_depth=depth)
    extractor = ZoneExtractor(circuit, config)
    graph = NetGraph(circuit)
    assert extractor._critical_net_zones(graph) == \
        critical_net_zones(circuit, config)
    assert extractor._subblock_zones(graph) == \
        subblock_zones(circuit, config)
