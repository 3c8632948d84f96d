"""Property tests for the compiler front-end plus compiled-engine
regression anchors.

* levelization yields a valid topological order for any fuzzed DAG;
* combinational loops are rejected at compile time with the stable
  coded diagnostic ``E120`` — not a raw traceback;
* ``decompile(compile_circuit(c))`` preserves ``structural_hash`` (the
  content address the campaign store keys on);
* the compiled engine reproduces the committed golden campaign file
  byte for byte;
* a store populated by one campaign is served entirely from cache by
  an identical rerun — zero faults re-simulated;
* the store is engine-agnostic: outcomes written by the compiled kernel
  serve the interpreted oracle and vice versa.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinjection import (
    CampaignSpec,
    CampaignSupervisor,
    CandidateList,
    StuckNetFault,
    build_environment,
)
from repro.hdl import compile_circuit
from repro.hdl.compiled import CompileError, LOOP_CODE, decompile
from repro.hdl.netlist import OP_AND, OP_CONST0, OP_CONST1, OP_OR, \
    Circuit, NetlistError
from repro.soc import MemorySubsystem, SubsystemConfig
from repro.soc.minicpu import CpuConfig, MiniCpu
from repro.store import CampaignCache
from repro.zones.model import ObservationKind, ObservationPoint

from .campaign_oracle import run_interpreted
from .simulator_oracle import Simulator
from .test_compiled_differential import fuzz_circuit

DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# levelization: topological order for any fuzzed DAG
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_levelization_is_topological(seed):
    """Every gate is scheduled strictly after all of its inputs.

    ``bucket_of`` maps original nets to overlay buckets: 0 for sources
    (inputs, flop outputs, memory read data, constants) and
    ``level + 1`` for gate outputs — a valid schedule therefore has
    ``bucket_of[gate.out] > bucket_of[input]`` for every gate edge.
    """
    circuit = fuzz_circuit(seed)
    cc = compile_circuit(circuit)
    bucket = cc.bucket_of
    logic_driven = {g.out for g in circuit.gates
                    if g.op not in (OP_CONST0, OP_CONST1)}
    for gate in circuit.gates:
        if gate.op in (OP_CONST0, OP_CONST1):
            # constants are overlaid with the sources, before level 0
            assert bucket[gate.out] == 0
            continue
        assert bucket[gate.out] >= 1
        for net in gate.inputs:
            assert bucket[gate.out] > bucket[net], \
                (seed, gate.op, gate.out, net)
    for net in range(circuit.num_nets):
        if net not in logic_driven:
            assert bucket[net] == 0, (seed, net)


def test_combinational_loop_rejected_with_coded_diagnostic():
    c = Circuit(name="loop")
    x = c.new_net("x")
    a = c.new_net("a")
    b = c.new_net("b")
    c.inputs["x"] = [x]
    c.add_gate(OP_AND, (x, b), a)
    c.add_gate(OP_OR, (a, x), b)
    c.outputs["y"] = [b]
    with pytest.raises(CompileError) as exc:
        compile_circuit(c)
    assert exc.value.code == LOOP_CODE == "E120"


def _campaign_over(circuit, net, monkeypatch):
    """Run a one-fault campaign over ``circuit``; starting a worker
    fails the test."""
    monkeypatch.setattr(CampaignSupervisor, "_spawn",
                        lambda self, job: pytest.fail("a worker started"))
    points = [ObservationPoint(name="y", kind=ObservationKind.OUTPUT,
                               nets=tuple(circuit.outputs["y"]))]
    CampaignSupervisor(
        CampaignSpec(circuit=circuit, stimuli=[{"x": 1}],
                     observation_points=points),
        workers=1).run(CandidateList(faults=[StuckNetFault(target=net)]))


def test_multi_driven_netlist_is_rejected_not_simulated(monkeypatch):
    """A campaign over a netlist the compiler cannot renumber raises
    the ``NetlistError`` in the supervisor, before any worker starts
    (nothing is quarantined); no other engine runs it instead."""
    c = Circuit(name="multi")
    x = c.new_net("x")
    y = c.new_net("y")
    c.inputs["x"] = [x]
    c.add_gate(OP_AND, (x, x), y)
    c.add_gate(OP_OR, (x, x), y)
    c.outputs["y"] = [y]
    with pytest.raises(NetlistError, match="multiple drivers"):
        _campaign_over(c, x, monkeypatch)


def test_combinational_loop_campaign_raises_e120(monkeypatch):
    c = Circuit(name="loop")
    x = c.new_net("x")
    a = c.new_net("a")
    b = c.new_net("b")
    c.inputs["x"] = [x]
    c.add_gate(OP_AND, (x, b), a)
    c.add_gate(OP_OR, (a, x), b)
    c.outputs["y"] = [b]
    with pytest.raises(CompileError) as exc:
        _campaign_over(c, x, monkeypatch)
    assert exc.value.code == LOOP_CODE


# ----------------------------------------------------------------------
# compile -> decompile round-trip: content address preserved
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_roundtrip_preserves_structural_hash(seed):
    circuit = fuzz_circuit(seed)
    restored = decompile(compile_circuit(circuit))
    assert restored.structural_hash() == circuit.structural_hash()


@pytest.mark.parametrize("circuit_fn", [
    lambda: MemorySubsystem(SubsystemConfig.small_improved()).circuit,
    lambda: MiniCpu(CpuConfig.lockstep_pair()).circuit,
], ids=["fmem", "minicpu"])
def test_roundtrip_preserves_structural_hash_real_designs(circuit_fn):
    circuit = circuit_fn()
    restored = decompile(compile_circuit(circuit))
    assert restored.structural_hash() == circuit.structural_hash()


@given(seed=st.integers(0, 100_000))
@settings(max_examples=10, deadline=None)
def test_decompiled_circuit_simulates_identically(seed):
    """The round-tripped netlist is behaviourally the original."""
    import random
    circuit = fuzz_circuit(seed)
    restored = decompile(compile_circuit(circuit))
    a = Simulator(circuit)
    b = Simulator(restored)
    rng = random.Random(seed)
    widths = {n: len(v) for n, v in circuit.inputs.items()}
    for _ in range(6):
        stim = {n: rng.getrandbits(w) for n, w in widths.items()}
        a.step_eval(stim)
        b.step_eval(stim)
        for name in circuit.outputs:
            assert a.output(name) == b.output(name)
        a.step_commit()
        b.step_commit()


# ----------------------------------------------------------------------
# golden-file regression: compiled engine, byte-identical JSON
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fmem_env():
    return build_environment(
        MemorySubsystem(SubsystemConfig.small_improved()), quick=True)


def _summary(campaign) -> dict:
    from .test_parallel_campaign import campaign_summary
    return campaign_summary(campaign)


def test_compiled_campaign_matches_golden_file(fmem_env):
    """The compiled engine reproduces the frozen fmem campaign JSON
    byte for byte (canonical serialization of both sides)."""
    campaign = CampaignSupervisor(fmem_env.spec(), workers=1).run(
        fmem_env.candidates())
    expected = json.loads(
        (DATA / "fmem_small_campaign.json").read_text())
    canon = dict(sort_keys=True, separators=(",", ":"))
    assert json.dumps(_summary(campaign), **canon) == \
        json.dumps(expected, **canon)


# ----------------------------------------------------------------------
# cache: a cold run fully warms its rerun
# ----------------------------------------------------------------------
def test_cache_cold_then_warm(fmem_env, tmp_path):
    """Outcomes stored by a cold run fully warm an identical rerun:
    the second run simulates nothing and returns the same records."""
    candidates = fmem_env.candidates()

    def run(cache):
        return CampaignSupervisor(fmem_env.spec(),
                                  cache=cache).run(candidates)

    with CampaignCache(tmp_path / "store") as cache:
        first = run(cache)
        assert cache.stats.simulated == len(candidates.faults)

    with CampaignCache(tmp_path / "store") as cache:
        second = run(cache)
        assert cache.stats.simulated == 0
        assert cache.stats.misses == 0
        assert cache.stats.hits == len(candidates.faults)

    rows = lambda c: [(r.fault.name, r.sens_cycle, r.obse_cycle,
                       r.diag_cycle, r.first_alarm, r.effects)
                      for r in c.results]
    assert rows(first) == rows(second)
    assert first.outcomes() == second.outcomes()


# ----------------------------------------------------------------------
# cache interop: the store is engine-agnostic
# ----------------------------------------------------------------------
def _interpreted_through_store(env, candidates, cache):
    """The interpreted oracle behind the supervisor's store plan:
    cached rows are served, misses are simulated by the interpreted
    pass loop and persisted under the same fingerprints."""
    from repro.store.cache import _rebuild
    from repro.store.fingerprint import FingerprintContext
    manager = env.spec().manager()
    faults = list(candidates.faults)
    plan = cache.plan(FingerprintContext.from_spec(env.spec()), faults)
    served = {i: _rebuild(faults[i], row)
              for i, row in plan.cached.items()}
    if plan.misses:
        oracle = run_interpreted(manager, CandidateList(
            faults=[faults[i] for i in plan.misses]))
        fresh = dict(zip(plan.misses, oracle.results))
        cache._persist([(plan.fingerprints[i], res)
                        for i, res in fresh.items()])
        cache.stats.simulated += len(fresh)
        served.update(fresh)
    result = manager.new_result()
    manager._init_coverage(result.coverage, candidates)
    result.results = [served[i] for i in range(len(faults))]
    manager.fill_coverage(result)
    return result


@pytest.mark.parametrize("cold,warm", [
    ("compiled", "interpreted"),
    ("interpreted", "compiled"),
], ids=["compiled-then-interpreted", "interpreted-then-compiled"])
def test_cache_interop_between_engines(fmem_env, tmp_path, cold, warm):
    """Outcomes stored by one engine fully warm the other: the engine
    never enters the fingerprint, so the second run simulates
    nothing."""
    candidates = fmem_env.candidates()

    def run(engine, cache):
        if engine == "interpreted":
            return _interpreted_through_store(fmem_env, candidates, cache)
        return CampaignSupervisor(fmem_env.spec(),
                                  cache=cache).run(candidates)

    with CampaignCache(tmp_path / "store") as cache:
        first = run(cold, cache)
        assert cache.stats.simulated == len(candidates.faults)

    with CampaignCache(tmp_path / "store") as cache:
        second = run(warm, cache)
        assert cache.stats.simulated == 0
        assert cache.stats.misses == 0
        assert cache.stats.hits == len(candidates.faults)

    rows = lambda c: [(r.fault.name, r.sens_cycle, r.obse_cycle,
                       r.diag_cycle, r.first_alarm, r.effects)
                      for r in c.results]
    assert rows(first) == rows(second)
    assert first.outcomes() == second.outcomes()
