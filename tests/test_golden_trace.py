"""The derived golden trace equals a per-cycle fault-free replay.

:func:`~repro.faultinjection.parallel.compute_golden_trace` derives the
golden OBSE/DIAG bits from the per-net first events that the
operational-profile replay records (``OperationalProfile.activity``),
for any observation-point set, and for any prefix of the workload
given the first events of the whole of it.  The oracle is the
per-cycle loop that used to replay the workload a second time for
those bits, kept here unchanged.  Hypothesis draws the point sets
(random nets, any kind, empty points included) and the prefix length
on fuzzed netlists, on the fmem subsystem and on the lock-step mini
CPU.

The same per-net first events are the validation flow's toggle
coverage (step b): a net toggled iff ``first_change[net] >= 0``, an
output port iff any of its nets did.  Their oracle is the
toggle-collecting replay (``Simulator(collect_toggles=True)``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinjection import (
    FaultInjectionManager,
    MemoryImageSetup,
    build_environment,
    compute_golden_trace,
    profile_workload,
)
from repro.faultinjection.validation import _toggled_outputs
from repro.soc import MemorySubsystem, SubsystemConfig, \
    validation_workload
from repro.soc.minicpu import CpuConfig, MiniCpu, assemble
from repro.zones.model import ObservationKind, ObservationPoint

from .simulator_oracle import Simulator
from .test_compiled_differential import fuzz_circuit

MINICPU_PROGRAM = [("ldi", 5), ("st", 0), ("ldi", 3), ("add", 0),
                   ("out",), ("ldi", 0), ("jnz", 0), ("out",)]


def replayed_golden(manager) -> tuple[int, tuple, tuple]:
    """The oracle: one fault-free run, recording activity bits."""
    sim = Simulator(manager.circuit, machines=1)
    if manager.setup is not None:
        manager.setup(sim)
    stimuli = manager.stimuli
    func_nets = {p.name: list(p.nets) for p in manager.functional}
    diag_nets = {p.name: list(p.nets) for p in manager.diagnostic}
    prev: dict[str, int] = {}
    obse: set[str] = set()
    diag: set[str] = set()
    for inputs in stimuli:
        sim.step_eval(inputs)
        for name, nets in func_nets.items():
            value = sim.value_of(nets)
            if name in prev and prev[name] != value:
                obse.add(name)
            prev[name] = value
        for name, nets in diag_nets.items():
            if name not in diag and \
                    any(sim.peek(net) & 1 for net in nets):
                diag.add(name)
        sim.step_commit()
    return len(stimuli), tuple(sorted(obse)), tuple(sorted(diag))


def _draw_points(data, circuit, fixed=()) -> list[ObservationPoint]:
    """A random subset of ``fixed`` plus random-net points of every
    kind (zero-net points included)."""
    points = list(data.draw(st.lists(st.sampled_from(fixed),
                                     unique_by=lambda p: p.name,
                                     max_size=len(fixed)))) \
        if fixed else []
    nets = st.lists(st.integers(0, circuit.num_nets - 1), max_size=3)
    # OUTPUT and ALARM points enter the golden trace; the other kinds
    # must be ignored
    kinds = st.sampled_from([ObservationKind.OUTPUT,
                             ObservationKind.ALARM]) \
        | st.sampled_from(list(ObservationKind))
    for i in range(data.draw(st.integers(0, 8))):
        points.append(ObservationPoint(
            name=f"random{i}", kind=data.draw(kinds),
            nets=tuple(data.draw(nets))))
    return points


def _draw_prefix(data, stimuli, activity):
    """A prefix length of the workload: the whole (``None``), any
    length, or one landing on (or just after) a recorded first event,
    where an off-by-one would show."""
    edges = sorted({c + d for c in (*activity.first_change,
                                    *activity.first_one)
                    for d in (0, 1) if c >= 0})
    return data.draw(st.none() | st.integers(0, len(stimuli) + 2)
                     | st.sampled_from(edges))


def _check(circuit, stimuli, setup, activity, points, length):
    """The first ``length`` cycles as the workload, ``activity``
    recorded over all of ``stimuli``."""
    manager = FaultInjectionManager(
        circuit, stimuli[:length], observation_points=points,
        setup=setup)
    derived = compute_golden_trace(manager, activity)
    assert (derived.cycles, derived.obse_active, derived.diag_active) \
        == replayed_golden(manager)


@given(seed=st.integers(0, 100_000), data=st.data())
@settings(max_examples=200, deadline=None)
def test_derived_golden_equals_replay_on_fuzzed_netlists(seed, data):
    circuit = fuzz_circuit(seed)
    rng = random.Random(seed)
    widths = {n: len(b) for n, b in circuit.inputs.items()}
    stimuli = [{n: rng.getrandbits(w) for n, w in widths.items()}
               for _ in range(12)]
    activity = profile_workload(circuit, stimuli).activity
    _check(circuit, stimuli, None, activity,
           _draw_points(data, circuit),
           _draw_prefix(data, stimuli, activity))


@pytest.fixture(scope="module")
def fmem():
    env = build_environment(
        MemorySubsystem(SubsystemConfig.small_improved()), quick=True)
    return (env.circuit, env.stimuli, env.setup,
            env.profile().activity,
            tuple(env.zone_set.observation_points))


@pytest.fixture(scope="module")
def minicpu():
    cpu = MiniCpu(CpuConfig.lockstep_pair())
    circuit = cpu.circuit
    setup = MemoryImageSetup(
        mem_images={"imem/rom": assemble(MINICPU_PROGRAM)})
    stimuli = [cpu.idle(rst=1)] * 2 + [cpu.idle()] * 80
    points = (
        ObservationPoint(name="out", kind=ObservationKind.OUTPUT,
                         nets=tuple(circuit.outputs["out_port"])
                         + tuple(circuit.outputs["out_valid"])),
        ObservationPoint(name="lockstep", kind=ObservationKind.ALARM,
                         nets=tuple(circuit.outputs["alarm_lockstep"])),
    )
    return (circuit, stimuli, setup,
            profile_workload(circuit, stimuli, setup=setup).activity,
            points)


@pytest.mark.parametrize("design", ["fmem", "minicpu"])
def test_derived_golden_equals_replay_on_real_designs(design, request):
    circuit, stimuli, setup, activity, fixed = \
        request.getfixturevalue(design)

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def check(data):
        _check(circuit, stimuli, setup, activity,
               _draw_points(data, circuit, fixed),
               _draw_prefix(data, stimuli, activity))

    check()


def test_profile_records_first_events_per_net(minicpu):
    """Every net's first events, checked against a plain replay."""
    circuit, stimuli, setup, activity, _ = minicpu
    sim = Simulator(circuit, machines=1)
    setup(sim)
    first_change = [-1] * circuit.num_nets
    first_one = [-1] * circuit.num_nets
    last = None
    for cycle, inputs in enumerate(stimuli):
        sim.step_eval(inputs)
        now = list(sim._values)
        for net, value in enumerate(now):
            if last is not None and value != last[net] and \
                    first_change[net] < 0:
                first_change[net] = cycle
            if value and first_one[net] < 0:
                first_one[net] = cycle
        last = now
        sim.step_commit()
    assert activity.first_change == first_change
    assert activity.first_one == first_one
    assert any(c > 0 for c in first_change)
    assert any(c < 0 for c in first_one)


# ----------------------------------------------------------------------
# toggle coverage from the same replay
# ----------------------------------------------------------------------
def replayed_toggles(circuit, stimuli, setup) -> tuple[set, set]:
    """The oracle: a toggle-collecting replay.  Returns the nets seen
    at both values and the output ports whose value changed."""
    sim = Simulator(circuit, machines=1, collect_toggles=True)
    if setup is not None:
        setup(sim)
    prev: dict[str, int] = {}
    ports: set[str] = set()
    for inputs in stimuli:
        sim.step_eval(inputs)
        for name, nets in circuit.outputs.items():
            value = sim.value_of(nets)
            if name in prev and prev[name] != value:
                ports.add(name)
            prev[name] = value
        sim.step_commit()
    nets = {net for net in range(circuit.num_nets)
            if sim._seen0[net] and sim._seen1[net]}
    return nets, ports


def derived_toggles(circuit, activity) -> tuple[set, set]:
    return ({net for net, first in enumerate(activity.first_change)
             if first >= 0},
            _toggled_outputs(circuit, activity))


@given(seed=st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_derived_toggles_equal_replay_on_fuzzed_netlists(seed):
    circuit = fuzz_circuit(seed)
    rng = random.Random(seed)
    widths = {n: len(b) for n, b in circuit.inputs.items()}
    stimuli = [{n: rng.getrandbits(w) for n, w in widths.items()}
               for _ in range(rng.randrange(1, 16))]
    activity = profile_workload(circuit, stimuli).activity
    assert derived_toggles(circuit, activity) == \
        replayed_toggles(circuit, stimuli, None)


def test_derived_toggles_equal_replay_on_fmem():
    """Step b's own input: the full workload of small fmem."""
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    circuit = sub.circuit
    stimuli = list(validation_workload(sub, quick=False))
    setup = sub.preload_image()

    activity = profile_workload(circuit, stimuli, setup=setup).activity
    nets, ports = derived_toggles(circuit, activity)
    assert (nets, ports) == replayed_toggles(circuit, stimuli, setup)
    assert ports and len(nets) < circuit.num_nets
