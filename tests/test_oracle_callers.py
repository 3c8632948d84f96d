"""The compiled simulator's production callers against the interpreted
oracle: SET derating, VCD tracing and toggle coverage.

Each of these once ran on the interpreted simulator and now runs on
:class:`~repro.hdl.compiled.CompiledSimulator`.  The suites below run
the same measurement on the oracle of ``tests/simulator_oracle.py`` and
require identical results, on the small fmem design and on fuzzed
netlists (the generator of ``test_compiled_differential.py``).
"""

import random

import pytest

import repro.analysis.derating as derating
from repro.analysis import measure_set_derating
from repro.faultinjection import measure_toggle_coverage
from repro.hdl import VcdTracer, trace_workload
from repro.soc import (
    MemorySubsystem,
    SubsystemConfig,
    random_traffic,
    validation_workload,
)

from .simulator_oracle import Simulator
from .test_compiled_differential import MACHINE_SWEEP, fuzz_circuit

FUZZ_SEEDS = range(6)


@pytest.fixture(scope="module")
def fmem():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    return (sub.circuit, list(validation_workload(sub, quick=True)),
            sub.preload_image())


def fuzz_design(seed: int):
    circuit = fuzz_circuit(seed)
    rng = random.Random(seed)
    widths = {n: len(b) for n, b in circuit.inputs.items()}
    stimuli = [{n: rng.getrandbits(w) for n, w in widths.items()}
               for _ in range(rng.randrange(8, 24))]
    return circuit, stimuli, None


# ----------------------------------------------------------------------
# SET derating
# ----------------------------------------------------------------------
def oracle_derating(monkeypatch, *args, **kwargs):
    """``measure_set_derating`` with the oracle in place of the kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(derating, "compile_circuit", lambda c: c)
        patch.setattr(derating, "CompiledSimulator", Simulator)
        return measure_set_derating(*args, **kwargs)


def test_derating_equals_oracle_on_fmem(fmem, monkeypatch):
    circuit, stimuli, setup = fmem
    kw = dict(samples=100, seed=3, setup=setup)
    result = measure_set_derating(circuit, stimuli, **kw)
    assert result.injections == 100 and result.latched > 0
    assert result == oracle_derating(monkeypatch, circuit, stimuli, **kw)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_derating_equals_oracle_on_fuzzed_netlists(seed, monkeypatch):
    circuit, stimuli, _ = fuzz_design(seed)
    kw = dict(samples=70, seed=seed, settle_cycles=3,
              machines_per_pass=MACHINE_SWEEP[seed % len(MACHINE_SWEEP)])
    assert measure_set_derating(circuit, stimuli, **kw) == \
        oracle_derating(monkeypatch, circuit, stimuli, **kw)


# ----------------------------------------------------------------------
# VCD tracing
# ----------------------------------------------------------------------
def oracle_vcd(circuit, stimuli, signals=None, setup=None) -> str:
    sim = Simulator(circuit)
    if setup is not None:
        setup(sim)
    tracer = VcdTracer(circuit, signals)
    for inputs in stimuli:
        sim.step_eval(inputs)
        tracer.sample(sim)
        sim.step_commit()
    return tracer.dumps()


def test_trace_workload_equals_oracle_on_fmem():
    sub = MemorySubsystem(SubsystemConfig.small_improved())
    stimuli = list(random_traffic(sub, n_ops=12, seed=5))
    setup = sub.preload_image()

    inner = sub.circuit.net_names[sub.circuit.flops[0].q]
    for signals in (None, ["haddr", "hrdata", "alarm_ce", inner]):
        text = trace_workload(sub.circuit, stimuli, signals=signals,
                              setup=setup)
        assert text == oracle_vcd(sub.circuit, stimuli, signals, setup)
        assert text.count("\n#") > 2


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_trace_workload_equals_oracle_on_fuzzed_netlists(seed):
    circuit, stimuli, _ = fuzz_design(seed)
    assert trace_workload(circuit, stimuli) == \
        oracle_vcd(circuit, stimuli)


# ----------------------------------------------------------------------
# toggle coverage
# ----------------------------------------------------------------------
def assert_toggles_equal_oracle(circuit, stimuli, setup):
    report = measure_toggle_coverage(circuit, stimuli, setup=setup)
    sim = Simulator(circuit, collect_toggles=True)
    if setup is not None:
        setup(sim)
    for inputs in stimuli:
        sim.step(inputs)
    assert (report.toggled, report.total) == sim.toggle_report()
    assert report.untoggled == sim.untoggled_nets()
    assert report.coverage == sim.toggle_coverage()


def test_toggle_coverage_equals_oracle_on_fmem(fmem):
    assert_toggles_equal_oracle(*fmem)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_toggle_coverage_equals_oracle_on_fuzzed_netlists(seed):
    assert_toggles_equal_oracle(*fuzz_design(seed))
