"""SET derating measurement (paper §3's masking remark).

"if there is a transient fault in a gate but this glitch isn't sampled
by the clock of the register corresponding to its sensible zone ...
this fault is not considered as an hazard" — i.e. the elementary
transient FIT of combinational gates must be derated by the fraction of
glitches that are logically masked or never latched.

This module *measures* that derating on the actual netlist: it injects
single-cycle SET glitches on sampled gates at sampled cycles of a
workload and counts how many ever perturb sequential state.  The
surviving fraction is the factor to apply to the raw per-gate SET rate
(``FitModel.gate_transient_fit``) — turning a hand-waved constant into
a design-measured number.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..hdl.compiled import CompiledSimulator, compile_circuit
from ..hdl.netlist import Circuit, OP_BUF, OP_CONST0, OP_CONST1
from ..hdl.simulator import MemoryImageSetup


@dataclass
class DeratingResult:
    """Outcome of a SET derating campaign."""

    injections: int
    latched: int        # glitches that reached sequential state
    observed: int       # ... and further reached a primary output

    @property
    def latch_fraction(self) -> float:
        """The derating factor: glitches that became soft errors."""
        return self.latched / self.injections if self.injections else 0.0

    @property
    def observe_fraction(self) -> float:
        return self.observed / self.injections if self.injections \
            else 0.0

    def summary(self) -> str:
        return (f"SET derating: {self.injections} glitches, "
                f"{self.latch_fraction * 100:.1f}% latched, "
                f"{self.observe_fraction * 100:.1f}% reached outputs")


def measure_set_derating(circuit: Circuit, stimuli,
                         samples: int = 200, seed: int = 20,
                         setup: MemoryImageSetup | None = None,
                         settle_cycles: int = 8,
                         machines_per_pass: int = 48
                         ) -> DeratingResult:
    """Monte-Carlo SET campaign over (gate, cycle) pairs.

    A glitch counts as *latched* when any flip-flop or memory word
    differs from golden at any later cycle, and as *observed* when a
    primary output differs.  ``settle_cycles`` bounds how long after
    the last injection the run continues.
    """
    stimuli = list(stimuli)
    if not stimuli:
        raise ValueError("need a workload to measure derating")
    rng = random.Random(seed)
    sites = [g.out for g in circuit.gates
             if g.op not in (OP_BUF, OP_CONST0, OP_CONST1)]
    if not sites:
        raise ValueError("no combinational gates to glitch")

    pairs = [(rng.choice(sites), rng.randrange(len(stimuli)))
             for _ in range(samples)]

    # id arrays: the simulator range-checks each in one step per call
    out_nets = np.asarray([n for nets in circuit.outputs.values()
                           for n in nets], dtype=np.intp)
    flop_idxs = np.arange(len(circuit.flops), dtype=np.intp)
    mem_words = [(m.name, w) for m in circuit.memories
                 for w in range(m.depth)]

    compiled = compile_circuit(circuit)
    result = DeratingResult(injections=0, latched=0, observed=0)
    for lo in range(0, len(pairs), machines_per_pass):
        batch = pairs[lo:lo + machines_per_pass]
        sim = CompiledSimulator(compiled, machines=len(batch) + 1)
        if setup is not None:
            setup(sim)
        horizon = 0
        for k, (net, cycle) in enumerate(batch, start=1):
            sim.schedule_net_glitch(net, cycle=cycle,
                                    machines=1 << k)
            horizon = max(horizon, cycle)
        horizon = min(len(stimuli), horizon + settle_cycles)

        latched_mask = 0
        observed_mask = 0
        for cycle in range(horizon):
            sim.step_eval(stimuli[cycle])
            observed_mask |= sim.mismatch_mask(out_nets)
            latched_mask |= sim.flop_state_mismatch(flop_idxs)
            sim.step_commit()
            latched_mask |= sim.flop_state_mismatch(flop_idxs)
        for mem_name, word in mem_words:
            latched_mask |= sim.mem_word_mismatch(mem_name, word)

        for k in range(1, len(batch) + 1):
            result.injections += 1
            if (latched_mask >> k) & 1 or (observed_mask >> k) & 1:
                result.latched += 1
            if (observed_mask >> k) & 1:
                result.observed += 1
    return result


def derated_gate_fit(raw_set_fit: float,
                     result: DeratingResult) -> float:
    """Apply a measured derating to a raw per-gate SET rate."""
    return raw_set_fit * result.latch_fraction
