"""Stuck-at fault simulator (paper §5, ref [11]).

"for critical areas ... the fault simulator can be used to precisely
measure the fault coverage vs permanent faults respect the workload and
the implemented diagnostic" — and step (b) alternatively accepts "a
standard fault coverage" as the workload-completeness measure.

A fault is *detected* when any functional output or diagnostic alarm of
the faulty machine deviates from the golden machine at any cycle of the
workload.  The faults run through the campaign pass loop
(:meth:`~repro.faultinjection.manager.FaultInjectionManager.run_batches`)
with every observed port as an output observation point, in this
process: detection needs no coverage ledger or golden trace, so the
campaign supervisor has nothing to add.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..hdl.compiled import Program
from ..hdl.netlist import Circuit
from ..hdl.simulator import MemoryImageSetup
from ..zones.model import ObservationKind, ObservationPoint
from .faultlist import CandidateList, generate_gate_faults
from .manager import FaultInjectionManager


@dataclass
class FaultSimReport:
    """Outcome of a stuck-at fault-simulation run."""

    total: int
    detected: int
    undetected_names: list[str] = field(default_factory=list)
    cycles: int = 0
    passes: int = 0
    wall_seconds: float = 0.0

    @property
    def coverage(self) -> float:
        return self.detected / self.total if self.total else 1.0

    def summary(self) -> str:
        return (f"fault coverage {self.coverage * 100:.2f}% "
                f"({self.detected}/{self.total} stuck-at faults, "
                f"{self.passes} passes, {self.cycles} cycles/pass)")


def simulate_faults(circuit: Circuit, stimuli,
                    candidates: CandidateList | None = None,
                    observe: list[str] | None = None,
                    setup: MemoryImageSetup | None = None,
                    program: Program | None = None
                    ) -> FaultSimReport:
    """Measure detected fraction of a stuck-at fault list.

    ``observe`` lists output port names to compare (default: all
    primary outputs — functional and alarms alike, matching the "with
    the implemented diagnostic" reading).  ``program`` is an
    environment's compiled ``(circuit, stimuli)`` pair.
    """
    if candidates is None:
        candidates = generate_gate_faults(circuit)
    if observe is None:
        observe = list(circuit.outputs)
    points = [ObservationPoint(name=name, kind=ObservationKind.OUTPUT,
                               nets=tuple(circuit.outputs[name]))
              for name in observe]
    manager = FaultInjectionManager(
        circuit, stimuli, observation_points=points, setup=setup,
        program=program)

    start = time.time()
    result = manager.run_batches(list(candidates.faults))
    report = FaultSimReport(total=len(candidates.faults), detected=0,
                            cycles=len(manager.stimuli),
                            passes=result.passes)
    for res in result.results:
        if res.obse_cycle is not None:
            report.detected += 1
        else:
            report.undetected_names.append(res.fault.name)
    report.wall_seconds = time.time() - start
    return report
