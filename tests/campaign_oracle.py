"""The interpreted campaign pass loop: the differential oracle.

Campaigns run on the compiled kernel only
(:func:`repro.faultinjection.compiled_pass.run_pass_compiled`).  This
module holds the interpreted pass loop as a test-only reference:
the same pass over the big-int :class:`~repro.hdl.Simulator`, observing
one point at a time in plain Python.  The differential suites compare
the production engine against it record for record.

    result = run_interpreted(env.manager(), env.candidates())
"""

from __future__ import annotations

import time

from repro.faultinjection.faultlist import CandidateList
from repro.faultinjection.manager import (
    CampaignResult,
    FaultInjectionManager,
    FaultResult,
)
from repro.hdl.simulator import Simulator


def run_interpreted(manager: FaultInjectionManager,
                    candidates: CandidateList,
                    machines_per_pass: int = 48) -> CampaignResult:
    """A whole campaign on the interpreted oracle: the records and the
    coverage ledger the campaign supervisor produces, with the golden
    OBSE/DIAG activity taken from each pass's own machine 0."""
    start = time.time()
    result = manager.new_result()
    manager._init_coverage(result.coverage, candidates)
    faults = list(candidates.faults)
    for lo in range(0, len(faults), machines_per_pass):
        run_pass_interpreted(manager, faults[lo:lo + machines_per_pass],
                             result)
        result.passes += 1
    manager.fill_coverage(result)
    result.wall_seconds = time.time() - start
    return result


def run_pass_interpreted(manager: FaultInjectionManager, batch: list,
                         result: CampaignResult) -> None:
    """One pass on the interpreted simulator, point by point."""
    machines = len(batch) + 1
    sim = Simulator(manager.circuit, machines=machines,
                    collect_toggles=manager.config.collect_toggles,
                    toggle_any_machine=True,
                    cycle_budget=manager.config.cycle_budget)
    if manager.setup is not None:
        manager.setup(sim)

    results = [FaultResult(fault=f) for f in batch]
    for k, fault in enumerate(batch, start=1):
        fault.arm(sim, machine=k, t0=0)

    # group SENS probes (one state compare per distinct probe/cycle);
    # memory probes are per-word, register probes per-zone
    probe_members: dict[tuple, list[int]] = {}
    for idx, fault in enumerate(batch):
        zone = manager._zones_by_name.get(fault.zone or "")
        if zone is None:
            continue
        probe = manager._zone_probe(zone, fault)
        if probe is None:
            continue
        probe_members.setdefault(probe, []).append(idx)

    func_nets = {p.name: list(p.nets) for p in manager.functional}
    status_nets = {p.name: list(p.nets) for p in manager.status}
    diag_nets = {p.name: list(p.nets) for p in manager.diagnostic}
    full = sim.full_mask

    stimuli = manager.stimuli
    if manager.config.max_cycles is not None:
        stimuli = stimuli[:manager.config.max_cycles]

    golden_prev: dict[str, int] = {}
    for cycle, inputs in enumerate(stimuli):
        sim.step_eval(inputs)

        for name, nets in func_nets.items():
            mask = sim.mismatch_mask(nets)
            if mask:
                for idx, res in enumerate(results):
                    if mask >> (idx + 1) & 1:
                        res.effects.setdefault(name, cycle)
                        if res.obse_cycle is None:
                            res.obse_cycle = cycle
            # golden activity covers the OBSE item by itself
            value = sim.value_of(nets)
            if name in golden_prev and golden_prev[name] != value:
                result.coverage.obse[name] = True
            golden_prev[name] = value

        for name, nets in status_nets.items():
            # status points: recorded in the effects table only
            mask = sim.mismatch_mask(nets)
            if mask:
                for idx, res in enumerate(results):
                    if mask >> (idx + 1) & 1:
                        res.effects.setdefault(name, cycle)

        for name, nets in diag_nets.items():
            raised = 0
            golden_raised = False
            for net in nets:
                v = sim.peek(net)
                golden = full if v & 1 else 0
                golden_raised = golden_raised or bool(v & 1)
                raised |= v & ~golden
            if golden_raised:
                # the workload itself exercises the diagnostic
                result.coverage.diag[name] = True
            if raised:
                for idx, res in enumerate(results):
                    if raised >> (idx + 1) & 1:
                        res.effects.setdefault(name, cycle)
                        if res.diag_cycle is None:
                            res.diag_cycle = cycle
                            res.first_alarm = name

        # SENS: sample zone state while the injected deviation is
        # still live (a flipped flop may be overwritten at the edge)
        for probe, members in probe_members.items():
            mask = _probe_mismatch(sim, probe)
            if mask:
                for idx in members:
                    if mask >> (idx + 1) & 1 and \
                            results[idx].sens_cycle is None:
                        results[idx].sens_cycle = cycle

        sim.step_commit()
        result.cycles_simulated += 1

    if manager.config.collect_toggles:
        if result.seen0 is None:
            result.seen0 = bytearray(manager.circuit.num_nets)
            result.seen1 = bytearray(manager.circuit.num_nets)
        for net in range(manager.circuit.num_nets):
            if sim._seen0[net]:
                result.seen0[net] = 1
            if sim._seen1[net]:
                result.seen1[net] = 1

    result.results.extend(results)


def _probe_mismatch(sim: Simulator, probe) -> int:
    if probe[0] == "flops":
        return sim.flop_state_mismatch(probe[1])
    if probe[0] == "mem":
        return sim.mem_word_mismatch(probe[1], probe[2])
    return sim.mismatch_mask(probe[1])
