"""The interpreted campaign pass loop and profile replay: the
differential oracles.

Campaigns and the operational-profile replay run on the compiled
kernel only (:func:`repro.faultinjection.compiled_pass.run_pass_compiled`
and :func:`repro.faultinjection.profiler.profile_workload`).  This
module holds both loops as test-only references over the big-int
:class:`~repro.hdl.Simulator`, observing one point (or net, flop,
memory port) at a time in plain Python.  The differential suites
compare the production engine against them record for record.

    result = run_interpreted(env.manager(), env.candidates())
    profile = profile_interpreted(circuit, stimuli, setup=setup)
"""

from __future__ import annotations

import time

from repro.faultinjection.faultlist import CandidateList
from repro.faultinjection.manager import (
    CampaignResult,
    FaultInjectionManager,
    FaultResult,
)
from repro.faultinjection.profiler import (
    MemAccess,
    NetActivity,
    OperationalProfile,
)
from repro.hdl.simulator import Simulator
from repro.store.fingerprint import _picker


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


def profile_interpreted(circuit, stimuli, setup=None,
                        read_strobes: dict[str, str] | None = None
                        ) -> OperationalProfile:
    """The operational profile from an interpreted fault-free replay:
    the same recording, net by net and flop by flop."""
    sim = Simulator(circuit, machines=1)
    if setup is not None:
        setup(sim)

    strobe_nets = {}
    for mem_name, net_name in (read_strobes or {}).items():
        strobe_nets[mem_name] = circuit.find_net(net_name)

    profile = OperationalProfile(length=len(stimuli))
    prev_flops = {f.name: None for f in circuit.flops}
    # per-net first events: each cycle reads only the nets still
    # waiting for theirs, as one C-level gather (values are 0 or 1)
    vals = sim._values
    first_change = [-1] * circuit.num_nets
    first_one = [-1] * circuit.num_nets
    waiting_change = waiting_one = list(range(circuit.num_nets))
    pick_change = pick_one = _picker(waiting_change)
    last = None

    for cycle, inputs in enumerate(stimuli):
        sim.step_eval(inputs)
        now = pick_change(vals)
        if last is not None and now != last:
            rest = []
            for net, value, before in zip(waiting_change, now, last):
                if value != before:
                    first_change[net] = cycle
                else:
                    rest.append(net)
            waiting_change, pick_change = rest, _picker(rest)
            now = pick_change(vals)
        last = now
        now = pick_one(vals)
        if any(now):
            rest = []
            for net, value in zip(waiting_one, now):
                if value:
                    first_one[net] = cycle
                else:
                    rest.append(net)
            waiting_one, pick_one = rest, _picker(rest)
        # memory port traffic (during evaluation, pre-edge)
        for mem in circuit.memories:
            addr = sim.value_of(mem.addr)
            write = bool(sim.peek_bit(mem.we))
            strobe = strobe_nets.get(mem.name)
            reading = bool(sim.peek_bit(strobe)) if strobe is not None \
                else not write
            if write or reading:
                profile.mem_accesses.setdefault(mem.name, []).append(
                    MemAccess(cycle=cycle, addr=addr, write=write))
        sim.step_commit()
        # flop toggles become visible in the committed state
        for i, flop in enumerate(circuit.flops):
            bit = sim._flop_state[i] & 1
            if prev_flops[flop.name] is not None and \
                    bit != prev_flops[flop.name]:
                profile.flop_toggles.setdefault(flop.name, []).append(
                    cycle)
            prev_flops[flop.name] = bit
    profile.activity = NetActivity(first_change, first_one)
    return profile
