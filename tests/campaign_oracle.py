"""The interpreted campaign pass loop and profile replay, and the
numpy eval step: the differential oracles.

Campaigns and the operational-profile replay run on the compiled
kernel only (:func:`repro.faultinjection.compiled_pass.run_pass_compiled`
and :func:`repro.faultinjection.profiler.profile_workload`).  This
module holds both loops as test-only references over the big-int
:class:`~tests.simulator_oracle.Simulator`, observing one point (or
net, flop, memory port) at a time in plain Python.  The differential suites
compare the production engine against them record for record.

:class:`NumpySweepSimulator` is the compiled kernel with its eval step
(preamble, level sweep, bridge re-sweep) run as numpy operations
instead of C, word for word, padding lanes included: the word-level
oracle of the C eval step.

    result = run_interpreted(env.spec().manager(), env.candidates())
    profile = profile_interpreted(circuit, stimuli, setup=setup)
    sim = NumpySweepSimulator(circuit, machines=342)
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

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
from repro.hdl.compiled import CompiledSimulator
from repro.hdl.netlist import (
    OP_AND,
    OP_ARITY,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
)
from repro.hdl.simulator import BRIDGE_AND, BRIDGE_OR
from repro.store.fingerprint import _picker

from .simulator_oracle import Simulator


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

    golden_prev: dict[str, int] = {}
    for cycle, inputs in enumerate(manager.stimuli):
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


class _BridgePlan(NamedTuple):
    """The numpy bridge re-sweep of one fault set.

    Bridges are sorted stably by victim row; ``eff`` is each bridge's
    mask minus the lanes a later bridge on the same victim claims, so
    one victim's bridged values OR-combine with a segmented
    ``reduceat`` over ``starts``.  A bridge's value is
    ``(a & (v | not_and)) | (v & or_sel)``: dominant -> a, AND -> a & v,
    OR -> a | v.  ``plan`` is the forced-net overlay with every
    victim's bridged lanes added to its clear mask; each cycle writes
    ``set_base | bridged[set_victim]`` into the ``set_pos`` entries of
    its set array, in place.
    """

    agg: np.ndarray
    vic: np.ndarray
    not_and: np.ndarray
    or_sel: np.ndarray
    eff: np.ndarray
    starts: np.ndarray
    plan: object
    set_pos: np.ndarray
    set_victim: np.ndarray
    set_base: np.ndarray


class NumpySweepSimulator(CompiledSimulator):
    """:class:`CompiledSimulator` with the eval step in numpy.

    The preamble copies the flop, read-data and constant rows with
    fancy indexing.  Every level gathers its operand rows into one
    buffer and runs each ``(level, op)`` group as ufunc calls on
    contiguous slices; the forced-net overlay and the glitches of each
    bucket follow the level, read from the same flat tables the C
    sweep reads.  Bridges re-sweep with victim values combined by a
    segmented ``reduceat``.  Inputs and the clock edge run the C
    kernel's code.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._program = self._build_program()

    def eval_comb(self) -> None:
        cc = self.compiled
        vals = self._vals
        q_rows = cc.flop_rows[3]
        if len(q_rows):
            vals[q_rows] = self._flop_state
        for group in self._mem_groups:
            vals[group.rdata_rows] = group.rdata
        # overlays may have clobbered constant rows last cycle
        if len(cc.const0_rows):
            vals[cc.const0_rows] = np.uint64(0)
        if len(cc.const1_rows):
            vals[cc.const1_rows] = self._full

        if self._overlay_plan is None:
            self._overlay_plan = self._build_overlay_plan(self._forced)
        glitches = self._bind_glitches()
        if self._bridges:
            self._eval_bridged(glitches)
            return
        self._run_levels(self._overlay_plan, glitches)

    def _build_numpy_bridges(self) -> _BridgePlan:
        perm = self.compiled.perm
        ones = ~np.uint64(0)
        zeros = np.zeros(self.words, dtype=np.uint64)
        bridges = sorted(self._bridges, key=lambda br: br[1])
        # where bridges on one victim overlap, the later one wins (the
        # interpreted fold overrides lane by lane): trim each mask by
        # the masks of the later ones
        eff: list = []
        claimed: dict[int, np.ndarray] = {}
        for _, vic, _, mask in reversed(bridges):
            prior = claimed.get(vic, zeros)
            eff.append(mask & ~prior)
            claimed[vic] = mask | prior
        eff.reverse()
        uniq, starts = np.unique([br[1] for br in bridges],
                                 return_index=True)
        order = {int(perm[vic]): k for k, vic in enumerate(uniq)}

        entries = dict(self._forced)
        for vic, mask in claimed.items():
            clear, setm = entries.get(vic, (zeros, zeros))
            entries[vic] = (clear | mask, setm & ~mask)
        plan = self._build_overlay_plan(entries)
        pos = np.flatnonzero(np.isin(plan.rows, list(order)))
        return _BridgePlan(
            agg=perm[np.asarray([br[0] for br in bridges], dtype=np.intp)],
            vic=perm[np.asarray([br[1] for br in bridges], dtype=np.intp)],
            not_and=np.asarray([0 if br[2] == BRIDGE_AND else ones
                                for br in bridges],
                               dtype=np.uint64)[:, None],
            or_sel=np.asarray([ones if br[2] == BRIDGE_OR else 0
                               for br in bridges], dtype=np.uint64)[:, None],
            eff=np.stack(eff), starts=starts, plan=plan, set_pos=pos,
            set_victim=np.asarray([order[row] for row
                                   in plan.rows[pos].tolist()],
                                  dtype=np.intp),
            set_base=plan.masks[1][pos])

    def _eval_bridged(self, glitches) -> None:
        """The interpreted bridge semantics: a first sweep, then a
        re-sweep with every victim forced to its bridged value (read
        from the first sweep, so bridges never chain)."""
        vals = self._vals
        source_rows = glitches.rows[:glitches.offsets[1]] \
            if glitches is not None else None
        raw = vals[source_rows] if source_rows is not None else None
        self._run_levels(self._overlay_plan, glitches)

        # the numpy plan takes the C plan's slot: this simulator never
        # binds the C eval step, and arming a fault resets the slot
        if self._bridge_plan is None:
            self._bridge_plan = self._build_numpy_bridges()
        bp = self._bridge_plan
        a = vals[bp.agg]
        v = vals[bp.vic]
        bridged = ((a & (v | bp.not_and)) | (v & bp.or_sel)) & bp.eff
        per_victim = np.bitwise_or.reduceat(bridged, bp.starts, axis=0)
        bp.plan.masks[1][bp.set_pos] = bp.set_base \
            | per_victim[bp.set_victim]
        # the re-sweep restarts from the unglitched sources, so every
        # glitch is applied exactly once per evaluation
        if raw is not None:
            vals[source_rows] = raw
        self._run_levels(bp.plan, glitches)

    def _build_program(self) -> list[tuple]:
        """Per level: ``(gather rows, gather buffer, micro-ops)``; each
        micro-op is ``(ufunc, a, b, out)`` over fixed views."""
        cc = self.compiled
        W = self.words
        count_max = int(cc.groups[:, 1].max()) if len(cc.groups) else 0
        mux_tmp = np.empty((count_max, W), dtype=np.uint64)
        # inverting ops XOR against a same-shape slice of the tiled
        # all-machines words, and BUF ANDs with it
        full_block = np.tile(self._full, (count_max, 1))
        program = []
        for lv in range(cc.depth):
            groups = cc.groups[cc.level_groups[lv]:cc.level_groups[lv + 1]]
            start = int(groups[0, 3])
            last = groups[-1]
            end = int(last[3] + OP_ARITY[int(last[0])] * last[1])
            gather = cc.gather[start:end].astype(np.intp)
            buf = np.empty((end - start, W), dtype=np.uint64)
            micro: list[tuple] = []
            for op, n, out_lo, off in groups.tolist():
                lo = off - start
                a = buf[lo:lo + n]
                b = buf[lo + n:lo + 2 * n]
                c = buf[lo + 2 * n:lo + 3 * n]
                full = full_block[:n]
                dst = self._vals[out_lo:out_lo + n]
                if op == OP_AND:
                    micro.append((np.bitwise_and, a, b, dst))
                elif op == OP_OR:
                    micro.append((np.bitwise_or, a, b, dst))
                elif op == OP_XOR:
                    micro.append((np.bitwise_xor, a, b, dst))
                elif op == OP_NOT:
                    micro.append((np.bitwise_xor, a, full, dst))
                elif op == OP_BUF:
                    micro.append((np.bitwise_and, a, full, dst))
                elif op == OP_NAND:
                    micro.append((np.bitwise_and, a, b, dst))
                    micro.append((np.bitwise_xor, dst, full, dst))
                elif op == OP_NOR:
                    micro.append((np.bitwise_or, a, b, dst))
                    micro.append((np.bitwise_xor, dst, full, dst))
                elif op == OP_XNOR:
                    micro.append((np.bitwise_xor, a, b, dst))
                    micro.append((np.bitwise_xor, dst, full, dst))
                else:  # OP_MUX: dst = (b & sel) | (c & ~sel)
                    tmp = mux_tmp[:n]
                    micro.append((np.bitwise_not, a, None, tmp))
                    micro.append((np.bitwise_and, tmp, c, tmp))
                    micro.append((np.bitwise_and, a, b, dst))
                    micro.append((np.bitwise_or, dst, tmp, dst))
            program.append((gather, buf, micro))
        return program

    def _apply_bucket(self, bucket: int, plan, glitches) -> None:
        vals = self._vals
        lo, hi = plan.offsets[bucket], plan.offsets[bucket + 1]
        if hi > lo:
            rows = plan.rows[lo:hi]
            notclear, setm = plan.masks
            vals[rows] = (vals[rows] & notclear[lo:hi]) | setm[lo:hi]
        if glitches is not None:
            lo, hi = glitches.offsets[bucket], glitches.offsets[bucket + 1]
            if hi > lo:
                rows = glitches.rows[lo:hi]
                vals[rows] = vals[rows] ^ glitches.masks[0][lo:hi]

    def _run_levels(self, plan, glitches) -> None:
        self._apply_bucket(0, plan, glitches)
        for lv, (gather, buf, micro) in enumerate(self._program):
            self._vals.take(gather, 0, buf, "clip")
            for fn, a, b, dst in micro:
                if b is None:
                    fn(a, out=dst)
                else:
                    fn(a, b, out=dst)
            self._apply_bucket(lv + 1, plan, glitches)
