"""Operational Profiler (paper §5, Figure 4).

"An Operational Profile (OP) is a collection of information about all
relevant fault-free system activities: traced information items are
read/write activity associated with processor registers, address bus,
data bus, and memory locations in the system under test ...  The
purpose of the OP is to better understand the situation in which the
system or the application will be used, and then analyze this
information to ensure that only faults which will produce an error are
selected during the fault list generation process."

The profiler replays the workload fault-free on the compiled kernel
(:class:`~repro.hdl.compiled.CompiledSimulator`) at one lane, the
interpreted :class:`~repro.hdl.simulator.Simulator` being its test
oracle, and records per-cycle flip-flop toggles and memory-port
traffic; fault-list generation then places transient injections in
cycles where the target zone actually holds live data.  The same
replay records, per net, the first cycle it changes and the first
cycle it is 1 (:class:`NetActivity`): the campaign's golden OBSE/DIAG
reference (:func:`~repro.faultinjection.parallel.compute_golden_trace`)
and the validation flow's toggle coverage (a net toggled iff it ever
changed) are derived from those, so a workload is replayed fault-free
only once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..hdl.compiled import CompiledSimulator
from ..hdl.netlist import Circuit
from ..zones.extractor import ZoneSet
from ..zones.model import SensibleZone, ZoneKind

_U64 = np.uint64


@dataclass
class MemAccess:
    cycle: int
    addr: int
    write: bool


class NetActivity(NamedTuple):
    """First events of every net in the fault-free replay (-1: never).

    ``first_change[net]`` is the first cycle >= 1 at which the net's
    evaluated value differs from the previous cycle's;
    ``first_one[net]`` is the first cycle at which it is 1.  Both are
    indexed by net id and describe every prefix of the run at once.
    """

    first_change: list[int]
    first_one: list[int]


@dataclass
class OperationalProfile:
    """The recorded fault-free activity of one workload."""

    length: int
    flop_toggles: dict[str, list[int]] = field(default_factory=dict)
    mem_accesses: dict[str, list[MemAccess]] = field(default_factory=dict)
    activity: NetActivity = field(
        default_factory=lambda: NetActivity([], []))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain JSON data; :meth:`from_dict` rebuilds an equal profile
        (dict order included)."""
        return {
            "length": self.length,
            "flop_toggles": self.flop_toggles,
            "mem_accesses": {
                name: [[a.cycle, a.addr, a.write] for a in accesses]
                for name, accesses in self.mem_accesses.items()},
            "first_change": self.activity.first_change,
            "first_one": self.activity.first_one,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OperationalProfile":
        """Inverse of :meth:`to_dict`; raises ``KeyError``,
        ``TypeError`` or ``ValueError`` on data of another shape.
        Keys :meth:`to_dict` does not write, such as those of
        profiles stored by older versions, are ignored."""
        return cls(
            length=int(data["length"]),
            flop_toggles=dict(data["flop_toggles"]),
            mem_accesses={
                name: [MemAccess(cycle=cycle, addr=addr, write=write)
                       for cycle, addr, write in accesses]
                for name, accesses in data["mem_accesses"].items()},
            activity=NetActivity(list(data["first_change"]),
                                 list(data["first_one"])),
        )

    # ------------------------------------------------------------------
    def zone_activity(self, zone: SensibleZone) -> list[int]:
        """Cycles in which the zone's state was (re)written or read."""
        if zone.kind is ZoneKind.REGISTER:
            cycles: set[int] = set()
            for flop in zone.flops:
                cycles.update(self.flop_toggles.get(flop, ()))
            return sorted(cycles)
        if zone.kind is ZoneKind.MEMORY and zone.memory is not None:
            lo, hi = zone.mem_words or (0, 1 << 30)
            return sorted({a.cycle for a in
                           self.mem_accesses.get(zone.memory, ())
                           if lo <= a.addr <= hi})
        return []

    def zone_triggered(self, zone: SensibleZone) -> bool:
        """Can the workload exercise this zone at all?"""
        if zone.kind in (ZoneKind.REGISTER, ZoneKind.MEMORY):
            return bool(self.zone_activity(zone))
        return True  # nets/ports are structurally always exercised

    def reads_in_region(self, mem: str, lo: int,
                        hi: int) -> list[MemAccess]:
        return [a for a in self.mem_accesses.get(mem, ())
                if not a.write and lo <= a.addr <= hi]

    # ------------------------------------------------------------------
    def injection_cycles(self, zone: SensibleZone, rng: random.Random,
                         count: int) -> list[int]:
        """OP-guided injection instants for transient faults.

        Register zones: just after a live write (the corrupted value is
        resident).  Memory zones: the cycle of a read request (the flip
        lands before the array output latches).  Fallback: uniform over
        the run.
        """
        activity = self.zone_activity(zone)
        if zone.kind is ZoneKind.REGISTER and activity:
            pool = [min(c + 1, self.length - 1) for c in activity]
        elif zone.kind is ZoneKind.MEMORY and zone.memory is not None:
            reads = self.reads_in_region(zone.memory,
                                         *(zone.mem_words or (0, 1 << 30)))
            pool = [a.cycle for a in reads]
        else:
            pool = []
        if not pool:
            pool = list(range(2, max(3, self.length - 2)))
        return [rng.choice(pool) for _ in range(count)]

    def completeness(self, zone_set: ZoneSet) -> tuple[int, int]:
        """(triggerable zones, total injectable zones) for SENS items."""
        injectable = [z for z in zone_set.zones
                      if z.kind in (ZoneKind.REGISTER, ZoneKind.MEMORY)]
        triggered = sum(1 for z in injectable if self.zone_triggered(z))
        return triggered, len(injectable)


def profile_workload(circuit: Circuit, stimuli, setup=None,
                     read_strobes: dict[str, str] | None = None
                     ) -> OperationalProfile:
    """Replay ``stimuli`` fault-free and record the OP.

    ``read_strobes`` maps memory names to a 1-bit net asserting "the
    array is actively read this cycle" (e.g. the subsystem's
    ``memctrl/port/read_any``); without it every non-write cycle is
    conservatively treated as a potential read.

    The replay runs on the compiled kernel
    (:class:`~repro.hdl.compiled.CompiledSimulator`) at one lane, so
    every value row holds 0 or 1, and reads lane 0 with numpy: the
    per-net first events are masks over all rows, flop toggles a
    compare of the committed state against the previous cycle's, and
    memory traffic a gather of the address, write-enable and strobe
    rows.  Python touches only the flops that toggled and the memory
    accesses it records.
    """
    sim = CompiledSimulator(circuit, machines=1)
    if setup is not None:
        setup(sim)
    cc = sim.compiled
    rows = sim._vals[:, 0]                  # lane 0 of every row
    nets = rows[:cc.num_nets]

    # per-net first events, in row order until the end of the replay
    first_change = np.full(cc.num_nets, -1, dtype=np.int64)
    first_one = np.full(cc.num_nets, -1, dtype=np.int64)
    waiting_change = np.ones(cc.num_nets, dtype=bool)
    waiting_one = np.ones(cc.num_nets, dtype=bool)
    hit = np.empty(cc.num_nets, dtype=bool)
    last = np.empty_like(nets)

    # memory ports, padded to the widest address with the zero row; a
    # memory without a read strobe reads whenever it does not write
    memories = circuit.memories
    strobes = read_strobes or {}
    width = max((len(m.addr) for m in memories), default=0)
    addr_rows = np.full((len(memories), width), cc.zero_row,
                        dtype=np.intp)
    for mi, mem_rows in enumerate(cc.mem_addr_rows):
        addr_rows[mi, :len(mem_rows)] = mem_rows
    pow2 = np.left_shift(_U64(1), np.arange(width, dtype=_U64))
    we_rows = np.asarray(cc.mem_we_rows, dtype=np.intp)
    read_rows = np.asarray(
        [cc.perm[circuit.find_net(strobes[m.name])] if m.name in strobes
         else row for m, row in zip(memories, cc.mem_we_rows)],
        dtype=np.intp)
    read_flip = np.asarray([m.name not in strobes for m in memories],
                           dtype=_U64)
    mem_names = [m.name for m in memories]
    flop_names = [f.name for f in circuit.flops]

    profile = OperationalProfile(length=len(stimuli))
    accesses = profile.mem_accesses
    toggles = profile.flop_toggles
    prev_flops = None
    for cycle, inputs in enumerate(stimuli):
        sim.step_eval(inputs)
        if cycle:
            np.not_equal(nets, last, out=hit)
            hit &= waiting_change
            if hit.any():
                first_change[hit] = cycle
                waiting_change &= ~hit
        np.copyto(last, nets)
        np.logical_and(nets, waiting_one, out=hit)
        if hit.any():
            first_one[hit] = cycle
            waiting_one &= ~hit
        # memory port traffic (during evaluation, pre-edge)
        if memories:
            write = rows[we_rows]
            active = np.flatnonzero(write | (rows[read_rows] ^ read_flip))
            if len(active):
                addrs = rows[addr_rows[active]] @ pow2
                for mi, addr in zip(active.tolist(), addrs.tolist()):
                    accesses.setdefault(mem_names[mi], []).append(
                        MemAccess(cycle=cycle, addr=addr,
                                  write=bool(write[mi])))
        sim.step_commit()
        # flop toggles become visible in the committed state
        state = sim._flop_state[:, 0] & _U64(1)
        if prev_flops is not None:
            for i in np.flatnonzero(state != prev_flops).tolist():
                toggles.setdefault(flop_names[i], []).append(cycle)
        prev_flops = state
    profile.activity = NetActivity(first_change[cc.perm].tolist(),
                                   first_one[cc.perm].tolist())
    return profile
