"""Operational Profiler (paper §5, Figure 4).

"An Operational Profile (OP) is a collection of information about all
relevant fault-free system activities: traced information items are
read/write activity associated with processor registers, address bus,
data bus, and memory locations in the system under test ...  The
purpose of the OP is to better understand the situation in which the
system or the application will be used, and then analyze this
information to ensure that only faults which will produce an error are
selected during the fault list generation process."

The profiler replays the workload fault-free in the compiled kernel's
C cycle loop (:class:`~repro.hdl.compiled.CompiledSimulator`) at one
lane, the interpreted simulator of ``tests/simulator_oracle.py`` being
its test oracle, and records per-cycle flip-flop toggles and
memory-port traffic; fault-list generation then places transient
injections in cycles where the target zone actually holds live data.
The same replay records, per net, the first cycle it changes and the
first cycle it is 1 (:class:`NetActivity`): the campaign's golden
OBSE/DIAG reference
(:func:`~repro.faultinjection.parallel.compute_golden_trace`) and the
validation flow's toggle coverage (a net toggled iff it ever changed)
are derived from those, so a workload is replayed fault-free only
once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from ..hdl.compiled import Activity, CompiledSimulator, Program
from ..hdl.netlist import Circuit
from ..hdl.simulator import MemoryImageSetup
from ..zones.extractor import ZoneSet
from ..zones.model import SensibleZone, ZoneKind


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


def profile_workload(circuit: Circuit, stimuli,
                     setup: MemoryImageSetup | None = None,
                     read_strobes: dict[str, str] | None = None,
                     program: Program | None = None
                     ) -> OperationalProfile:
    """Replay ``stimuli`` fault-free and record the OP.

    ``read_strobes`` maps memory names to a 1-bit net asserting "the
    array is actively read this cycle" (e.g. the subsystem's
    ``memctrl/port/read_any``); without it every non-write cycle is
    conservatively treated as a potential read.  ``program`` is the
    :class:`~repro.hdl.compiled.Program` of ``(circuit, stimuli)`` an
    environment shares with its campaigns; without one the replay
    compiles and packs its own.

    The replay runs on the compiled kernel's C cycle loop
    (:meth:`~repro.hdl.compiled.CompiledSimulator.run`) at one lane,
    with an :class:`~repro.hdl.compiled.Activity` record: C writes each
    net's first events, compares the committed flops against the
    previous cycle's and gathers the memory port traffic, addresses as
    little-endian bytes so any port width stays exact.  Python touches
    only the flop toggles and memory accesses it records.
    """
    if program is None:
        program = Program(circuit, list(stimuli))
    sim = CompiledSimulator(program.compiled(), machines=1)
    if setup is not None:
        setup(sim)
    strobes = read_strobes or {}
    activity = Activity(sim, {
        mi: circuit.find_net(strobes[m.name])
        for mi, m in enumerate(circuit.memories) if m.name in strobes})
    table = program.table()
    sim.run(table, len(table), activity=activity)

    perm = sim.compiled.perm
    profile = OperationalProfile(
        length=len(table),
        flop_toggles={circuit.flops[flop].name: cycles for flop, cycles
                      in activity.toggles().items()},
        activity=NetActivity(activity.first_change[perm].tolist(),
                             activity.first_one[perm].tolist()))
    for cycle, mem, write, addr in activity.accesses():
        profile.mem_accesses.setdefault(
            circuit.memories[mem].name, []).append(
            MemAccess(cycle=cycle, addr=addr, write=write))
    return profile
