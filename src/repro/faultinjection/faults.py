"""Fault descriptors for the injection environment (paper §5).

A :class:`Fault` is a self-contained description of one physical fault
plus the code to arm it on a simulator machine.  Supported models cover
the IEC failure-mode catalog: SEU bit flips on flip-flops, SET glitches
on nets, permanent stuck-ats, memory-cell soft errors/stuck cells and
cell coupling, bridging between nets, and multi-net global faults
(clock/reset/power style).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hdl.simulator import BRIDGE_DOMINANT, SimulatorBase
from ..zones.model import FaultPersistence


@dataclass(frozen=True)
class Fault:
    """Base class: one injectable fault."""

    target: str
    zone: str | None = None

    persistence = FaultPersistence.PERMANENT
    kind = "fault"

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.target}"

    def arm(self, sim: SimulatorBase, machine: int, t0: int) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class SeuFault(Fault):
    """Single-event upset: flip a flip-flop at ``t0 + offset``."""

    offset: int = 0
    kind = "seu"
    persistence = FaultPersistence.TRANSIENT

    def arm(self, sim, machine, t0):
        sim.schedule_flop_flip(self.target, cycle=t0 + self.offset,
                               machines=1 << machine)


@dataclass(frozen=True)
class SetFault(Fault):
    """Single-event transient: invert a net for one evaluation."""

    offset: int = 0
    kind = "set"
    persistence = FaultPersistence.TRANSIENT

    def arm(self, sim, machine, t0):
        sim.schedule_net_glitch(self.target, cycle=t0 + self.offset,
                                machines=1 << machine)


@dataclass(frozen=True)
class StuckNetFault(Fault):
    """Permanent stuck-at on a net (DC fault model)."""

    value: int = 0
    kind = "stuck"
    persistence = FaultPersistence.PERMANENT

    @property
    def name(self) -> str:
        return f"stuck{self.value}:{self.target}"

    def arm(self, sim, machine, t0):
        sim.stick_net(self.target, self.value, machines=1 << machine)


@dataclass(frozen=True)
class MemFlipFault(Fault):
    """Soft error in a memory cell."""

    word: int = 0
    bit: int = 0
    offset: int = 0
    kind = "mem_flip"
    persistence = FaultPersistence.TRANSIENT

    @property
    def name(self) -> str:
        return f"mem_flip:{self.target}[{self.word}].{self.bit}"

    def arm(self, sim, machine, t0):
        sim.schedule_mem_flip(self.target, self.word, self.bit,
                              cycle=t0 + self.offset,
                              machines=1 << machine)


@dataclass(frozen=True)
class MemStuckFault(Fault):
    """Permanent stuck memory cell (DC fault model for data)."""

    word: int = 0
    bit: int = 0
    value: int = 0
    kind = "mem_stuck"
    persistence = FaultPersistence.PERMANENT

    @property
    def name(self) -> str:
        return (f"mem_stuck{self.value}:"
                f"{self.target}[{self.word}].{self.bit}")

    def arm(self, sim, machine, t0):
        sim.set_mem_cell_stuck(self.target, self.word, self.bit,
                               self.value, machines=1 << machine)


@dataclass(frozen=True)
class MbuFault(Fault):
    """Multi-bit upset: adjacent memory cells flipped together.

    Adjacent double-bit upsets are the dangerous residual of SEC-DED
    (detected but not corrected when both land in the same word) and
    the reason real arrays interleave logical bits physically.
    """

    word: int = 0
    bit: int = 0
    span: int = 2
    offset: int = 0
    kind = "mbu"
    persistence = FaultPersistence.TRANSIENT

    @property
    def name(self) -> str:
        return (f"mbu{self.span}:{self.target}"
                f"[{self.word}].{self.bit}")

    def arm(self, sim, machine, t0):
        for i in range(self.span):
            sim.schedule_mem_flip(self.target, self.word,
                                  self.bit + i,
                                  cycle=t0 + self.offset,
                                  machines=1 << machine)


@dataclass(frozen=True)
class MemCouplingFault(Fault):
    """Dynamic cross-over: writes to the aggressor flip the victim."""

    aggressor: tuple[int, int] = (0, 0)
    victim: tuple[int, int] = (0, 0)
    kind = "mem_coupling"
    persistence = FaultPersistence.PERMANENT

    @property
    def name(self) -> str:
        return (f"coupling:{self.target}{self.aggressor}"
                f"->{self.victim}")

    def arm(self, sim, machine, t0):
        sim.add_mem_coupling(self.target, self.aggressor, self.victim,
                             machines=1 << machine)


@dataclass(frozen=True)
class BridgeFault(Fault):
    """Bridging between two nets (wide fault, §3 figure 2)."""

    victim: str = ""
    mode: str = BRIDGE_DOMINANT
    kind = "bridge"
    persistence = FaultPersistence.PERMANENT

    @property
    def name(self) -> str:
        return f"bridge:{self.target}->{self.victim}"

    def arm(self, sim, machine, t0):
        sim.add_bridge(self.target, self.victim, mode=self.mode,
                       machines=1 << machine)


@dataclass(frozen=True)
class GlobalStuckFault(Fault):
    """Global fault: several nets stuck at once (clock-tree root,
    power-domain collapse, §3 'global' class)."""

    nets: tuple[str, ...] = ()
    value: int = 0
    kind = "global"
    persistence = FaultPersistence.PERMANENT

    @property
    def name(self) -> str:
        return f"global{self.value}:{self.target}"

    def arm(self, sim, machine, t0):
        for net in self.nets:
            sim.stick_net(net, self.value, machines=1 << machine)
