"""Data model of the sensible-zone theory (paper §3).

A *sensible zone* is an elementary failure point of the SoC in which one
or more physical faults converge to lead to a failure.  Valid zones per
the paper: memory elements (registers), primary inputs/outputs, logical
entities, critical nets (clock, long nets), and entire sub-blocks.

An *observation point* is where the effects of failure modes in a zone
are measured: another zone, a primary output (most cases), a primary
function, or an alarm of the diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class ZoneKind(str, Enum):
    """The five valid zone definitions of §3, plus memory regions."""

    REGISTER = "register"
    PRIMARY_INPUT = "primary_input"
    PRIMARY_OUTPUT = "primary_output"
    LOGICAL = "logical"
    CRITICAL_NET = "critical_net"
    SUBBLOCK = "subblock"
    MEMORY = "memory"


class FaultClass(str, Enum):
    """Physical-fault extent classification of §3."""

    LOCAL = "local"      # one logic cone, one zone
    WIDE = "wide"        # shared cone, several zones
    GLOBAL = "global"    # clock / power / thermal, many zones


class FaultPersistence(str, Enum):
    TRANSIENT = "transient"
    PERMANENT = "permanent"


@dataclass(frozen=True)
class FailureMode:
    """A failure mode of a sensible zone (IEC 61508-2 Annex A tables)."""

    name: str
    description: str = ""
    persistence: FaultPersistence = FaultPersistence.TRANSIENT
    iec_reference: str = ""


@dataclass
class SensibleZone:
    """One sensible zone with its structural statistics.

    ``nets`` are the nets whose failure *is* the zone failure (register
    q pins, the critical net itself, a sub-block's outputs...).
    ``flops`` lists the flip-flop names for register zones, and
    ``size_bits`` the storage the zone represents (flop bits or memory
    bits) — the number of fault targets for injection and FIT scaling.
    """

    name: str
    kind: ZoneKind
    nets: tuple[int, ...] = ()
    flops: tuple[str, ...] = ()
    path: str = ""
    size_bits: int = 0
    memory: str | None = None
    mem_words: tuple[int, int] | None = None  # [first, last] region
    cone_gates: int = 0
    cone_inputs: int = 0
    cone_depth: int = 0
    attrs: dict = field(default_factory=dict)

    def __repr__(self) -> str:  # compact, used in reports
        return (f"SensibleZone({self.name!r}, {self.kind.value}, "
                f"bits={self.size_bits}, cone={self.cone_gates})")


class ObservationKind(str, Enum):
    """§3: the observation point is another zone, a primary output, a
    primary function, or an alarm of the diagnostic."""

    OUTPUT = "output"
    ALARM = "alarm"
    ZONE = "zone"
    FUNCTION = "function"


@dataclass(frozen=True)
class ObservationPoint:
    """A point where zone-failure effects are measured."""

    name: str
    kind: ObservationKind
    nets: tuple[int, ...] = ()

    @property
    def is_diagnostic(self) -> bool:
        return self.kind is ObservationKind.ALARM


@dataclass(frozen=True)
class Effect:
    """A (zone failure -> observation point) effect.

    ``order`` distinguishes the paper's main effect (0: the first
    observation point that will at least be hit, if not masked) from
    secondary effects (>0: reached through the output cone and further
    zones).  ``distance`` is the sequential depth (clock cycles through
    registers) from the zone to the observation point.
    """

    zone: str
    observation: str
    order: int
    distance: int

    @property
    def is_main(self) -> bool:
        return self.order == 0
