"""Logic cones and zone correlation (paper §3).

For every sensible zone the extraction tool collects "the composition of
the logic cone in front of each sensible zone (i.e. gate-count,
interconnections and so forth) and the correlation between each sensible
zone in terms of shared gates and nets".  The cones are fan-in walks of
the netlist graph (:meth:`~repro.hdl.netgraph.NetGraph.fanin_cone`),
bounded at sequential elements (flop outputs, memory read data) and
primary inputs; this module holds their record and the correlation
computed from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


@dataclass
class Cone:
    """The combinational input cone of a set of nets."""

    roots: tuple[int, ...]
    gates: frozenset[int]
    boundary_nets: frozenset[int]   # flop q / mem rdata / PI nets feeding it
    depth: int

    @property
    def gate_count(self) -> int:
        return len(self.gates)


class CorrelationReport:
    """Shared-logic correlation between zone cones (§3 'wide' faults).

    ``gate_zones`` maps every gate to the zones whose cone contains
    it, in zone order.
    """

    def __init__(self, gate_zones: dict[int, list[str]]):
        self.gate_zones = gate_zones

    @cached_property
    def shared_gates(self) -> dict[tuple[str, str], int]:
        """Gates shared per zone pair, counted on first use."""
        shared: dict[tuple[str, str], int] = {}
        for names in self.gate_zones.values():
            if len(names) > 1:
                for pair in combinations(sorted(names), 2):
                    shared[pair] = shared.get(pair, 0) + 1
        return shared

    def correlated_pairs(self, min_shared: int = 1):
        """``(pair, shared gates)`` by descending count, then pair."""
        return sorted(((pair, n) for pair, n in self.shared_gates.items()
                       if n >= min_shared),
                      key=lambda item: (-item[1], item[0]))

    @property
    def wide_gate_count(self) -> int:
        """Gates contributing to more than one zone cone."""
        return sum(1 for names in self.gate_zones.values()
                   if len(names) > 1)


def correlate_zones(zone_cones: dict[str, Cone]) -> CorrelationReport:
    """The gate -> zones map of the zone cones."""
    gate_zones: dict[int, list[str]] = {}
    for name, cone in zone_cones.items():
        for gate in cone.gates:
            gate_zones.setdefault(gate, []).append(name)
    return CorrelationReport(gate_zones)
