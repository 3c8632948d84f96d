"""Local / wide / global classification of physical HW faults (§3).

* **local**: the fault affects gates of a logic cone contributing to a
  single sensible zone;
* **wide**: the fault sits in logic shared by the cones of two or more
  zones (including clock/reset buffers feeding several flip-flops and
  coupled lines), so a single physical fault yields multiple failures;
* **global**: the fault affects many logic cones — PLL/clock-tree roots,
  power-supply or thermal faults over large areas.  We classify a fault
  as global when it reaches at least ``global_fraction`` of all zones or
  sits on a designated global net.
"""

from __future__ import annotations

from dataclasses import dataclass

from .extractor import ZoneSet
from .model import FaultClass


@dataclass
class FaultExtent:
    """Classification result for one physical fault site."""

    site: str
    fault_class: FaultClass
    zones: tuple[str, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.zones)


class FaultClassifier:
    """Classifies gate/net fault sites against extracted zone cones."""

    def __init__(self, zone_set: ZoneSet, global_fraction: float = 0.25,
                 global_nets: tuple[str, ...] = ()):
        self.zone_set = zone_set
        self.global_fraction = global_fraction
        self.global_nets = set(global_nets)
        self._gate_zones = zone_set.correlation.gate_zones \
            if zone_set.correlation is not None else {}
        self._injectable_zones = [
            z.name for z in zone_set.zones
            if z.name in zone_set.cones and zone_set.cones[z.name].gates]
        # zones by the nets that define them, and by the graph nodes
        # (flop q nets, memory nodes) of the state they hold
        circuit = zone_set.circuit
        q_of = {f.name: f.q for f in circuit.flops}
        mem_node = {m.name: circuit.num_nets + i
                    for i, m in enumerate(circuit.memories)}
        self._net_zones: dict[int, set[str]] = {}
        self._state_zones: dict[int, set[str]] = {}
        for zone in zone_set.zones:
            for net in zone.nets:
                self._net_zones.setdefault(net, set()).add(zone.name)
            nodes = [q_of[name] for name in zone.flops if name in q_of]
            if zone.memory in mem_node:
                nodes.append(mem_node[zone.memory])
            for node in nodes:
                self._state_zones.setdefault(node, set()).add(zone.name)

    # ------------------------------------------------------------------
    def classify_gate(self, gate_idx: int) -> FaultExtent:
        """Classify a stuck-at at the output of a gate."""
        circuit = self.zone_set.circuit
        zones = tuple(sorted(self._gate_zones.get(gate_idx, ())))
        site = f"gate:{circuit.net_names[circuit.gates[gate_idx].out]}"
        return self._extent(site, zones)

    def classify_net(self, net) -> FaultExtent:
        """Classify a fault on a net (stuck-at, bridge, SET).

        The net belongs to the zones it defines, to every zone whose
        input cone holds a gate it feeds, and to the zones of the flops
        and memories it feeds.
        """
        circuit = self.zone_set.circuit
        if isinstance(net, str):
            net_name = net
            net = circuit.find_net(net)
        else:
            net_name = circuit.net_names[net]

        graph = self.zone_set.graph
        zones = set(self._net_zones.get(net, ()))
        for node in graph.succ[net]:
            if node < graph.num_nets and graph.comb[node]:
                zones.update(self._gate_zones.get(graph.driver[node], ()))
            else:
                zones.update(self._state_zones.get(node, ()))

        site = f"net:{net_name}"
        if net_name in self.global_nets:
            return FaultExtent(site, FaultClass.GLOBAL,
                               tuple(sorted(zones)))
        return self._extent(site, tuple(sorted(zones)))

    def _extent(self, site: str, zones: tuple[str, ...]) -> FaultExtent:
        total = max(1, len(self._injectable_zones))
        if len(zones) >= max(3, self.global_fraction * total):
            cls = FaultClass.GLOBAL
        elif len(zones) > 1:
            cls = FaultClass.WIDE
        elif len(zones) == 1:
            cls = FaultClass.LOCAL
        else:
            cls = FaultClass.LOCAL  # untraced site: conservatively local
        return FaultExtent(site, cls, zones)

    # ------------------------------------------------------------------
    def census(self) -> dict[str, int]:
        """Count gates by classification (local/wide/global)."""
        counts = {FaultClass.LOCAL.value: 0, FaultClass.WIDE.value: 0,
                  FaultClass.GLOBAL.value: 0}
        for gate_idx in range(len(self.zone_set.circuit.gates)):
            extent = self.classify_gate(gate_idx)
            counts[extent.fault_class.value] += 1
        return counts
