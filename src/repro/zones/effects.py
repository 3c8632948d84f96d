"""Main/secondary effect prediction (paper §3, Figures 1-3).

The *main effect* of a zone failure is the effect that "at least will
occur" at an observation point if not masked internally; *secondary
effects* occur at other observation points reached through the zone's
output cone and further zones.  Structurally, the main effect is the
nearest observation point in the forward (fanout) graph — measured in
sequential depth, i.e. the number of register/memory crossings — and
every other reachable observation point is a candidate secondary
effect.

The fault-injection result analyzer later compares the *measured*
effects table against this structural prediction (§5 step a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .extractor import ZoneSet
from .model import Effect, ObservationKind


@dataclass
class PredictedEffects:
    """All predicted effects for one zone, main effect first."""

    zone: str
    effects: list[Effect] = field(default_factory=list)

    @property
    def main(self) -> Effect | None:
        return self.effects[0] if self.effects else None

    @property
    def secondary(self) -> list[Effect]:
        return self.effects[1:]

    def reaches(self, observation: str) -> bool:
        return any(e.observation == observation for e in self.effects)


def predict_effects_table(zone_set: ZoneSet, zones=None
                          ) -> dict[str, PredictedEffects]:
    """Predicted effects for every zone of ``zone_set`` (or for
    ``zones``): the structural effects table.

    One 0-1 BFS of the extraction's netlist graph per zone, from the
    zone nets; an observation point's distance is that of its nearest
    net, and the effects are ordered by distance, then point name.
    """
    graph = zone_set.graph
    net_points: dict[int, list[str]] = {}
    for point in zone_set.observation_points:
        for net in point.nets:
            net_points.setdefault(net, []).append(point.name)
    table: dict[str, PredictedEffects] = {}
    for zone in zone_set.zones if zones is None else zones:
        reached: dict[str, int] = {}
        for net, d in graph.distances(zone.nets).items():
            for name in net_points.get(net, ()):
                if name not in reached or d < reached[name]:
                    reached[name] = d
        ordered = sorted(reached.items(), key=lambda kv: (kv[1], kv[0]))
        table[zone.name] = PredictedEffects(zone=zone.name, effects=[
            Effect(zone=zone.name, observation=name, order=i, distance=d)
            for i, (name, d) in enumerate(ordered)])
    return table


def diagnostic_only_nets(zone_set: ZoneSet) -> set[int]:
    """Nets whose *only* observable effect is on diagnostic alarms.

    These are the checker-disagreement and alarm-path nets: in a
    fault-free run they are structurally silent (two redundant
    checkers never disagree), so they cannot be toggled by any
    workload — they are exercised by fault injection instead.  The
    validation flow uses this set to split the toggle-coverage
    requirement of §5 step b.

    Computed by reverse reachability: a net is diagnostic-only when it
    reaches at least one alarm point and no functional/status point.
    """
    graph = zone_set.graph
    alarm_roots: list[int] = []
    func_roots: list[int] = []
    for point in zone_set.observation_points:
        if point.kind is ObservationKind.ALARM:
            alarm_roots.extend(point.nets)
        else:
            func_roots.extend(point.nets)
    reaches_alarm = graph.closure(alarm_roots, backward=True)
    reaches_func = graph.closure(func_roots, backward=True)
    return {net for net in range(graph.num_nets)
            if reaches_alarm[net] and not reaches_func[net]}
