"""Zone-connectivity graph analyses (standard library only).

Turns the extraction results into a directed graph whose nodes are
sensible zones and observation points and whose edges are the
structural "failure can migrate from A to B" relations of §3 — the
graph behind Figures 1-3.  Every edge runs from a zone to an
observation point, as :func:`~repro.zones.effects.predict_effects_table`
reports it.  Useful for:

* ranking zones by *reach* (how many observation points a failure can
  touch);
* finding zones with no path to any diagnostic alarm (structurally
  undetectable failures: λDU by construction);
* exporting the graph as GraphML for visualization.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .effects import predict_effects_table
from .extractor import ZoneSet
from .model import ObservationKind, ZoneKind

_GRAPH_KINDS = (ZoneKind.REGISTER, ZoneKind.MEMORY, ZoneKind.PRIMARY_INPUT)
_STORAGE_KINDS = (ZoneKind.REGISTER, ZoneKind.MEMORY)

#: GraphML ``attr.type`` per Python type (bool before its superclass)
_GRAPHML_TYPES = ((bool, "boolean"), (int, "long"), (str, "string"))
_GRAPHML_ROOT = {
    "xmlns": "http://graphml.graphdrawing.org/xmlns",
    "xmlns:xsi": "http://www.w3.org/2001/XMLSchema-instance",
    "xsi:schemaLocation": "http://graphml.graphdrawing.org/xmlns "
                          "http://graphml.graphdrawing.org/xmlns/1.0/"
                          "graphml.xsd",
}


@dataclass
class ZoneGraph:
    """Node attributes by name; ``succ[zone][point]`` holds the
    attributes of the edge zone -> point (every zone has an entry)."""

    node_attrs: dict[str, dict] = field(default_factory=dict)
    succ: dict[str, dict[str, dict]] = field(default_factory=dict)

    def nodes(self, data: bool = False) -> list:
        return list(self.node_attrs.items() if data else self.node_attrs)

    def edges(self, data: bool = False) -> list:
        return [(u, v, attrs) if data else (u, v)
                for u, out in self.succ.items()
                for v, attrs in out.items()]


def build_zone_graph(zone_set: ZoneSet,
                     kinds=_GRAPH_KINDS) -> ZoneGraph:
    """Zones/observation-points digraph with sequential-distance
    weights.

    An edge zone -> point exists when the zone's failure structurally
    reaches the observation point; the ``distance`` attribute is the
    minimum number of register crossings.
    """
    graph = ZoneGraph()
    zones = [zone for zone in zone_set.zones if zone.kind in kinds]
    table = predict_effects_table(zone_set, zones)
    for point in zone_set.observation_points:
        graph.node_attrs.setdefault(point.name, {}).update(
            kind="observation", observation_kind=point.kind.value)
    for zone in zones:
        graph.node_attrs.setdefault(zone.name, {}).update(
            kind="zone", zone_kind=zone.kind.value, bits=zone.size_bits)
        out = graph.succ.setdefault(zone.name, {})
        for effect in table[zone.name].effects:
            out.setdefault(effect.observation, {}).update(
                distance=effect.distance, main=effect.is_main)
    return graph


def undiagnosed_zones(zone_set: ZoneSet,
                      kinds=_STORAGE_KINDS) -> list[str]:
    """Zones that reach a functional output but no diagnostic alarm.

    These are structurally dangerous-undetected: no diagnostic can ever
    flag their failures — the graph-theoretic face of the baseline's
    decoder-pipeline blind spot.
    """
    alarms = {p.name for p in zone_set.diagnostic_points()}
    functional = {p.name for p in zone_set.observation_points
                  if p.kind is ObservationKind.OUTPUT}
    return sorted(zone for zone, out
                  in build_zone_graph(zone_set, kinds).succ.items()
                  if out.keys() & functional and not out.keys() & alarms)


def zone_reach(zone_set: ZoneSet) -> dict[str, int]:
    """Number of observation points each zone's failure can touch."""
    return {zone: len(out)
            for zone, out in build_zone_graph(zone_set).succ.items()}


def diagnostic_reach_ratio(zone_set: ZoneSet) -> float:
    """Fraction of storage zones with a structural path to an alarm."""
    succ = build_zone_graph(zone_set, _STORAGE_KINDS).succ
    if not succ:
        return 1.0
    alarms = {p.name for p in zone_set.diagnostic_points()}
    return sum(1 for out in succ.values() if out.keys() & alarms) \
        / len(succ)


def export_graphml(zone_set: ZoneSet, path) -> None:
    """Write the zone graph as GraphML for external visualization
    tools (GraphML keys and types as networkx's writer declares them)."""
    graph = build_zone_graph(zone_set)
    root = ET.Element("graphml", _GRAPHML_ROOT)
    keys: dict[tuple[str, str], str] = {}

    def add_data(element, scope: str, attrs: dict) -> None:
        for name, value in attrs.items():
            key = keys.get((scope, name))
            if key is None:
                key = keys[scope, name] = f"d{len(keys)}"
                attr_type = next(t for py, t in _GRAPHML_TYPES
                                 if isinstance(value, py))
                root.insert(0, ET.Element("key", {
                    "id": key, "for": scope, "attr.name": name,
                    "attr.type": attr_type}))
            ET.SubElement(element, "data", key=key).text = str(value)

    body = ET.SubElement(root, "graph", edgedefault="directed")
    for name, attrs in graph.nodes(data=True):
        add_data(ET.SubElement(body, "node", id=name), "node", attrs)
    for source, target, attrs in graph.edges(data=True):
        add_data(ET.SubElement(body, "edge", source=source,
                               target=target), "edge", attrs)
    ET.indent(root)
    with open(path, "wb") as handle:
        ET.ElementTree(root).write(handle, encoding="utf-8",
                                   xml_declaration=True)
        handle.write(b"\n")
