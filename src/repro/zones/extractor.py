"""Automatic sensible-zone and observation-point extraction (paper §3).

"In a first step, a set of sensible zones are identified from the RTL
description" — registers (the state registers of the interconnected
Moore machines are the best candidates), primary inputs and outputs,
critical nets such as clocks or long (high-fanout) nets, and entire
sub-blocks.  Memories are modeled with their own fault model and
represented as region zones.

The extractor also produces observation points: primary outputs, with
those matching the configured alarm patterns classified as diagnostic
(DIAG) points.
"""

from __future__ import annotations

import difflib
import functools
from dataclasses import dataclass, field

from ..diagnostics import DiagnosticError, DiagnosticReport
from ..hdl.netgraph import NetGraph
from ..hdl.netlist import Circuit, OP_BUF, OP_CONST0, OP_CONST1
from .cones import Cone, CorrelationReport, correlate_zones
from .model import (
    ObservationKind,
    ObservationPoint,
    SensibleZone,
    ZoneKind,
)


@dataclass
class ExtractionConfig:
    """Granularity knobs of the extraction tool.

    ``register_slice_bits`` controls how wide registers are split into
    zones (the paper's tool "collect[s] and properly compact[s] the
    registers"); ``critical_fanout`` is the load threshold above which a
    net is considered critical (clock/reset buffers, long nets);
    ``memory_words_per_zone`` partitions memory arrays into region
    zones.
    """

    register_slice_bits: int = 8
    critical_fanout: int = 24
    memory_words_per_zone: int = 64
    include_ports: bool = True
    include_critical_nets: bool = True
    include_subblocks: bool = True
    subblock_depth: int = 1
    alarm_patterns: tuple[str, ...] = ("alarm", "err", "fault", "diag")
    #: outputs matching these are status/housekeeping, not part of the
    #: safety function (observed for effects, excluded from the
    #: dangerous-corruption judgement)
    status_patterns: tuple[str, ...] = ("scrub_", "bist_done", "_busy")


class ZoneLookupError(DiagnosticError, KeyError):
    """A zone name resolved to nothing — with did-you-mean hints.

    Still a :class:`KeyError` for legacy callers; the attached ``E200``
    diagnostic names the closest extracted zone names so a typo or a
    stale configuration after a netlist edit is a one-glance fix.
    """

    def __init__(self, name: str, candidates=()):
        self.name = name
        self.suggestions = difflib.get_close_matches(
            name, list(candidates), n=3, cutoff=0.5)
        message = f"unknown zone {name!r}"
        hint = None
        if self.suggestions:
            options = ", ".join(repr(s) for s in self.suggestions)
            message += f" — did you mean {options}?"
            hint = (f"the closest extracted zone name(s): {options}")
        report = DiagnosticReport()
        report.error("E200", message, hint=hint)
        DiagnosticError.__init__(self, report)


@dataclass
class ZoneSet:
    """Result of an extraction run."""

    circuit: Circuit
    zones: list[SensibleZone]
    observation_points: list[ObservationPoint]
    correlation: CorrelationReport | None = None
    cones: dict[str, Cone] = field(default_factory=dict)
    #: the granularity knobs this set was extracted with — persisted
    #: in the zone-config file so a later re-extraction (``doctor``)
    #: reproduces the same zone names
    config: ExtractionConfig | None = None
    _graph: NetGraph | None = field(default=None, repr=False)

    @property
    def graph(self) -> NetGraph:
        """The netlist graph the extraction walked, kept for the
        effects, diagnostic-only and classification walks over the same
        circuit (built on first use for a set assembled from parts)."""
        if self._graph is None:
            self._graph = NetGraph(self.circuit)
        return self._graph

    def __len__(self) -> int:
        return len(self.zones)

    def by_name(self, name: str) -> SensibleZone:
        for zone in self.zones:
            if zone.name == name:
                return zone
        raise ZoneLookupError(name, (z.name for z in self.zones))

    def of_kind(self, kind: ZoneKind) -> list[SensibleZone]:
        return [z for z in self.zones if z.kind is kind]

    def functional_points(self) -> list[ObservationPoint]:
        return [p for p in self.observation_points if not p.is_diagnostic]

    def diagnostic_points(self) -> list[ObservationPoint]:
        return [p for p in self.observation_points if p.is_diagnostic]

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for zone in self.zones:
            counts[zone.kind.value] = counts.get(zone.kind.value, 0) + 1
        counts["total"] = len(self.zones)
        return counts


class ZoneExtractor:
    """Extracts sensible zones and observation points from a netlist."""

    def __init__(self, circuit: Circuit,
                 config: ExtractionConfig | None = None):
        self.circuit = circuit
        self.config = config or ExtractionConfig()

    # ------------------------------------------------------------------
    def extract(self, analyze_cones: bool = True) -> ZoneSet:
        graph = NetGraph(self.circuit)
        zones: list[SensibleZone] = []
        zones.extend(self._register_zones())
        zones.extend(self._memory_zones())
        if self.config.include_ports:
            zones.extend(self._port_zones())
        if self.config.include_critical_nets:
            zones.extend(self._critical_net_zones(graph))
        if self.config.include_subblocks:
            zones.extend(self._subblock_zones(graph))

        points = self.observation_points()
        zone_set = ZoneSet(self.circuit, zones, points,
                           config=self.config, _graph=graph)

        if analyze_cones:
            # zero-area cells (buffers, ties) do not count as cone gates
            circuit_gates = self.circuit.gates
            skip = (OP_BUF, OP_CONST0, OP_CONST1)
            flops = {f.name: f for f in self.circuit.flops}
            for zone in zones:
                roots = self._cone_roots(zone, flops)
                gates, boundary, depth = graph.fanin_cone(roots)
                zone.cone_gates = sum(1 for gi in gates
                                      if circuit_gates[gi].op not in skip)
                zone.cone_inputs = len(boundary)
                zone.cone_depth = depth
                zone_set.cones[zone.name] = Cone(
                    roots, frozenset(gates), frozenset(boundary), depth)
            zone_set.correlation = correlate_zones(zone_set.cones)
        return zone_set

    def _cone_roots(self, zone: SensibleZone, flops: dict
                    ) -> tuple[int, ...]:
        """The nets in front of a zone: a register's flop d (and
        enable / reset) pins, a memory's address, write data and write
        enable, otherwise the zone nets themselves."""
        if zone.kind is ZoneKind.REGISTER:
            nets: list[int] = []
            for name in zone.flops:
                flop = flops[name]
                nets.append(flop.d)
                if flop.en is not None:
                    nets.append(flop.en)
                if flop.rst is not None:
                    nets.append(flop.rst)
            return tuple(nets)
        if zone.kind is ZoneKind.MEMORY and zone.memory is not None:
            mem = next(m for m in self.circuit.memories
                       if m.name == zone.memory)
            return (*mem.addr, *mem.wdata, mem.we)
        return tuple(zone.nets)

    # ------------------------------------------------------------------
    def _register_zones(self) -> list[SensibleZone]:
        zones = []
        slice_bits = max(1, self.config.register_slice_bits)
        for base, flops in self.circuit.iter_flops_by_register():
            for start in range(0, len(flops), slice_bits):
                chunk = flops[start:start + slice_bits]
                name = base
                if len(flops) > slice_bits:
                    name = f"{base}[{start}:{start + len(chunk) - 1}]"
                zones.append(SensibleZone(
                    name=name,
                    kind=ZoneKind.REGISTER,
                    nets=tuple(f.q for f in chunk),
                    flops=tuple(f.name for f in chunk),
                    path=chunk[0].path,
                    size_bits=len(chunk)))
        return zones

    def _memory_zones(self) -> list[SensibleZone]:
        zones = []
        words_per = max(1, self.config.memory_words_per_zone)
        for mem in self.circuit.memories:
            for start in range(0, mem.depth, words_per):
                end = min(start + words_per, mem.depth) - 1
                name = mem.name
                if mem.depth > words_per:
                    name = f"{mem.name}/words[{start}:{end}]"
                zones.append(SensibleZone(
                    name=name,
                    kind=ZoneKind.MEMORY,
                    nets=tuple(mem.rdata),
                    path=mem.path,
                    size_bits=(end - start + 1) * mem.width,
                    memory=mem.name,
                    mem_words=(start, end)))
        return zones

    def _port_zones(self) -> list[SensibleZone]:
        zones = []
        for name, nets in self.circuit.inputs.items():
            zones.append(SensibleZone(
                name=f"pi:{name}", kind=ZoneKind.PRIMARY_INPUT,
                nets=tuple(nets), size_bits=len(nets)))
        for name, nets in self.circuit.outputs.items():
            zones.append(SensibleZone(
                name=f"po:{name}", kind=ZoneKind.PRIMARY_OUTPUT,
                nets=tuple(nets), size_bits=len(nets)))
        return zones

    def _critical_net_zones(self, graph: NetGraph) -> list[SensibleZone]:
        """Nets with at least ``critical_fanout`` loads (gate, flop and
        memory input pins and output-port pins), in the order of their
        first load in the netlist: gates, flops, memories, ports."""
        circuit = self.circuit
        n, succ, driver = graph.num_nets, graph.succ, graph.driver
        loads = [len(nodes) for nodes in succ[:n]]
        port_pin: dict[int, int] = {}
        for pin, net in enumerate(circuit.output_nets()):
            loads[net] += 1
            port_pin.setdefault(net, pin)
        flop_of = {f.q: i for i, f in enumerate(circuit.flops)}
        inputs = set(circuit.input_nets())

        def first_load(net: int) -> tuple[int, int, int]:
            # the graph lists a net's loads in netlist order
            if not succ[net]:
                return (3, port_pin[net], 0)
            node = succ[net][0]
            if node >= n:
                mem = circuit.memories[node - n]
                return (2, node - n,
                        (*mem.addr, *mem.wdata, mem.we).index(net))
            if driver[node] >= 0:
                return (0, driver[node],
                        circuit.gates[driver[node]].inputs.index(net))
            flop = circuit.flops[flop_of[node]]
            return (1, flop_of[node],
                    (flop.d, flop.en, flop.rst).index(net))

        const_nets = {g.out for g in circuit.gates
                      if g.op in (OP_CONST0, OP_CONST1)}
        critical = [net for net in range(n)
                    if loads[net] >= self.config.critical_fanout
                    and net not in const_nets]
        zones = []
        for net in sorted(critical, key=first_load):
            # Circuit.driver_map's names; read data hangs off a memory
            kind = ("gate" if driver[net] >= 0 else
                    "flop" if net in flop_of else
                    "mem" if graph.pred[net] else
                    "input" if net in inputs else "?")
            zones.append(SensibleZone(
                name=f"critical:{circuit.net_names[net]}",
                kind=ZoneKind.CRITICAL_NET,
                nets=(net,),
                size_bits=1,
                attrs={"fanout": loads[net], "driver": kind}))
        return zones

    def _subblock_zones(self, graph: NetGraph) -> list[SensibleZone]:
        depth = self.config.subblock_depth

        @functools.cache
        def top_of(path: str) -> str:
            return "/".join(path.split("/")[:depth]) if path else ""

        circuit = self.circuit
        blocks: dict[str, list] = {}    # top -> [gates, flops, nets]
        for gate in circuit.gates:
            if gate.path and gate.op not in (OP_CONST0, OP_CONST1, OP_BUF):
                block = blocks.setdefault(top_of(gate.path), [0, 0, []])
                block[0] += 1
                block[2].append(gate.out)
        for flop in circuit.flops:
            if flop.path:
                block = blocks.setdefault(top_of(flop.path), [0, 0, []])
                block[1] += 1
                block[2].append(flop.q)

        # block outputs: nets driven inside the block, consumed outside
        # (by a gate, a flop's d pin or an output port)
        n, driver = graph.num_nets, graph.driver
        flop_of = {f.q: f for f in circuit.flops}
        port_nets = set(circuit.output_nets())

        def used_outside(net: int, top: str) -> bool:
            if net in port_nets:
                return True
            for node in graph.succ[net]:
                if node >= n:
                    continue                # a memory pin
                if driver[node] >= 0:
                    path = circuit.gates[driver[node]].path
                elif flop_of[node].d == net:
                    path = flop_of[node].path
                else:
                    continue                # a flop's en or rst pin
                if top_of(path) != top:
                    return True
            return False

        return [SensibleZone(
            name=f"block:{top}", kind=ZoneKind.SUBBLOCK,
            nets=tuple(sorted(net for net in nets
                              if used_outside(net, top))),
            path=top, size_bits=flops,
            attrs={"gates": gates, "flops": flops})
            for top, (gates, flops, nets) in sorted(blocks.items())]

    # ------------------------------------------------------------------
    def observation_points(self) -> list[ObservationPoint]:
        points = []
        for name, nets in self.circuit.outputs.items():
            lowered = name.lower()
            if any(p in lowered for p in self.config.alarm_patterns):
                kind = ObservationKind.ALARM
            elif any(p in lowered for p in self.config.status_patterns):
                kind = ObservationKind.FUNCTION
            else:
                kind = ObservationKind.OUTPUT
            points.append(ObservationPoint(name=name, kind=kind,
                                           nets=tuple(nets)))
        return points


def extract_zones(circuit: Circuit,
                  config: ExtractionConfig | None = None,
                  analyze_cones: bool = True) -> ZoneSet:
    """Convenience wrapper: extract zones + observation points."""
    return ZoneExtractor(circuit, config).extract(analyze_cones)
