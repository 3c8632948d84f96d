"""The netlist walkers the graph index replaced, kept as test oracles.

Production code walks one :class:`~repro.hdl.netgraph.NetGraph` per
circuit.  Before it, each analysis built and walked its own adjacency;
those walkers are kept here unchanged so the differential suite
(``tests/test_netgraph.py``) can require the same results from the
shared graph:

* :class:`ConeAnalyzer` — memoized per-net fan-in cones;
* :class:`EffectPredictor` — forward 0-1 BFS to observation points;
* :func:`diagnostic_only_nets` — reverse reachability to alarms;
* :func:`support_closures` — the support-cone index's successor and
  predecessor lists and its marking walk;
* :func:`compiled_drivers` and :func:`compiled_levels` — the
  compiler's driver claims and its Kahn pass with ASAP levels;
* :func:`fanout_map`, :func:`critical_net_zones` and
  :func:`subblock_zones` — the per-net consumer listing and the zone
  extractor's critical-net and sub-block walks over it.
"""

from __future__ import annotations

from collections import deque

from repro.diagnostics import Diagnostic
from repro.hdl.compiled import LOOP_CODE, CompileError
from repro.hdl.netlist import (
    Circuit,
    NetlistError,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
)
from repro.zones.cones import Cone
from repro.zones.effects import PredictedEffects
from repro.zones.extractor import ExtractionConfig
from repro.zones.model import (
    Effect,
    ObservationKind,
    ObservationPoint,
    SensibleZone,
    ZoneKind,
)


class ConeAnalyzer:
    """Backward-cone computation with memoized per-net traversal."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._driver = circuit.driver_map()
        self._sources = self._source_nets()
        self._cache: dict[int, tuple[frozenset[int], frozenset[int], int]] \
            = {}

    def _source_nets(self) -> set[int]:
        sources = set(self.circuit.input_nets())
        for flop in self.circuit.flops:
            sources.add(flop.q)
        for mem in self.circuit.memories:
            sources.update(mem.rdata)
        return sources

    def _net_cone(self, net: int) -> tuple[frozenset[int], frozenset[int],
                                           int]:
        """(gates, boundary nets, depth) of the cone driving ``net``.

        Iterative DFS with memoization; the netlist is acyclic in its
        combinational part (guaranteed by Circuit.validate).
        """
        cached = self._cache.get(net)
        if cached is not None:
            return cached

        stack = [net]
        postorder: list[int] = []
        visiting: set[int] = set()
        while stack:
            n = stack.pop()
            if n in self._cache or n in visiting:
                continue
            if n in self._sources or n not in self._driver:
                self._cache[n] = (frozenset(), frozenset({n}), 0)
                continue
            desc = self._driver[n]
            if desc[0] != "gate":
                self._cache[n] = (frozenset(), frozenset({n}), 0)
                continue
            visiting.add(n)
            postorder.append(n)
            gate = self.circuit.gates[desc[1]]
            for src in gate.inputs:
                if src not in self._cache:
                    stack.append(src)

        # resolve in reverse discovery order until fixpoint
        pending = postorder
        while pending:
            still: list[int] = []
            for n in pending:
                desc = self._driver[n]
                gate_idx = desc[1]
                gate = self.circuit.gates[gate_idx]
                parts = []
                ok = True
                for src in gate.inputs:
                    got = self._cache.get(src)
                    if got is None:
                        ok = False
                        break
                    parts.append(got)
                if not ok:
                    still.append(n)
                    continue
                gates = frozenset({gate_idx}).union(
                    *(p[0] for p in parts)) if parts \
                    else frozenset({gate_idx})
                boundary = frozenset().union(*(p[1] for p in parts)) \
                    if parts else frozenset()
                depth = 1 + max((p[2] for p in parts), default=0)
                self._cache[n] = (gates, boundary, depth)
            if len(still) == len(pending):
                raise RuntimeError("cone resolution stalled "
                                   "(combinational cycle?)")
            pending = still
        return self._cache[net]

    # ------------------------------------------------------------------
    def cone_of_nets(self, nets) -> Cone:
        """Combined input cone of several nets (e.g. a register's d pins)."""
        gates: set[int] = set()
        boundary: set[int] = set()
        depth = 0
        roots = tuple(nets)
        for net in roots:
            g, b, d = self._net_cone(net)
            gates |= g
            boundary |= b
            depth = max(depth, d)
        return Cone(roots=roots, gates=frozenset(gates),
                    boundary_nets=frozenset(boundary), depth=depth)

    def cone_of_zone_inputs(self, zone) -> Cone:
        """Cone feeding a zone: the logic in front of its state/nets.

        For register zones this is the cone of the flop d (and enable /
        reset) pins; for other zones, the cone of the zone nets
        themselves.
        """
        nets: list[int] = []
        if zone.kind is ZoneKind.REGISTER:
            by_name = {f.name: f for f in self.circuit.flops}
            for fname in zone.flops:
                flop = by_name[fname]
                nets.append(flop.d)
                if flop.en is not None:
                    nets.append(flop.en)
                if flop.rst is not None:
                    nets.append(flop.rst)
        elif zone.kind is ZoneKind.MEMORY and zone.memory is not None:
            mem = next(m for m in self.circuit.memories
                       if m.name == zone.memory)
            nets.extend(mem.addr)
            nets.extend(mem.wdata)
            nets.append(mem.we)
        else:
            nets.extend(zone.nets)
        return self.cone_of_nets(nets)

    def effective_gate_count(self, cone: Cone) -> int:
        """Gate count excluding zero-area cells (buffers, ties)."""
        skip = (OP_BUF, OP_CONST0, OP_CONST1)
        return sum(1 for gi in cone.gates
                   if self.circuit.gates[gi].op not in skip)


class EffectPredictor:
    """Forward 0-1 BFS through the netlist to observation points."""

    def __init__(self, circuit: Circuit,
                 observation_points: list[ObservationPoint]):
        self.circuit = circuit
        self.points = observation_points
        self._adjacency = self._build_adjacency()
        self._net_points: dict[int, list[str]] = {}
        for point in observation_points:
            for net in point.nets:
                self._net_points.setdefault(net, []).append(point.name)

    def _build_adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """net -> [(successor_net, weight)] with weight 1 across state."""
        adj: dict[int, list[tuple[int, int]]] = {}

        def link(src: int, dst: int, weight: int) -> None:
            adj.setdefault(src, []).append((dst, weight))

        for gate in self.circuit.gates:
            for net in gate.inputs:
                link(net, gate.out, 0)
        for flop in self.circuit.flops:
            link(flop.d, flop.q, 1)
            if flop.en is not None:
                link(flop.en, flop.q, 1)
            if flop.rst is not None:
                link(flop.rst, flop.q, 1)
        for mem in self.circuit.memories:
            feeders = list(mem.addr) + list(mem.wdata) + [mem.we]
            for src in feeders:
                for dst in mem.rdata:
                    link(src, dst, 1)
        return adj

    def distances_from(self, nets) -> dict[int, int]:
        """Minimum sequential distance from any of ``nets`` to all nets."""
        dist: dict[int, int] = {}
        queue: deque[int] = deque()
        for net in nets:
            dist[net] = 0
            queue.appendleft(net)
        while queue:
            net = queue.popleft()
            d = dist[net]
            for nxt, weight in self._adjacency.get(net, ()):
                nd = d + weight
                if nxt not in dist or nd < dist[nxt]:
                    dist[nxt] = nd
                    if weight == 0:
                        queue.appendleft(nxt)
                    else:
                        queue.append(nxt)
        return dist

    def predict_for_nets(self, zone_name: str, nets) -> PredictedEffects:
        dist = self.distances_from(nets)
        reached: dict[str, int] = {}
        for net, d in dist.items():
            for pname in self._net_points.get(net, ()):
                if pname not in reached or d < reached[pname]:
                    reached[pname] = d
        ordered = sorted(reached.items(), key=lambda kv: (kv[1], kv[0]))
        effects = [Effect(zone=zone_name, observation=name, order=i,
                          distance=d)
                   for i, (name, d) in enumerate(ordered)]
        return PredictedEffects(zone=zone_name, effects=effects)

    def predict(self, zone: SensibleZone) -> PredictedEffects:
        return self.predict_for_nets(zone.name, zone.nets)


def diagnostic_only_nets(circuit: Circuit,
                         observation_points: list[ObservationPoint]
                         ) -> set[int]:
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
    # reverse adjacency: net <- nets it is driven by... we need the
    # forward direction inverted: successor -> predecessors
    reverse: dict[int, list[int]] = {}

    def link(src: int, dst: int) -> None:
        reverse.setdefault(dst, []).append(src)

    for gate in circuit.gates:
        for net in gate.inputs:
            link(net, gate.out)
    for flop in circuit.flops:
        link(flop.d, flop.q)
        if flop.en is not None:
            link(flop.en, flop.q)
        if flop.rst is not None:
            link(flop.rst, flop.q)
    for mem in circuit.memories:
        for src in (*mem.addr, *mem.wdata, mem.we):
            for dst in mem.rdata:
                link(src, dst)

    def reach_back(roots) -> set[int]:
        seen = set(roots)
        stack = list(roots)
        while stack:
            net = stack.pop()
            for pred in reverse.get(net, ()):
                if pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        return seen

    alarm_roots: list[int] = []
    func_roots: list[int] = []
    for point in observation_points:
        if point.kind is ObservationKind.ALARM:
            alarm_roots.extend(point.nets)
        else:
            func_roots.extend(point.nets)
    reaches_alarm = reach_back(alarm_roots)
    reaches_func = reach_back(func_roots)
    return reaches_alarm - reaches_func


def support_closures(circuit: Circuit, nets, mems
                     ) -> tuple[bytearray, bytearray]:
    """``(forward, support)`` marks of a seed set over the nets plus
    one node per memory macro."""
    n = circuit.num_nets
    size = n + len(circuit.memories)
    succ: list[list[int]] = [[] for _ in range(size)]
    pred: list[list[int]] = [[] for _ in range(size)]
    for gate in circuit.gates:
        for net in gate.inputs:
            succ[net].append(gate.out)
        pred[gate.out].extend(gate.inputs)
    for flop in circuit.flops:
        for net in (flop.d, flop.en, flop.rst):
            if net is not None:
                succ[net].append(flop.q)
                pred[flop.q].append(net)
    for mi, mem in enumerate(circuit.memories):
        node = n + mi
        for net in (*mem.addr, *mem.wdata, mem.we):
            succ[net].append(node)
            pred[node].append(net)
        for net in mem.rdata:
            succ[node].append(net)
            pred[net].append(node)
    forward = bytearray(size)
    reached = []
    for node in (*nets, *(n + mi for mi in mems)):
        if not forward[node]:
            forward[node] = 1
            reached.append(node)
    _spread(succ, reached, forward)
    support = bytearray(forward)
    _spread(pred, reached, support)
    return forward, support


def _spread(adjacency: list[list[int]], reached: list[int],
            mark: bytearray) -> None:
    """Extend ``reached`` (already marked) to its closure over
    ``adjacency``, marking every node it adds."""
    for node in reached:            # visits what the loop appends
        for nxt in adjacency[node]:
            if not mark[nxt]:
                mark[nxt] = 1
                reached.append(nxt)


def compiled_drivers(circuit: Circuit) -> dict[int, tuple[str, int]]:
    """The compiler's net -> ``(kind, index)`` driver claims."""
    drivers: dict[int, tuple[str, int]] = {}

    def claim(net: int, desc: tuple[str, int]) -> None:
        if net in drivers:
            raise NetlistError(
                f"net {circuit.net_names[net]!r} has multiple "
                f"drivers; compiled renumbering requires the "
                f"single-driver rule")
        drivers[net] = desc

    for name, nets in circuit.inputs.items():
        for net in nets:
            claim(net, ("input", -1))
    for i, flop in enumerate(circuit.flops):
        claim(flop.q, ("flop", i))
    for i, mem in enumerate(circuit.memories):
        for net in mem.rdata:
            claim(net, ("mem", i))
    for i, gate in enumerate(circuit.gates):
        kind = "const" if gate.op in (OP_CONST0, OP_CONST1) \
            else "gate"
        claim(gate.out, (kind, i))
    return drivers


def compiled_levels(circuit: Circuit, drivers) -> list[int]:
    """ASAP level per gate index; CompileError (E120) on a loop."""
    n = circuit.num_nets
    net_level = [0] * n
    gate_level = [0] * len(circuit.gates)
    ready = [False] * n
    for net, (kind, _) in drivers.items():
        if kind != "gate":
            ready[net] = True
    for net in range(n):
        if net not in drivers:
            ready[net] = True

    remaining: dict[int, int] = {}
    waiters: dict[int, list[int]] = {}
    queue: list[int] = []
    for gi, gate in enumerate(circuit.gates):
        if gate.op in (OP_CONST0, OP_CONST1):
            ready[gate.out] = True
    for gi, gate in enumerate(circuit.gates):
        if gate.op in (OP_CONST0, OP_CONST1):
            continue
        missing = sum(1 for net in gate.inputs if not ready[net])
        if missing == 0:
            queue.append(gi)
        else:
            remaining[gi] = missing
            for net in gate.inputs:
                if not ready[net]:
                    waiters.setdefault(net, []).append(gi)

    placed = 0
    while queue:
        gi = queue.pop()
        gate = circuit.gates[gi]
        lvl = 0
        for net in gate.inputs:
            nl = net_level[net]
            if nl > lvl:
                lvl = nl
        gate_level[gi] = lvl
        placed += 1
        out = gate.out
        if not ready[out]:
            ready[out] = True
            net_level[out] = lvl + 1
            for gj in waiters.get(out, ()):
                remaining[gj] -= 1
                if remaining[gj] == 0:
                    queue.append(gj)

    total = sum(1 for g in circuit.gates
                if g.op not in (OP_CONST0, OP_CONST1))
    if placed != total:
        stuck = [gi for gi, left in remaining.items() if left > 0]
        names = [circuit.net_names[circuit.gates[gi].out]
                 for gi in stuck[:5]]
        raise CompileError(Diagnostic(
            code=LOOP_CODE,
            message=(f"circuit {circuit.name!r} has a "
                     f"combinational cycle involving nets "
                     f"{names} ({len(stuck)} gates unplaced)")))
    return gate_level


# ----------------------------------------------------------------------
# the per-net consumer listing and the zone walks over it
# ----------------------------------------------------------------------
def fanout_map(circuit: Circuit) -> dict[int, list[tuple]]:
    """Map net -> list of consumer descriptors.

    Consumers are ``('gate', gate_index, port)``,
    ``('flop', flop_index, role)`` with role in ``d``/``en``/``rst``,
    ``('mem', mem_index, role, bit)`` with role in
    ``addr``/``wdata``/``we``, or ``('output', port_name, bit)``.
    """
    fanout: dict[int, list[tuple]] = {}

    def use(net: int, desc: tuple) -> None:
        fanout.setdefault(net, []).append(desc)

    for i, gate in enumerate(circuit.gates):
        for port, net in enumerate(gate.inputs):
            use(net, ("gate", i, port))
    for i, flop in enumerate(circuit.flops):
        use(flop.d, ("flop", i, "d"))
        if flop.en is not None:
            use(flop.en, ("flop", i, "en"))
        if flop.rst is not None:
            use(flop.rst, ("flop", i, "rst"))
    for i, mem in enumerate(circuit.memories):
        for bit, net in enumerate(mem.addr):
            use(net, ("mem", i, "addr", bit))
        for bit, net in enumerate(mem.wdata):
            use(net, ("mem", i, "wdata", bit))
        use(mem.we, ("mem", i, "we", 0))
    for name, nets in circuit.outputs.items():
        for bit, net in enumerate(nets):
            use(net, ("output", name, bit))
    return fanout


def critical_net_zones(circuit: Circuit, config: ExtractionConfig
                       ) -> list[SensibleZone]:
    fanout = fanout_map(circuit)
    driver = circuit.driver_map()
    const_nets = {g.out for g in circuit.gates
                  if g.op in (OP_CONST0, OP_CONST1)}
    zones = []
    for net, loads in fanout.items():
        if net in const_nets:
            continue
        if len(loads) >= config.critical_fanout:
            desc = driver.get(net, ("?",))
            zones.append(SensibleZone(
                name=f"critical:{circuit.net_names[net]}",
                kind=ZoneKind.CRITICAL_NET,
                nets=(net,),
                size_bits=1,
                attrs={"fanout": len(loads),
                       "driver": desc[0]}))
    return zones


def subblock_zones(circuit: Circuit, config: ExtractionConfig
                   ) -> list[SensibleZone]:
    depth = config.subblock_depth
    blocks: dict[str, dict] = {}
    for gi, gate in enumerate(circuit.gates):
        if not gate.path or gate.op in (OP_CONST0, OP_CONST1, OP_BUF):
            continue
        top = "/".join(gate.path.split("/")[:depth])
        info = blocks.setdefault(top, {"gates": 0, "flops": 0,
                                       "out_nets": set(),
                                       "gate_nets": set()})
        info["gates"] += 1
        info["gate_nets"].add(gate.out)
    for flop in circuit.flops:
        if not flop.path:
            continue
        top = "/".join(flop.path.split("/")[:depth])
        info = blocks.setdefault(top, {"gates": 0, "flops": 0,
                                       "out_nets": set(),
                                       "gate_nets": set()})
        info["flops"] += 1
        info["gate_nets"].add(flop.q)

    # block outputs: nets driven inside the block, consumed outside
    consumer_path: dict[int, set[str]] = {}
    for gate in circuit.gates:
        top = "/".join(gate.path.split("/")[:depth]) if gate.path else ""
        for net in gate.inputs:
            consumer_path.setdefault(net, set()).add(top)
    for flop in circuit.flops:
        top = "/".join(flop.path.split("/")[:depth]) if flop.path else ""
        consumer_path.setdefault(flop.d, set()).add(top)
    for name, nets in circuit.outputs.items():
        for net in nets:
            consumer_path.setdefault(net, set()).add("<po>")

    zones = []
    for top, info in sorted(blocks.items()):
        out_nets = {net for net in info["gate_nets"]
                    if consumer_path.get(net, set()) - {top}}
        zones.append(SensibleZone(
            name=f"block:{top}", kind=ZoneKind.SUBBLOCK,
            nets=tuple(sorted(out_nets)),
            path=top,
            size_bits=info["flops"],
            attrs={"gates": info["gates"], "flops": info["flops"]}))
    return zones
