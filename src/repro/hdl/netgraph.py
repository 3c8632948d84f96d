"""The netlist graph index: one adjacency per circuit and its walks.

Everything the §3 extraction derives from a netlist — the logic cone in
front of each sensible zone, the zone-to-zone correlation, the main and
secondary effects at the observation points — and the support cones
behind fault fingerprints are walks over the same structure.
:class:`NetGraph` builds it once per consumer:

* nodes are the nets ``0 .. num_nets - 1`` followed by one node per
  memory macro;
* edges run from every gate input to the gate's output net, from a
  flop's ``d``/``en``/``rst`` nets to its ``q``, from a memory's
  ``addr``/``wdata``/``we`` nets to the memory node, and from the
  memory node to its ``rdata`` nets;
* each node has integer successor and predecessor lists, and each net
  its driving gate (``-1`` if none) and a *combinational* flag: driven
  by a gate, not a primary input, flop ``q`` or memory ``rdata``.

Four walks read it: a closure marking a ``bytearray`` (forward or
backward, through flops and memories), the bit-parallel support sweep
of many seed sets at once over the graph's strongly connected
components (:meth:`NetGraph.support_bits`), the bounded fan-in cone of
a set of nets, and 0-1 BFS distances counting sequential crossings.

The graph is a snapshot: build a new one after editing the circuit.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from .netlist import Circuit


class NetGraph:
    """Successor/predecessor lists over nets plus memory nodes."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.num_nets = n = circuit.num_nets
        self.size = size = n + len(circuit.memories)
        succ: list[list[int]] = [[] for _ in range(size)]
        pred: list[list[int]] = [[] for _ in range(size)]
        driver = [-1] * n
        comb = bytearray(n)
        #: 1 on the nodes an edge into which crosses state (flop q
        #: nets, memory nodes): the unit weight of :meth:`distances`
        crossing = bytearray(size)
        for gi, gate in enumerate(circuit.gates):
            out = gate.out
            for net in gate.inputs:
                succ[net].append(out)
            pred[out].extend(gate.inputs)
            driver[out] = gi
            comb[out] = 1
        for flop in circuit.flops:
            q = flop.q
            for net in (flop.d, flop.en, flop.rst):
                if net is not None:
                    succ[net].append(q)
                    pred[q].append(net)
            comb[q] = 0
            crossing[q] = 1
        for mi, mem in enumerate(circuit.memories):
            node = n + mi
            crossing[node] = 1
            for net in (*mem.addr, *mem.wdata, mem.we):
                succ[net].append(node)
                pred[node].append(net)
            for net in mem.rdata:
                succ[node].append(net)
                pred[net].append(node)
                comb[net] = 0
        for net in circuit.input_nets():
            comb[net] = 0
        self.succ = succ
        self.pred = pred
        self.driver = driver
        self.comb = comb
        self._crossing = crossing

    # ------------------------------------------------------------------
    @cached_property
    def depth(self) -> list[int]:
        """Logic depth per net: 0 at sources (primary inputs, flop q,
        memory rdata, undriven nets), 1 at constants, else one more
        than the deepest gate input.  Computed on first use over
        :meth:`Circuit.levelize`'s order, which raises
        :class:`~repro.hdl.netlist.NetlistError` on a loop."""
        depth = [0] * self.num_nets
        comb = self.comb
        gates = self.circuit.gates
        for gi in self.circuit.levelize():
            gate = gates[gi]
            out = gate.out
            if comb[out]:
                level = 0
                for net in gate.inputs:
                    if depth[net] > level:
                        level = depth[net]
                depth[out] = level + 1
        return depth

    # ------------------------------------------------------------------
    def closure(self, seeds, backward: bool = False) -> bytearray:
        """The mark of every node reachable from ``seeds`` (nodes)
        along the edges, or against them when ``backward``."""
        adjacency = self.pred if backward else self.succ
        mark = bytearray(self.size)
        reached = []
        for node in seeds:
            if not mark[node]:
                mark[node] = 1
                reached.append(node)
        for node in reached:            # visits what the loop appends
            for nxt in adjacency[node]:
                if not mark[nxt]:
                    mark[nxt] = 1
                    reached.append(nxt)
        return mark

    @cached_property
    def components(self) -> tuple[list[int], list[int]]:
        """The strongly connected components: the component of every
        node, numbered sinks first (an edge between two components runs
        from the higher number to the lower), and the nodes in that
        order, each component's nodes adjacent.

        Tarjan's algorithm with an explicit stack, so a long chain of
        nodes cannot exhaust the interpreter's recursion limit.
        """
        succ = self.succ
        visit = [0] * self.size     # visit number + 1; 0 = unvisited
        low = [0] * self.size
        comp = [-1] * self.size
        order: list[int] = []
        stack: list[int] = []
        visits = components = 0
        for root in range(self.size):
            if visit[root]:
                continue
            visits += 1
            visit[root] = low[root] = visits
            stack.append(root)
            work = [(root, iter(succ[root]))]
            while work:
                node, edges = work[-1]
                for nxt in edges:
                    if not visit[nxt]:
                        visits += 1
                        visit[nxt] = low[nxt] = visits
                        stack.append(nxt)
                        work.append((nxt, iter(succ[nxt])))
                        break
                    # visited and not yet in a component: on the stack
                    if comp[nxt] < 0 and visit[nxt] < low[node]:
                        low[node] = visit[nxt]
                else:
                    work.pop()
                    if work and low[node] < low[work[-1][0]]:
                        low[work[-1][0]] = low[node]
                    if low[node] == visit[node]:
                        while True:
                            member = stack.pop()
                            comp[member] = components
                            order.append(member)
                            if member == node:
                                break
                        components += 1
        return comp, order

    def support_bits(self, seeds: dict[int, int]
                     ) -> tuple[list[int], list[int]]:
        """The forward and support closures of many seed sets at once,
        per component of :attr:`components`.

        ``seeds`` maps a node to the bits of the seed sets it belongs
        to (bit ``k`` for set ``k``).  Returns ``(forward, support)``
        indexed by component: bit ``k`` of ``forward[c]`` is set when
        set ``k`` reaches the nodes of ``c`` along the edges, and of
        ``support[c]`` when they reach set ``k``'s forward closure.
        One sweep does every set: forward bits are pushed to
        successors sources first, then support bits to predecessors
        sinks first (a component's bits are final when its first node
        is reached).
        """
        comp, order = self.components
        succ, pred = self.succ, self.pred
        forward = [0] * self.size      # components number at most this
        for node, bits in seeds.items():
            forward[comp[node]] |= bits
        for node in reversed(order):
            bits = forward[comp[node]]
            if bits:
                for nxt in succ[node]:
                    forward[comp[nxt]] |= bits
        support = forward[:]
        for node in order:
            bits = support[comp[node]]
            if bits:
                for prev in pred[node]:
                    support[comp[prev]] |= bits
        return forward, support

    def fanin_cone(self, roots) -> tuple[set[int], set[int], int]:
        """``(gates, boundary nets, depth)`` of the combinational logic
        driving ``roots``.

        The backward walk stops at every net that is not combinational;
        those nets are the cone's boundary.  The depth is the deepest
        root's :attr:`depth`.
        """
        comb, pred, driver = self.comb, self.pred, self.driver
        stack = list(roots)
        depth = self.depth
        level = max([depth[net] for net in stack], default=0)
        gates: set[int] = set()
        boundary: set[int] = set()
        while stack:
            net = stack.pop()
            if comb[net]:
                gi = driver[net]
                if gi not in gates:
                    gates.add(gi)
                    stack.extend(pred[net])
            else:
                boundary.add(net)
        return gates, boundary, level

    def distances(self, seeds) -> dict[int, int]:
        """Fewest sequential crossings from any of ``seeds`` to every
        node they reach (0-1 BFS: an edge into a flop ``q`` or a memory
        node weighs 1, every other edge 0)."""
        succ, crossing = self.succ, self._crossing
        dist = dict.fromkeys(seeds, 0)
        queue = deque(dist)
        while queue:
            node = queue.popleft()
            d = dist[node]
            for nxt in succ[node]:
                if crossing[nxt]:
                    old = dist.get(nxt)
                    if old is None or d + 1 < old:
                        dist[nxt] = d + 1
                        queue.append(nxt)
                else:
                    old = dist.get(nxt)
                    if old is None or d < old:
                        dist[nxt] = d
                        queue.appendleft(nxt)
        return dist
