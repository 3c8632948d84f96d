"""Gate-level netlist intermediate representation.

This is the post-synthesis view the paper's extraction tool works on: a
flat network of 2-input gates, D flip-flops and memory macros, organized
in hierarchical *scopes* (instance paths) so that sub-block sensible zones
can be recovered.  The IR is deliberately simple — every net has exactly
one driver, gates are primitive boolean functions — which keeps the
levelized simulator and the cone analysis honest and fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

# Gate opcodes.  Kept as small ints so the simulator can dispatch quickly.
OP_CONST0 = 0
OP_CONST1 = 1
OP_BUF = 2
OP_NOT = 3
OP_AND = 4
OP_OR = 5
OP_XOR = 6
OP_NAND = 7
OP_NOR = 8
OP_XNOR = 9
OP_MUX = 10  # inputs (sel, a, b): out = a if sel else b

OP_NAMES = {
    OP_CONST0: "const0",
    OP_CONST1: "const1",
    OP_BUF: "buf",
    OP_NOT: "not",
    OP_AND: "and",
    OP_OR: "or",
    OP_XOR: "xor",
    OP_NAND: "nand",
    OP_NOR: "nor",
    OP_XNOR: "xnor",
    OP_MUX: "mux",
}
OP_BY_NAME = {name: op for op, name in OP_NAMES.items()}

OP_ARITY = {
    OP_CONST0: 0,
    OP_CONST1: 0,
    OP_BUF: 1,
    OP_NOT: 1,
    OP_AND: 2,
    OP_OR: 2,
    OP_XOR: 2,
    OP_NAND: 2,
    OP_NOR: 2,
    OP_XNOR: 2,
    OP_MUX: 3,
}


class NetlistError(Exception):
    """Raised for malformed netlists (multiple drivers, comb loops, ...)."""


@dataclass
class Gate:
    """A primitive combinational gate."""

    op: int
    inputs: tuple[int, ...]
    out: int
    path: str = ""

    @property
    def op_name(self) -> str:
        return OP_NAMES[self.op]


@dataclass
class Flop:
    """A D flip-flop with optional synchronous enable and reset.

    Update rule on the (implicit, global) rising clock edge::

        q' = init            if rst net is 1
        q' = d               elif en is None or en net is 1
        q' = q               otherwise
    """

    name: str
    d: int
    q: int
    path: str = ""
    en: int | None = None
    rst: int | None = None
    init: int = 0


@dataclass
class MemoryBlock:
    """A synchronous-read, synchronous-write single-port memory macro.

    On each rising clock edge: if ``we`` is 1 the word addressed by
    ``addr`` is overwritten with ``wdata``; the read data registered on
    ``rdata`` is the (pre-write) content of the addressed word.
    """

    name: str
    depth: int
    width: int
    addr: tuple[int, ...]
    wdata: tuple[int, ...]
    we: int
    rdata: tuple[int, ...]
    path: str = ""


@dataclass
class Circuit:
    """A flat gate-level circuit with named hierarchy scopes."""

    name: str
    net_names: list[str] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)
    flops: list[Flop] = field(default_factory=list)
    memories: list[MemoryBlock] = field(default_factory=list)
    inputs: dict[str, list[int]] = field(default_factory=dict)
    outputs: dict[str, list[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def new_net(self, name: str) -> int:
        net = len(self.net_names)
        self.net_names.append(name)
        return net

    def add_gate(self, op: int, inputs: Iterable[int], out: int,
                 path: str = "") -> Gate:
        inputs = tuple(inputs)
        if len(inputs) != OP_ARITY[op]:
            raise NetlistError(
                f"gate {OP_NAMES[op]} expects {OP_ARITY[op]} inputs, "
                f"got {len(inputs)}")
        gate = Gate(op, inputs, out, path)
        self.gates.append(gate)
        return gate

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    def net_name(self, net: int) -> str:
        return self.net_names[net]

    def find_net(self, name: str) -> int:
        try:
            return self.net_names.index(name)
        except ValueError:
            raise NetlistError(f"no net named {name!r}") from None

    def input_nets(self) -> list[int]:
        return [n for nets in self.inputs.values() for n in nets]

    def output_nets(self) -> list[int]:
        return [n for nets in self.outputs.values() for n in nets]

    def gate_count(self) -> int:
        """Number of logic gates, excluding constants and buffers."""
        return sum(1 for g in self.gates
                   if g.op not in (OP_CONST0, OP_CONST1, OP_BUF))

    def flop_count(self) -> int:
        return len(self.flops)

    def memory_bits(self) -> int:
        return sum(m.depth * m.width for m in self.memories)

    def scopes(self) -> list[str]:
        """All distinct non-empty instance paths, sorted."""
        paths: set[str] = set()
        for g in self.gates:
            if g.path:
                paths.add(g.path)
        for f in self.flops:
            if f.path:
                paths.add(f.path)
        for m in self.memories:
            if m.path:
                paths.add(m.path)
        return sorted(paths)

    # ------------------------------------------------------------------
    # structural maps
    # ------------------------------------------------------------------
    def driver_map(self) -> dict[int, tuple]:
        """Map net -> driver descriptor.

        Descriptors are ``('gate', gate_index)``, ``('flop', flop_index)``,
        ``('mem', mem_index, bit)`` or ``('input', port_name, bit)``.
        Raises :class:`NetlistError` on nets with several drivers.
        """
        drivers: dict[int, tuple] = {}

        def claim(net: int, desc: tuple) -> None:
            if net in drivers:
                raise NetlistError(
                    f"net {self.net_names[net]!r} has multiple drivers: "
                    f"{drivers[net]} and {desc}")
            drivers[net] = desc

        for name, nets in self.inputs.items():
            for bit, net in enumerate(nets):
                claim(net, ("input", name, bit))
        for i, gate in enumerate(self.gates):
            claim(gate.out, ("gate", i))
        for i, flop in enumerate(self.flops):
            claim(flop.q, ("flop", i))
        for i, mem in enumerate(self.memories):
            for bit, net in enumerate(mem.rdata):
                claim(net, ("mem", i, bit))
        return drivers

    def levelize(self) -> list[int]:
        """Topologically order gate indices for single-pass evaluation.

        Sources are primary inputs, flop ``q`` outputs, memory
        ``rdata``, nets nobody drives and constant gates.  Raises
        :class:`NetlistError` if the combinational logic contains a
        cycle.
        """
        ready = bytearray(b"\x01") * self.num_nets
        for gate in self.gates:
            ready[gate.out] = 0
        for net in self.input_nets():
            ready[net] = 1
        for flop in self.flops:
            ready[flop.q] = 1
        for mem in self.memories:
            for net in mem.rdata:
                ready[net] = 1

        remaining: dict[int, int] = {}
        waiters: dict[int, list[int]] = {}
        order: list[int] = []
        queue: list[int] = []

        for i, gate in enumerate(self.gates):
            missing = sum(1 for n in gate.inputs if not ready[n])
            if missing == 0:
                queue.append(i)
            else:
                remaining[i] = missing
                for n in gate.inputs:
                    if not ready[n]:
                        waiters.setdefault(n, []).append(i)

        while queue:
            i = queue.pop()
            order.append(i)
            out = self.gates[i].out
            if ready[out]:
                continue
            ready[out] = 1
            for j in waiters.get(out, ()):  # wake consumers
                remaining[j] -= 1
                if remaining[j] == 0:
                    queue.append(j)

        if len(order) != len(self.gates):
            stuck = [i for i, left in remaining.items() if left > 0]
            names = [self.net_names[self.gates[i].out] for i in stuck[:5]]
            raise NetlistError(
                f"combinational cycle involving nets {names} "
                f"({len(stuck)} gates unplaced)")
        return order

    def validate(self) -> None:
        """Check net ranges, the single-driver rule, that every gate
        input is driven, and levelizability."""
        nnets = self.num_nets
        for gate in self.gates:
            for net in (*gate.inputs, gate.out):
                if not 0 <= net < nnets:
                    raise NetlistError(f"gate references unknown net {net}")
        for flop in self.flops:
            nets = [flop.d, flop.q]
            if flop.en is not None:
                nets.append(flop.en)
            if flop.rst is not None:
                nets.append(flop.rst)
            for net in nets:
                if not 0 <= net < nnets:
                    raise NetlistError(
                        f"flop {flop.name!r} references unknown net {net}")
        drivers = self.driver_map()
        for gate in self.gates:
            for net in gate.inputs:
                if net not in drivers:
                    raise NetlistError(
                        f"gate {self.net_names[gate.out]!r} reads net "
                        f"{self.net_names[net]!r}, which nothing drives")
        self.levelize()

    def stats(self) -> dict[str, int]:
        """Headline size statistics used by reports and the FMEA."""
        return {
            "nets": self.num_nets,
            "gates": self.gate_count(),
            "flops": self.flop_count(),
            "memories": len(self.memories),
            "memory_bits": self.memory_bits(),
            "inputs": len(self.input_nets()),
            "outputs": len(self.output_nets()),
        }

    # ------------------------------------------------------------------
    # canonical serialization (content addressing)
    # ------------------------------------------------------------------
    def canonical_dict(self) -> dict:
        """A deterministic, name-based view of the circuit's behaviour.

        Net *indices* are an artifact of construction order, so every
        reference is resolved to its net name and the element lists are
        sorted by a unique key (driven net for gates, element name for
        flops and memories).  Instance paths are cosmetic — they do not
        change simulation — and are therefore excluded: two circuits
        with the same canonical dict are behaviourally identical, and
        renaming a scope does not invalidate cached campaign results.
        """
        name_of = self.net_names

        def names(nets) -> list[str]:
            return [name_of[n] for n in nets]

        return {
            "name": self.name,
            "gates": sorted(
                (name_of[g.out], OP_NAMES[g.op], names(g.inputs))
                for g in self.gates),
            "flops": sorted(
                (f.name, name_of[f.d], name_of[f.q],
                 None if f.en is None else name_of[f.en],
                 None if f.rst is None else name_of[f.rst],
                 f.init)
                for f in self.flops),
            "memories": sorted(
                (m.name, m.depth, m.width, names(m.addr),
                 names(m.wdata), name_of[m.we], names(m.rdata))
                for m in self.memories),
            "inputs": {name: names(nets)
                       for name, nets in sorted(self.inputs.items())},
            "outputs": {name: names(nets)
                        for name, nets in sorted(self.outputs.items())},
        }

    def canonical_bytes(self) -> bytes:
        """UTF-8 JSON of :meth:`canonical_dict`, stable across runs."""
        import json
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":")).encode()

    def structural_hash(self) -> str:
        """SHA-256 content address of the canonical serialization."""
        import hashlib
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def iter_flops_by_register(self) -> Iterator[tuple[str, list[Flop]]]:
        """Group flops into registers by their base name.

        ``decoder/pipe[3]`` and ``decoder/pipe[0]`` belong to register
        ``decoder/pipe``.  Yields ``(register_name, flops)`` sorted by
        name, flops sorted by bit index.
        """
        groups: dict[str, list[tuple[int, Flop]]] = {}
        for flop in self.flops:
            base, bit = split_bit_suffix(flop.name)
            groups.setdefault(base, []).append((bit, flop))
        for base in sorted(groups):
            members = sorted(groups[base], key=lambda pair: pair[0])
            yield base, [flop for _, flop in members]


def split_bit_suffix(name: str) -> tuple[str, int]:
    """Split ``"foo[7]"`` into ``("foo", 7)``; plain names get bit 0."""
    if name.endswith("]"):
        open_idx = name.rfind("[")
        if open_idx >= 0:
            digits = name[open_idx + 1:-1]
            if digits.isdigit():
                return name[:open_idx], int(digits)
    return name, 0
