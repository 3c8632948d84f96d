"""Compiled bit-parallel simulation kernel (numpy ``uint64`` lanes).

The interpreted simulator (the test oracle,
``tests/simulator_oracle.py``) walks the gate list in Python, one
big-int per net.  This module compiles a
:class:`~repro.hdl.netlist.Circuit` once into a straight-line program of
vectorized numpy bitwise operations and evaluates *all* machines of a
campaign pass in packed 64-bit words:

* :func:`compile_circuit` — levelize the netlist (ASAP levels), renumber
  the nets so that the outputs of every ``(level, opcode)`` group are a
  contiguous row range, and precompute one fused gather index per level.
  Combinational loops are rejected with :class:`CompileError` carrying
  the stable diagnostic code ``E120`` instead of a raw traceback.
* :func:`decompile` — reconstruct an equivalent :class:`Circuit` from a
  compiled program.  The round-trip preserves ``structural_hash``.
* :class:`CompiledSimulator` — a drop-in replacement for the interpreted
  simulator (same public API, every fault overlay, bit-identical
  results).  Net values live in a ``(rows, W)`` ``uint64`` array where
  ``W = ceil(machines / 64)``; machine *k* is bit ``k % 64`` of word
  ``k // 64`` and machine 0 stays the golden reference, exactly like the
  interpreted big-int layout.

This is the only simulator of the production code: it runs the
injection passes, the operational-profile replay at one lane, SET
derating, VCD traces and the subsystems' ``simulator()`` helpers.
Bridging faults re-run the program once per cycle with the bridged
victims forced, and memory coupling faults are flipped after the
cycle's writes, both reproducing the interpreted simulator bit for bit
(that simulator stays as the differential oracle of both).  A netlist
the renumbering cannot represent (a multi-driven net) is rejected with
a :class:`~repro.hdl.netlist.NetlistError`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..diagnostics.core import Diagnostic, DiagnosticError
from .netlist import (
    Circuit,
    NetlistError,
    OP_AND,
    OP_ARITY,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
)
from .simulator import (
    BRIDGE_AND,
    BRIDGE_DOMINANT,
    BRIDGE_OR,
    SimulatorBase,
)

_U64 = np.uint64
_WORD_BITS = 64

#: diagnostic code raised for combinational loops at compile time
LOOP_CODE = "E120"


class CompileError(DiagnosticError, NetlistError):
    """The circuit cannot be compiled (coded diagnostic, e.g. E120)."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic)
        self.code = diagnostic.code


# ----------------------------------------------------------------------
# compiled program representation
# ----------------------------------------------------------------------
class _Group:
    """One ``(opcode, arity)`` run of gates inside a level."""

    __slots__ = ("op", "arity", "arg_lo", "count", "out_lo", "out_hi")

    def __init__(self, op, arity, arg_lo, count, out_lo):
        self.op = op
        self.arity = arity
        self.arg_lo = arg_lo
        self.count = count
        self.out_lo = out_lo
        self.out_hi = out_lo + count


class _Level:
    """One topological level: a fused gather plus its op groups.

    ``gather`` lists the value rows every group of the level reads, one
    block per group from its ``arg_lo``, laid out operand-major: the
    ``count`` first inputs, then the second inputs, then the third.
    """

    __slots__ = ("gather", "groups", "nargs")

    def __init__(self, gather, groups):
        self.gather = gather
        self.groups = groups
        self.nargs = len(gather)


class CompiledCircuit:
    """A levelized, renumbered straight-line program for one circuit.

    Immutable and shareable: any number of :class:`CompiledSimulator`
    instances (with different machine counts) can run the same program.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        n = circuit.num_nets
        self.num_nets = n
        # two sentinel rows give flops without en/rst a constant input
        self.zero_row = n
        self.one_row = n + 1
        self.num_rows = n + 2

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

        gate_level = self._levelize(circuit, drivers)
        self.depth = (max(gate_level) + 1) if gate_level else 0

        # renumber: sources (inputs, flop q, rdata, consts, undriven
        # nets) first in original order, then gate outputs grouped by
        # (level, opcode) so every group's outputs are one contiguous
        # row range and per-group scatter is a plain slice store.
        perm = np.full(n, -1, dtype=np.intp)
        next_row = 0
        for net in range(n):
            kind = drivers.get(net, ("undriven", -1))[0]
            if kind != "gate":
                perm[net] = next_row
                next_row += 1
        self.num_source_rows = next_row

        by_level_op: dict[tuple[int, int], list[int]] = {}
        for gi, gate in enumerate(circuit.gates):
            if gate.op in (OP_CONST0, OP_CONST1):
                continue
            by_level_op.setdefault((gate_level[gi], gate.op),
                                   []).append(gi)

        levels: list[_Level] = []
        for lvl in range(self.depth):
            gather: list[int] = []
            groups: list[_Group] = []
            for op in sorted(op for (lv, op) in by_level_op
                             if lv == lvl):
                gis = by_level_op[(lvl, op)]
                arity = OP_ARITY[op]
                group = _Group(op, arity, len(gather), len(gis),
                               next_row)
                for gi in gis:
                    perm[circuit.gates[gi].out] = next_row
                    next_row += 1
                # operand-major: every gate's first input, then every
                # second, then every third, so each operand of the
                # group is one contiguous slice of the gather buffer
                for j in range(arity):
                    gather.extend(circuit.gates[gi].inputs[j]
                                  for gi in gis)
                groups.append(group)
            levels.append(_Level(gather, groups))
        assert next_row == n

        # gather indices reference *rows*, so translate through perm
        # once the whole permutation is known
        for level in levels:
            level.gather = perm[np.asarray(level.gather,
                                           dtype=np.intp)] \
                if level.gather else np.empty(0, dtype=np.intp)
        self.levels = levels
        self.perm = perm
        self.max_level_args = max((lv.nargs for lv in levels),
                                  default=0)
        self.max_group_count = max(
            (g.count for lv in levels for g in lv.groups), default=0)

        # overlay bucket of a row: 0 = applied before level 0 (sources
        # and const outputs), k+1 = applied right after level k
        bucket = np.zeros(n, dtype=np.intp)
        for gi, gate in enumerate(circuit.gates):
            if gate.op not in (OP_CONST0, OP_CONST1):
                bucket[gate.out] = gate_level[gi] + 1
        self.bucket_of = bucket            # indexed by *original* net id

        self.const0_rows = perm[np.array(
            [g.out for g in circuit.gates if g.op == OP_CONST0],
            dtype=np.intp)]
        self.const1_rows = perm[np.array(
            [g.out for g in circuit.gates if g.op == OP_CONST1],
            dtype=np.intp)]

        flops = circuit.flops
        self.flop_q_rows = perm[np.array([f.q for f in flops],
                                         dtype=np.intp)]
        self.flop_d_rows = perm[np.array([f.d for f in flops],
                                         dtype=np.intp)]
        self.flop_en_rows = np.array(
            [self.one_row if f.en is None else perm[f.en]
             for f in flops], dtype=np.intp)
        self.flop_rst_rows = np.array(
            [self.zero_row if f.rst is None else perm[f.rst]
             for f in flops], dtype=np.intp)
        self.flop_init = np.array([bool(f.init) for f in flops],
                                  dtype=bool)

        self.mem_addr_rows = [perm[np.array(m.addr, dtype=np.intp)]
                              for m in circuit.memories]
        self.mem_wdata_rows = [perm[np.array(m.wdata, dtype=np.intp)]
                               for m in circuit.memories]
        self.mem_we_rows = [int(perm[m.we]) for m in circuit.memories]
        self.mem_rdata_rows = [perm[np.array(m.rdata, dtype=np.intp)]
                               for m in circuit.memories]

    @staticmethod
    def _levelize(circuit: Circuit, drivers) -> list[int]:
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


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile a circuit into a straight-line numpy program.

    Raises :class:`CompileError` (code ``E120``) on combinational
    loops and :class:`~repro.hdl.netlist.NetlistError` on structures
    the compiled renumbering cannot represent (multi-driven nets).
    """
    return CompiledCircuit(circuit)


def decompile(compiled: CompiledCircuit) -> Circuit:
    """Reconstruct a behaviourally identical :class:`Circuit`.

    Gate order follows the compiled schedule, not the original
    construction order; the canonical serialization sorts gates, so
    ``decompile(compile_circuit(c)).structural_hash()`` equals
    ``c.structural_hash()``.
    """
    src = compiled.circuit
    out = Circuit(name=src.name,
                  net_names=list(src.net_names),
                  inputs={k: list(v) for k, v in src.inputs.items()},
                  outputs={k: list(v) for k, v in src.outputs.items()})
    by_path = {g.out: g.path for g in src.gates}
    inv = np.empty(compiled.num_nets, dtype=np.intp)
    inv[compiled.perm] = np.arange(compiled.num_nets, dtype=np.intp)

    for gate in src.gates:               # consts stay source-level
        if gate.op in (OP_CONST0, OP_CONST1):
            out.add_gate(gate.op, (), gate.out, path=gate.path)
    for level in compiled.levels:
        gather = level.gather
        for grp in level.groups:
            base = grp.arg_lo
            for k in range(grp.count):
                o = int(inv[grp.out_lo + k])
                ins = tuple(
                    int(inv[gather[base + j * grp.count + k]])
                    for j in range(grp.arity))
                out.add_gate(grp.op, ins, o, path=by_path.get(o, ""))
    for f in src.flops:
        out.flops.append(type(f)(name=f.name, d=f.d, q=f.q,
                                 path=f.path, en=f.en, rst=f.rst,
                                 init=f.init))
    for m in src.memories:
        out.memories.append(type(m)(name=m.name, depth=m.depth,
                                    width=m.width, addr=m.addr,
                                    wdata=m.wdata, we=m.we,
                                    rdata=m.rdata, path=m.path))
    return out


# ----------------------------------------------------------------------
# the simulator
# ----------------------------------------------------------------------
class _MemGroup:
    """Memories of one (depth, width, address bits) shape, stacked.

    One ``(G, depth, W, width)`` store holds the G members (a banked
    design has one per bank), so the memory step runs once per group
    and cycle instead of once per memory.  The divergent-lane
    selection of the last cycle is kept and reused while the
    address-mismatch words repeat.
    """

    __slots__ = ("members", "depth", "store", "rdata", "addr_rows",
                 "we_rows", "wdata_rows", "rdata_rows", "pow2", "gidx",
                 "sel_mism", "sel")

    def __init__(self, cc: CompiledCircuit, members: list[int],
                 depth: int, width: int, words: int):
        G = len(members)
        self.members = members
        self.depth = depth
        # transposed store layout (depth, W, width) per member: one
        # fancy-index per divergent-address access touches all bits of
        # a word
        self.store = np.zeros((G, depth, words, width), dtype=_U64)
        self.rdata = np.zeros((G, words, width), dtype=_U64)
        self.addr_rows = np.stack([cc.mem_addr_rows[mi]
                                   for mi in members])      # (G, A)
        self.we_rows = np.asarray([cc.mem_we_rows[mi]
                                   for mi in members], dtype=np.intp)
        self.wdata_rows = np.stack([cc.mem_wdata_rows[mi]
                                    for mi in members])     # (G, width)
        self.rdata_rows = np.concatenate([cc.mem_rdata_rows[mi]
                                          for mi in members])
        # address-bit weights: golden/per-lane addresses assemble as a
        # dot product instead of a Python loop over address bits
        self.pow2 = np.left_shift(
            np.int64(1), np.arange(self.addr_rows.shape[1],
                                   dtype=np.int64))
        self.gidx = np.arange(G, dtype=np.intp)
        self.sel_mism: np.ndarray | None = None
        self.sel: tuple | None = None


class _BridgePlan(NamedTuple):
    """The bridge re-sweep of one fault set, rebuilt when it changes.

    Bridges are sorted stably by victim row; ``eff`` is each bridge's
    mask minus the lanes a later bridge on the same victim claims, so
    one victim's bridged values OR-combine with a segmented
    ``reduceat`` over ``starts``.  A bridge's value is
    ``(a & (v | not_and)) | (v & or_sel)``: dominant -> a, AND -> a & v,
    OR -> a | v.  ``plan`` is the forced-net overlay plan with every
    victim's bridged lanes added to its clear mask; each ``updates``
    entry ``(setm, positions, victim index, base)`` writes the cycle's
    bridged values into one bucket's set masks.
    """

    agg: np.ndarray
    vic: np.ndarray
    not_and: np.ndarray
    or_sel: np.ndarray
    eff: np.ndarray
    starts: np.ndarray
    plan: list
    updates: list


class _Couplings:
    """One memory group's coupling faults as stacked arrays.

    Sorted stably by aggressor bit, the order the interpreted write
    loop visits them in.  ``persist`` marks the couplings whose flip
    survives the cycle's write (a victim in another word, or at or
    below the aggressor bit); the others flip a higher bit of the word
    being written, which the write then overwrites, but the flipped
    value is what that bit's own transition is measured against:
    ``feeds`` lists ``(coupling, couplings whose aggressor is its
    victim cell)``.
    """

    __slots__ = ("member", "aw", "ab", "vw", "vb", "mask", "persist",
                 "feeds")

    def __init__(self, entries: list[tuple]):
        entries.sort(key=lambda e: e[2])
        cols = list(zip(*entries))
        self.member, self.aw, self.ab, self.vw, self.vb = (
            np.asarray(c, dtype=np.intp) for c in cols[:5])
        self.mask = np.stack(cols[5])
        over = (self.vw == self.aw) & (self.vb > self.ab)
        self.persist = np.flatnonzero(~over)
        self.feeds = []
        for k in np.flatnonzero(over):
            fed = np.flatnonzero((self.member == self.member[k])
                                 & (self.aw == self.aw[k])
                                 & (self.ab == self.vb[k]))
            if len(fed):
                self.feeds.append((k, fed))


class CompiledSimulator(SimulatorBase):
    """Drop-in bit-parallel simulator running a compiled program.

    API-compatible with the interpreted test oracle; fault overlays
    accept the same arguments and Python-int machine masks.  With
    ``collect_toggles``, a net counts as toggled once any machine has
    seen it at 0 and at 1 (the oracle's ``toggle_any_machine`` mode).
    """

    def __init__(self, circuit, machines: int = 1,
                 collect_toggles: bool = False,
                 cycle_budget: int | None = None):
        if machines < 1:
            raise ValueError("need at least one machine")
        cc = circuit if isinstance(circuit, CompiledCircuit) \
            else compile_circuit(circuit)
        self.compiled = cc
        self.circuit = cc.circuit
        self.machines = machines
        self.full_mask = (1 << machines) - 1
        self.cycle = 0
        self.cycle_budget = cycle_budget

        W = (machines + _WORD_BITS - 1) // _WORD_BITS
        self.words = W
        self._full = self._pack(self.full_mask)
        self._notone = self._full.copy()
        self._notone[0] &= _U64(~np.uint64(1))
        #: a row's golden words by its lane-0 bit (row 0: none, row 1:
        #: every machine), gathered per cycle instead of broadcast
        self._golden_words = np.stack([np.zeros(W, dtype=_U64),
                                       self._full])

        self._vals = np.zeros((cc.num_rows, W), dtype=_U64)
        self._vals[cc.one_row] = self._full
        if len(cc.const1_rows):
            self._vals[cc.const1_rows] = self._full
        self._gbuf = np.empty((cc.max_level_args, W), dtype=_U64)
        self._mux_tmp = np.empty((cc.max_group_count, W), dtype=_U64)
        # the all-machines mask tiled to one row per gate: inverting
        # ops XOR against a same-shape slice of it, never a broadcast
        self._full_block = np.tile(self._full, (cc.max_group_count, 1))
        self._program = self._build_program()

        F = len(self.circuit.flops)
        self._flop_state = np.where(cc.flop_init[:, None],
                                    self._full, _U64(0)) \
            if F else np.zeros((0, W), dtype=_U64)
        self._flop_init_words = self._flop_state.copy()

        # same-shape memories share one stacked store and one memory
        # step; _mem_store[mi] is memory mi's (depth, W, width) view
        shapes: dict[tuple[int, int, int], list[int]] = {}
        for mi, m in enumerate(self.circuit.memories):
            shapes.setdefault((m.depth, m.width,
                               len(cc.mem_addr_rows[mi])), []).append(mi)
        self._mem_groups = [_MemGroup(cc, members, depth, width, W)
                            for (depth, width, _), members
                            in shapes.items()]
        slots = {mi: (gi, j) for gi, group in enumerate(self._mem_groups)
                 for j, mi in enumerate(group.members)}
        #: memory index -> (group index, position in the group)
        self._mem_slot = [slots[mi] for mi in range(len(slots))]
        self._mem_store = [self._mem_groups[gi].store[j]
                           for gi, j in self._mem_slot]

        self._input_rows = {
            name: cc.perm[np.asarray(nets, dtype=np.intp)]
            for name, nets in self.circuit.inputs.items()}
        # last-driven value per port: rows of an unchanged port are
        # only rewritten by eval-start overlays, which are idempotent,
        # so re-driving the same value can be skipped.  Glitches on
        # primary inputs XOR the rows in place and void that reasoning.
        self._input_last: dict[str, int] = {}
        self._input_nets = {net for nets in self.circuit.inputs.values()
                            for net in nets}
        self._input_cache_ok = True
        # double-buffered flop state + scratch for zero-alloc commits
        self._state_alt = np.zeros_like(self._flop_state)
        self._fbuf_a = np.empty_like(self._flop_state)
        self._fbuf_b = np.empty_like(self._flop_state)
        self._flop_index = {f.name: i
                            for i, f in enumerate(self.circuit.flops)}
        self._mem_index = {m.name: i for i, m
                           in enumerate(self.circuit.memories)}
        self._net_index: dict[str, int] | None = None

        # per-machine word/bit coordinates for the divergent-address
        # memory path
        lanes = np.arange(machines, dtype=np.intp)
        self._lane_word = lanes >> 6
        self._lane_shift = (lanes & 63).astype(_U64)

        # fault state: original net id -> (clear, set) word vectors
        self._forced: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._overlay_plan: list | None = None
        self._flop_flips: dict[int, list] = {}
        self._net_glitches: dict[int, dict[int, np.ndarray]] = {}
        self._mem_flips: dict[int, list] = {}
        #: (aggressor net, victim net, mode, mask words) in arming order
        self._bridges: list[tuple] = []
        self._bridge_plan: _BridgePlan | None = None
        self._mem_stuck: dict[int, dict[tuple[int, int], tuple]] = {}
        # per-group stacked (members, words, bits, ~clear, set) arrays,
        # built lazily from _mem_stuck and applied as one gather/scatter
        self._mem_stuck_cache: dict[int, tuple | None] = {}
        self._mem_coupling: dict[int, list[tuple]] = {}
        self._coupling_cache: dict[int, _Couplings | None] = {}

        self.collect_toggles = collect_toggles
        n = cc.num_nets
        self._t_seen0 = np.zeros(n, dtype=bool)
        self._t_seen1 = np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    # packing helpers
    # ------------------------------------------------------------------
    def _pack(self, mask: int) -> np.ndarray:
        """Python-int machine mask -> little-endian uint64 words."""
        return np.frombuffer(
            mask.to_bytes(self.words * 8, "little"),
            dtype="<u8").astype(_U64)

    @staticmethod
    def _unpack(words: np.ndarray) -> int:
        return int.from_bytes(np.ascontiguousarray(
            words.astype("<u8")).tobytes(), "little")

    # ------------------------------------------------------------------
    # name resolution (shared with the interpreted simulator)
    # ------------------------------------------------------------------
    def _row(self, net) -> int:
        return int(self.compiled.perm[self._resolve_net(net)])

    # ------------------------------------------------------------------
    # fault programming
    # ------------------------------------------------------------------
    def stick_net(self, net, value: int, machines=None) -> None:
        net = self._resolve_net(net)
        mask = self._pack(self._mask(machines))
        clear, setm = self._forced.get(
            net, (np.zeros(self.words, dtype=_U64),
                  np.zeros(self.words, dtype=_U64)))
        clear = clear | mask
        setm = (setm & ~mask) | (mask if value else _U64(0))
        self._forced[net] = (clear, setm)
        self._overlay_plan = None
        self._bridge_plan = None

    def schedule_flop_flip(self, flop, cycle: int, machines=None) \
            -> None:
        idx = self._resolve_flop(flop)
        self._flop_flips.setdefault(cycle, []).append(
            (idx, self._pack(self._mask(machines))))

    def schedule_net_glitch(self, net, cycle: int, machines=None) \
            -> None:
        net = self._resolve_net(net)
        if net in self._input_nets:
            self._input_cache_ok = False
            self._input_last.clear()
        mask = self._pack(self._mask(machines))
        table = self._net_glitches.setdefault(cycle, {})
        prev = table.get(net)
        table[net] = mask if prev is None else (prev | mask)

    def add_bridge(self, aggressor, victim, mode: str = BRIDGE_DOMINANT,
                   machines=None) -> None:
        """Bridging fault: the victim net is corrupted by the aggressor."""
        victim = self._resolve_net(victim)
        if victim in self._input_nets:
            # the bridged value overwrites the input row in place
            self._input_cache_ok = False
            self._input_last.clear()
        self._bridges.append((self._resolve_net(aggressor), victim, mode,
                              self._pack(self._mask(machines))))
        self._bridge_plan = None

    def set_mem_cell_stuck(self, mem, word: int, bit: int, value: int,
                           machines=None) -> None:
        mem = self._resolve_mem(mem)
        mask = self._pack(self._mask(machines))
        table = self._mem_stuck.setdefault(mem, {})
        clear, setm = table.get(
            (word, bit), (np.zeros(self.words, dtype=_U64),
                          np.zeros(self.words, dtype=_U64)))
        clear = clear | mask
        setm = (setm & ~mask) | (mask if value else _U64(0))
        table[(word, bit)] = (clear, setm)
        self._mem_stuck_cache.pop(self._mem_slot[mem][0], None)

    def schedule_mem_flip(self, mem, word: int, bit: int, cycle: int,
                          machines=None) -> None:
        mem = self._resolve_mem(mem)
        self._mem_flips.setdefault(cycle, []).append(
            (mem, word, bit, self._pack(self._mask(machines))))

    def add_mem_coupling(self, mem, aggressor: tuple[int, int],
                         victim: tuple[int, int], machines=None) -> None:
        """Coupling fault: a write transition on aggressor flips victim."""
        mem = self._resolve_mem(mem)
        self._mem_coupling.setdefault(mem, []).append(
            (tuple(aggressor), tuple(victim),
             self._pack(self._mask(machines))))
        self._coupling_cache.pop(self._mem_slot[mem][0], None)

    def clear_faults(self) -> None:
        self._forced.clear()
        self._flop_flips.clear()
        self._net_glitches.clear()
        self._mem_flips.clear()
        self._bridges.clear()
        self._mem_stuck.clear()
        self._mem_stuck_cache.clear()
        self._mem_coupling.clear()
        self._coupling_cache.clear()
        self._overlay_plan = None
        self._bridge_plan = None

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        try:
            rows = self._input_rows[name]
        except KeyError:
            raise NetlistError(f"no input named {name!r}") from None
        if self._input_cache_ok:
            if self._input_last.get(name) == value:
                return
            self._input_last[name] = value
        bits = np.asarray(
            [(value >> b) & 1 for b in range(len(rows))], dtype=bool)
        self._vals[rows] = np.where(bits[:, None], self._full,
                                    _U64(0))

    def set_input_lane(self, name: str, machine: int, value: int) \
            -> None:
        self._input_last.pop(name, None)
        nets = self.circuit.inputs[name]
        w = machine >> 6
        lane = _U64(1) << _U64(machine & 63)
        vals = self._vals
        perm = self.compiled.perm
        for bit, net in enumerate(nets):
            row = perm[net]
            if (value >> bit) & 1:
                vals[row, w] |= lane
            else:
                vals[row, w] &= ~lane

    def peek(self, net) -> int:
        return self._unpack(self._vals[self._row(net)])

    def peek_bit(self, net, machine: int = 0) -> int:
        v = self._vals[self._row(net), machine >> 6]
        return int(v >> _U64(machine & 63)) & 1

    def value_of(self, nets, machine: int = 0) -> int:
        out = 0
        vals = self._vals
        perm = self.compiled.perm
        w = machine >> 6
        s = _U64(machine & 63)
        for bit, net in enumerate(nets):
            out |= (int(vals[perm[net], w] >> s) & 1) << bit
        return out

    def set_flop(self, flop, value: int, machines=None) -> None:
        idx = self._resolve_flop(flop)
        mask = self._pack(self._mask(machines))
        state = self._flop_state[idx]
        self._flop_state[idx] = (state & ~mask) | \
            (mask if value else _U64(0))

    def flop_value(self, flop, machine: int = 0) -> int:
        v = self._flop_state[self._resolve_flop(flop), machine >> 6]
        return int(v >> _U64(machine & 63)) & 1

    def load_mem(self, mem, words) -> None:
        mi = self._resolve_mem(mem)
        block = self.circuit.memories[mi]
        store = self._mem_store[mi]
        for w, word in enumerate(words):
            if w >= block.depth:
                break
            bits = np.asarray(
                [(word >> b) & 1 for b in range(block.width)],
                dtype=bool)
            store[w] = np.where(bits[None, :], self._full[:, None],
                                _U64(0))

    def read_mem_word(self, mem, word: int, machine: int = 0) -> int:
        mi = self._resolve_mem(mem)
        cells = self._mem_store[mi][word, machine >> 6]
        s = _U64(machine & 63)
        out = 0
        for b in range(cells.shape[0]):
            out |= (int(cells[b] >> s) & 1) << b
        return out

    # ------------------------------------------------------------------
    # mismatch extraction
    # ------------------------------------------------------------------
    def _diff_words(self, sub: np.ndarray) -> np.ndarray:
        """OR-reduced golden diff of a (k, W) value block -> (W,)."""
        if not sub.shape[0]:
            return np.zeros(self.words, dtype=_U64)
        golden = np.where((sub[:, 0] & _U64(1)).astype(bool)[:, None],
                          self._full, _U64(0))
        return np.bitwise_or.reduce(sub ^ golden, axis=0) \
            & self._notone

    def flop_state_mismatch(self, flops) -> int:
        idxs = np.asarray([self._resolve_flop(f) for f in flops],
                          dtype=np.intp)
        return self._unpack(self._diff_words(self._flop_state[idxs]))

    def mem_word_mismatch(self, mem, word: int) -> int:
        cells = self._mem_store[self._resolve_mem(mem)][word]
        golden = np.where((cells[0] & _U64(1)).astype(bool)[None, :],
                          self._full[:, None], _U64(0))
        diff = np.bitwise_or.reduce(cells ^ golden, axis=1) \
            & self._notone
        return self._unpack(diff)

    def mismatch_mask(self, nets) -> int:
        rows = self.compiled.perm[np.asarray(
            [self._resolve_net(n) for n in nets], dtype=np.intp)]
        return self._unpack(self._diff_words(self._vals[rows]))

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def _build_program(self) -> list[tuple]:
        """Flatten the compiled levels into reusable micro-ops.

        Every operand/destination is a *fixed view* into the gather
        buffer, the value array or the tiled all-machines block,
        created once here; the per-cycle loop is then nothing but
        ufunc calls with ``out=``.  The gather is operand-major, so a
        group's operands are contiguous ``(count, W)`` slices, and the
        inverting ops and BUF take a slice of the tiled block instead
        of a broadcast ``(W,)`` mask or a scalar: every ufunc runs on
        C-contiguous, same-shape arrays.
        """
        program = []
        for level in self.compiled.levels:
            buf = self._gbuf[:level.nargs]
            micro: list[tuple] = []
            for g in level.groups:
                lo, n, ar = g.arg_lo, g.count, g.arity
                a = buf[lo:lo + n]
                b = buf[lo + n:lo + 2 * n] if ar >= 2 else None
                c = buf[lo + 2 * n:lo + 3 * n] if ar >= 3 else None
                full = self._full_block[:n]
                dst = self._vals[g.out_lo:g.out_hi]
                op = g.op
                if op == OP_AND:
                    micro.append((np.bitwise_and, a, b, dst))
                elif op == OP_OR:
                    micro.append((np.bitwise_or, a, b, dst))
                elif op == OP_XOR:
                    micro.append((np.bitwise_xor, a, b, dst))
                elif op == OP_NOT:
                    micro.append((np.bitwise_xor, a, full, dst))
                elif op == OP_BUF:
                    micro.append((np.bitwise_and, a, full, dst))
                elif op == OP_NAND:
                    micro.append((np.bitwise_and, a, b, dst))
                    micro.append((np.bitwise_xor, dst, full, dst))
                elif op == OP_NOR:
                    micro.append((np.bitwise_or, a, b, dst))
                    micro.append((np.bitwise_xor, dst, full, dst))
                elif op == OP_XNOR:
                    micro.append((np.bitwise_xor, a, b, dst))
                    micro.append((np.bitwise_xor, dst, full, dst))
                else:  # OP_MUX: dst = (b & sel) | (c & ~sel)
                    tmp = self._mux_tmp[:n]
                    micro.append((np.bitwise_not, a, None, tmp))
                    micro.append((np.bitwise_and, tmp, c, tmp))
                    micro.append((np.bitwise_and, a, b, dst))
                    micro.append((np.bitwise_or, dst, tmp, dst))
            program.append((level.gather if level.nargs else None,
                            buf, micro))
        return program

    def _buckets(self, nets) -> dict[int, list[int]]:
        """Nets grouped by overlay bucket (0=sources, L+1 after level
        L), in iteration order."""
        bucket_of = self.compiled.bucket_of
        buckets: dict[int, list[int]] = {}
        for net in nets:
            buckets.setdefault(int(bucket_of[net]), []).append(net)
        return buckets

    def _build_overlay_plan(self, entries: dict) -> list:
        """``entries`` (net -> (clear, set) words) as a bucket-indexed
        list of ``(rows, notclear, setm, scratch)`` entries (``None``
        where the bucket is empty) so the eval loop applies each with
        four allocation-free numpy calls."""
        plan: list = [None] * (len(self.compiled.levels) + 1)
        for b, nets in self._buckets(entries).items():
            rows = self.compiled.perm[np.asarray(nets, dtype=np.intp)]
            notclear = np.stack([~entries[n][0] for n in nets])
            setm = np.stack([entries[n][1] for n in nets])
            plan[b] = (rows, notclear, setm, np.empty_like(setm))
        return plan

    def _build_bridge_plan(self) -> _BridgePlan:
        perm = self.compiled.perm
        ones = ~_U64(0)
        zeros = np.zeros(self.words, dtype=_U64)
        bridges = sorted(self._bridges, key=lambda br: br[1])
        # where bridges on one victim overlap, the later one wins (the
        # interpreted fold overrides lane by lane): trim each mask by
        # the masks of the later ones
        eff: list = []
        claimed: dict[int, np.ndarray] = {}
        for _, vic, _, mask in reversed(bridges):
            prior = claimed.get(vic, zeros)
            eff.append(mask & ~prior)
            claimed[vic] = mask | prior
        eff.reverse()
        uniq, starts = np.unique([br[1] for br in bridges],
                                 return_index=True)
        order = {int(vic): k for k, vic in enumerate(uniq)}

        entries = dict(self._forced)
        for vic, mask in claimed.items():
            clear, setm = entries.get(vic, (zeros, zeros))
            entries[vic] = (clear | mask, setm & ~mask)
        plan = self._build_overlay_plan(entries)
        updates = []
        for b, nets in self._buckets(entries).items():
            pos = [i for i, n in enumerate(nets) if n in order]
            if pos:
                setm = plan[b][2]
                updates.append((setm, np.asarray(pos, dtype=np.intp),
                                np.asarray([order[nets[i]] for i in pos],
                                           dtype=np.intp),
                                setm[pos]))
        return _BridgePlan(
            agg=perm[np.asarray([br[0] for br in bridges], dtype=np.intp)],
            vic=perm[np.asarray([br[1] for br in bridges], dtype=np.intp)],
            not_and=np.asarray([0 if br[2] == BRIDGE_AND else ones
                                for br in bridges], dtype=_U64)[:, None],
            or_sel=np.asarray([ones if br[2] == BRIDGE_OR else 0
                               for br in bridges], dtype=_U64)[:, None],
            eff=np.stack(eff), starts=starts, plan=plan, updates=updates)

    def _glitch_buckets(self) -> dict[int, tuple] | None:
        table = self._net_glitches.get(self.cycle)
        if not table:
            return None
        return {b: (self.compiled.perm[np.asarray(nets,
                                                  dtype=np.intp)],
                    np.stack([table[n] for n in nets]))
                for b, nets in self._buckets(table).items()}

    def eval_comb(self) -> None:
        cc = self.compiled
        vals = self._vals
        if len(cc.flop_q_rows):
            vals[cc.flop_q_rows] = self._flop_state
        for group in self._mem_groups:
            if len(group.rdata_rows):
                vals[group.rdata_rows] = group.rdata.transpose(
                    0, 2, 1).reshape(-1, self.words)
        # overlays may have clobbered constant rows last cycle
        if len(cc.const0_rows):
            vals[cc.const0_rows] = _U64(0)
        if len(cc.const1_rows):
            vals[cc.const1_rows] = self._full

        if self._overlay_plan is None:
            self._overlay_plan = self._build_overlay_plan(self._forced)
        glitches = self._glitch_buckets()
        if self._bridges:
            self._eval_bridged(glitches)
            return
        self._run_levels(self._overlay_plan, glitches)
        if self.collect_toggles:
            self._collect_toggles()

    def _run_levels(self, plan, glitches) -> None:
        """One sweep of the program, applying ``plan`` (the bucketed
        forced nets) and the cycle's glitches after each level.

        Gathers take ``mode="clip"``: their rows are valid by
        construction, and numpy stages an ``out=`` take through a
        temporary in its default ``"raise"`` mode."""
        vals = self._vals
        take = vals.take
        band = np.bitwise_and
        bor = np.bitwise_or
        entry = plan[0]
        if entry is not None:
            rows, nc, sm, obuf = entry
            take(rows, 0, obuf, "clip")
            band(obuf, nc, out=obuf)
            bor(obuf, sm, out=obuf)
            vals[rows] = obuf
        if glitches is not None:
            g = glitches.get(0)
            if g is not None:
                grows, gmasks = g
                vals[grows] = vals[grows] ^ gmasks
        for lvl, (gather, buf, micro) in enumerate(self._program):
            if gather is not None:
                take(gather, 0, buf, "clip")
            for fn, a, b, dst in micro:
                if b is None:
                    fn(a, out=dst)
                else:
                    fn(a, b, out=dst)
            entry = plan[lvl + 1]
            if entry is not None:
                rows, nc, sm, obuf = entry
                take(rows, 0, obuf, "clip")
                band(obuf, nc, out=obuf)
                bor(obuf, sm, out=obuf)
                vals[rows] = obuf
            if glitches is not None:
                g = glitches.get(lvl + 1)
                if g is not None:
                    grows, gmasks = g
                    vals[grows] = vals[grows] ^ gmasks

    def _eval_bridged(self, glitches) -> None:
        """The interpreted bridge semantics: a first sweep, then a
        re-sweep with every victim forced to its bridged value (read
        from the first sweep, so bridges never chain)."""
        vals = self._vals
        source_glitch = glitches.get(0) if glitches is not None else None
        raw = vals[source_glitch[0]] if source_glitch is not None \
            else None
        self._run_levels(self._overlay_plan, glitches)
        if self.collect_toggles:
            self._collect_toggles()

        if self._bridge_plan is None:
            self._bridge_plan = self._build_bridge_plan()
        bp = self._bridge_plan
        a = vals[bp.agg]
        v = vals[bp.vic]
        bridged = ((a & (v | bp.not_and)) | (v & bp.or_sel)) & bp.eff
        per_victim = np.bitwise_or.reduceat(bridged, bp.starts, axis=0)
        for setm, pos, idx, base in bp.updates:
            setm[pos] = base | per_victim[idx]
        # the re-sweep restarts from the unglitched sources, so every
        # glitch is applied exactly once per evaluation
        if raw is not None:
            vals[source_glitch[0]] = raw
        self._run_levels(bp.plan, glitches)
        if self.collect_toggles:
            self._collect_toggles()

    def _collect_toggles(self) -> None:
        nets = self._vals[:self.compiled.num_nets]
        self._t_seen1 |= nets.any(axis=1)
        self._t_seen0 |= (nets != self._full).any(axis=1)

    def clock_edge(self) -> None:
        cc = self.compiled
        vals = self._vals
        if len(cc.flop_d_rows):
            d = vals.take(cc.flop_d_rows, 0, self._fbuf_a, "clip")
            en = vals.take(cc.flop_en_rows, 0, self._fbuf_b, "clip")
            q = self._flop_state
            nxt = self._state_alt
            np.bitwise_and(d, en, out=nxt)      # d & en
            np.bitwise_not(en, out=en)
            np.bitwise_and(q, en, out=en)       # q & ~en
            np.bitwise_or(nxt, en, out=nxt)
            rst = vals.take(cc.flop_rst_rows, 0, self._fbuf_a, "clip")
            np.bitwise_and(self._flop_init_words, rst,
                           out=self._fbuf_b)    # init & rst
            np.bitwise_not(rst, out=rst)
            np.bitwise_and(nxt, rst, out=nxt)
            np.bitwise_or(nxt, self._fbuf_b, out=nxt)
            self._state_alt = q
            self._flop_state = nxt
        for gi, group in enumerate(self._mem_groups):
            self._mem_cycle(gi, group)
        self.cycle += 1

    def _begin_cycle_events(self) -> None:
        flips = self._flop_flips.get(self.cycle)
        if flips:
            for idx, mask in flips:
                self._flop_state[idx] ^= mask
        mflips = self._mem_flips.get(self.cycle)
        if mflips:
            for mi, word, bit, mask in mflips:
                self._mem_store[mi][word, :, bit] ^= mask

    # ------------------------------------------------------------------
    # memory engine
    # ------------------------------------------------------------------
    def _mem_cycle(self, gi: int, group: _MemGroup) -> None:
        """One clock edge of every memory in ``group``.

        Per member: a golden-address base read/write, plus a scatter
        patch restricted to the (usually few) lanes whose address
        diverges from machine 0's.  All reads are gathered before any
        write lands; lane isolation makes the interpreted per-machine
        loop order-independent, so this is bit-equivalent.
        """
        vals = self._vals
        store = group.store                         # (G, depth, W, width)
        one = _U64(1)
        addr_rows = vals[group.addr_rows]           # (G, A, W)
        we = vals[group.we_rows]                    # (G, W)

        # golden address + lanes-that-diverge words, in one sweep: a
        # lane agrees with machine 0 iff every address row matches its
        # golden words
        b0 = addr_rows[:, :, 0] & one               # (G, A)
        diff = self._golden_words.take(b0, 0, None, "clip")
        np.bitwise_xor(addr_rows, diff, out=diff)   # (G, A, W)
        mism = np.bitwise_or.reduce(diff, axis=1)   # (G, W)
        addr = (b0.astype(np.int64) @ group.pow2) % group.depth  # (G,)
        diverged = mism.any(axis=1)                 # (G,)
        gidx = group.gidx

        rdata = store[gidx, addr]                   # (G, W, width) copy
        agree = ~mism
        wdata = None
        writers = None
        divergent = diverged.any()
        couplings = self._couplings(gi, group) if self._mem_coupling \
            else None
        if couplings is not None:                   # pre-write cells
            aggressed = store[couplings.member, couplings.aw, :,
                              couplings.ab]         # (C, W) copy
        if divergent:
            gD, wD, bitD, starts, seg = self._divergent_lanes(group,
                                                              mism)
            lane_bits = addr_rows[gD, :, wD] & bitD  # (D, A)
            addrs = ((lane_bits != 0) @ group.pow2) % group.depth
            contrib = store[gD, addrs, wD] & bitD   # (D, width)
            np.bitwise_and(rdata, agree[:, :, None], out=rdata)
            rdata[seg] |= np.bitwise_or.reduceat(contrib, starts,
                                                 axis=0)

        uw = we & agree                             # uniform writers
        if uw.any():
            # wdata rows are (G, width, W); the store is transposed
            wdata = vals[group.wdata_rows].transpose(0, 2, 1)
            word = store[gidx, addr]
            word &= ~uw[:, :, None]
            word |= wdata & uw[:, :, None]
            store[gidx, addr] = word

        if divergent:
            webits = (we[gD, wD] & bitD[:, 0]) != 0
            if webits.any():
                if wdata is None:
                    wdata = vals[group.wdata_rows].transpose(0, 2, 1)
                sel = np.nonzero(webits)[0]
                aw = addrs[sel]
                gw = gD[sel]
                ww = wD[sel]
                lane = bitD[sel]                    # (K, 1)
                wd = wdata[gw, ww] & lane
                # group writers hitting the same (memory, word,
                # lane-word) cell so the read-modify-write can use
                # unique fancy indices
                key = (gw * np.int64(self.words) + ww) \
                    * np.int64(group.depth) + aw
                order = np.argsort(key, kind="stable")
                sorted_key = key[order]
                kmask = np.empty(sorted_key.shape[0], dtype=bool)
                kmask[0] = True
                np.not_equal(sorted_key[1:], sorted_key[:-1],
                             out=kmask[1:])
                kstarts = np.flatnonzero(kmask)
                clear = np.bitwise_or.reduceat(lane[order], kstarts,
                                               axis=0)
                setm = np.bitwise_or.reduceat(wd[order], kstarts, axis=0)
                first = order[kstarts]
                at = (gw[first], aw[first], ww[first])
                cell = store[at]
                np.bitwise_and(cell, ~clear, out=cell)
                np.bitwise_or(cell, setm, out=cell)
                store[at] = cell
                writers = (gw, aw, ww, lane)

        if couplings is not None:
            self._apply_couplings(group, couplings, aggressed, addr, uw,
                                  writers)

        if self._mem_stuck:
            stuck = self._stuck_cells(gi, group)
            if stuck is not None:
                sg, sw, sb, nclear, sset = stuck
                cells = store[sg, sw, :, sb]        # (S, W) copy
                np.bitwise_and(cells, nclear, out=cells)
                np.bitwise_or(cells, sset, out=cells)
                store[sg, sw, :, sb] = cells
                # the interpreted simulator patches read data only on the
                # uniform path — replicated bit-for-bit
                rsel = np.flatnonzero((sw == addr[sg]) & ~diverged[sg]) \
                    if not diverged.all() else ()
                if len(rsel):
                    rg = sg[rsel]
                    cols = sb[rsel]
                    rdata[rg, :, cols] = (rdata[rg, :, cols]
                                          & nclear[rsel]) | sset[rsel]

        group.rdata = rdata

    def _divergent_lanes(self, group: _MemGroup, mism: np.ndarray):
        """The lanes whose address diverges, reused while ``mism``
        repeats: ``(members, lane words, (D, 1) lane bit masks,
        segment starts, (member, word) index of each segment)``."""
        if group.sel is not None and \
                np.array_equal(mism, group.sel_mism):
            return group.sel
        gD, dsel = np.nonzero(
            (mism[:, self._lane_word] >> self._lane_shift) & _U64(1))
        wD = self._lane_word[dsel]
        bitD = (_U64(1) << self._lane_shift[dsel])[:, None]
        # nonzero ascends row-major, so (member, word) pairs are
        # sorted: the per-word OR-pack is segmented
        key = gD * self.words + wD
        smask = np.empty(key.shape[0], dtype=bool)
        smask[0] = True
        np.not_equal(key[1:], key[:-1], out=smask[1:])
        starts = np.flatnonzero(smask)
        group.sel_mism = mism
        group.sel = (gD, wD, bitD, starts, (gD[starts], wD[starts]))
        return group.sel

    def _couplings(self, gi: int, group: _MemGroup):
        """The group's coupling faults, or ``None``."""
        if gi not in self._coupling_cache:
            entries = [(j, aw, ab, vw, vb, mask)
                       for j, mi in enumerate(group.members)
                       for (aw, ab), (vw, vb), mask
                       in self._mem_coupling.get(mi, ())]
            self._coupling_cache[gi] = _Couplings(entries) \
                if entries else None
        return self._coupling_cache[gi]

    def _apply_couplings(self, group: _MemGroup, cp: _Couplings,
                         aggressed: np.ndarray, addr: np.ndarray,
                         uw: np.ndarray, writers) -> None:
        """Flip the victims of the aggressor cells this cycle wrote.

        Mirrors the interpreted per-bit write loop: a transition is
        measured against the cell as the loop finds it (so a flip from
        a lower bit of the same write counts), the flips land after the
        cycle's read data was captured, and a flip never triggers
        another coupling by itself.
        """
        # lanes of each coupling that wrote its aggressor word
        hit = np.where((addr[cp.member] == cp.aw)[:, None],
                       uw[cp.member], _U64(0))      # (C, W)
        if writers is not None:
            gw, aw, ww, lane = writers
            ci, ki = np.nonzero((cp.member[:, None] == gw[None, :])
                                & (cp.aw[:, None] == aw[None, :]))
            if len(ci):
                np.bitwise_or.at(hit, (ci, ww[ki]), lane[ki, 0])
        hit &= cp.mask
        if not hit.any():
            return
        diff = aggressed ^ self._vals[group.wdata_rows[cp.member, cp.ab]]
        for k, fed in cp.feeds:
            diff[fed] ^= diff[k] & hit[k]
        flips = diff & hit
        p = cp.persist
        np.bitwise_xor.at(group.store, (cp.member[p], cp.vw[p],
                                        slice(None), cp.vb[p]), flips[p])

    def _stuck_cells(self, gi: int, group: _MemGroup):
        """The group's stuck-at cells as stacked arrays, or ``None``."""
        if gi not in self._mem_stuck_cache:
            entries = [(j, word, bit, clear, setm)
                       for j, mi in enumerate(group.members)
                       for (word, bit), (clear, setm)
                       in self._mem_stuck.get(mi, {}).items()]
            self._mem_stuck_cache[gi] = (
                np.asarray([e[0] for e in entries], dtype=np.intp),
                np.asarray([e[1] for e in entries], dtype=np.intp),
                np.asarray([e[2] for e in entries], dtype=np.intp),
                np.stack([~e[3] for e in entries]),
                np.stack([e[4] for e in entries])) if entries else None
        return self._mem_stuck_cache[gi]

    # ------------------------------------------------------------------
    # toggle maps in net order (the campaign's toggle merge)
    # ------------------------------------------------------------------
    @property
    def _seen0(self) -> bytearray:
        return bytearray(
            self._t_seen0[self.compiled.perm[:self.compiled.num_nets]]
            .astype(np.uint8).tobytes())

    @property
    def _seen1(self) -> bytearray:
        return bytearray(
            self._t_seen1[self.compiled.perm[:self.compiled.num_nets]]
            .astype(np.uint8).tobytes())
