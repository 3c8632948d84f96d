"""The interpreted gate-level simulator: the test oracle of the compiled
kernel.

Production code simulates on
:class:`~repro.hdl.compiled.CompiledSimulator` only.  This module keeps
the levelized big-int interpreter it was built from as a test-only
reference: every net carries a Python integer whose bit *k* is the
logic value in machine *k* (machine 0 the fault-free golden run), and
the netlist is walked gate by gate in plain Python.  The differential
suites run campaigns, the profile replay, SET derating, VCD traces and
toggle coverage on both simulators and require the same bits.

Fault overlays: permanent stuck-at on any net, single-cycle bit-flips
on flip-flops (SEU) or nets (SET), bridging between two nets, memory
cell stuck-at, soft errors and inter-cell coupling, each restricted to
a subset of machines by a bit mask.
"""

from __future__ import annotations

from repro.hdl.netlist import (
    Circuit,
    NetlistError,
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_MUX,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
)
from repro.hdl.simulator import (
    BRIDGE_AND,
    BRIDGE_DOMINANT,
    BRIDGE_OR,
    SimulatorBase,
)


class Simulator(SimulatorBase):
    """Cycle-based simulator for a fixed number of parallel machines."""

    def __init__(self, circuit: Circuit, machines: int = 1,
                 collect_toggles: bool = False,
                 toggle_any_machine: bool = False,
                 cycle_budget: int | None = None):
        if machines < 1:
            raise ValueError("need at least one machine")
        self.circuit = circuit
        self.machines = machines
        self.full_mask = (1 << machines) - 1
        self.cycle = 0
        #: watchdog: evaluating more than this many cycles raises
        #: :class:`CycleBudgetExceeded` (``None`` disables the check)
        self.cycle_budget = cycle_budget

        order = circuit.levelize()
        self._program = []
        for gi in order:
            g = circuit.gates[gi]
            ins = g.inputs + (0,) * (3 - len(g.inputs))
            self._program.append((g.op, g.out, ins[0], ins[1], ins[2]))

        self._values = [0] * circuit.num_nets
        self._flop_state = [self.full_mask if f.init else 0
                            for f in circuit.flops]
        self._mem_store = [[[0] * m.width for _ in range(m.depth)]
                           for m in circuit.memories]
        self._mem_rdata = [[0] * m.width for m in circuit.memories]

        self._flop_index = {f.name: i for i, f in enumerate(circuit.flops)}
        self._mem_index = {m.name: i for i, m in enumerate(circuit.memories)}
        self._net_index: dict[str, int] | None = None

        # fault state
        self._forced: dict[int, tuple[int, int]] = {}
        self._flop_flips: dict[int, list[tuple[int, int]]] = {}
        self._net_glitches: dict[int, list[tuple[int, int]]] = {}
        self._mem_flips: dict[int, list[tuple[int, int, int, int]]] = {}
        self._bridges: list[tuple[int, int, str, int]] = []
        self._mem_stuck: dict[int, dict[tuple[int, int], tuple[int, int]]] = {}
        self._mem_coupling: dict[int, list[tuple]] = {}

        # toggle coverage (golden machine, or any machine when
        # toggle_any_machine is set — used to credit diagnostic-only
        # logic exercised by injected faults)
        self.collect_toggles = collect_toggles
        self.toggle_any_machine = toggle_any_machine
        self._seen0 = bytearray(circuit.num_nets)
        self._seen1 = bytearray(circuit.num_nets)

    # ------------------------------------------------------------------
    # fault programming
    # ------------------------------------------------------------------
    def stick_net(self, net, value: int, machines=None) -> None:
        """Permanent stuck-at-``value`` on a net in selected machines."""
        net = self._resolve_net(net)
        mask = self._mask(machines)
        clear, setm = self._forced.get(net, (0, 0))
        clear |= mask
        setm = (setm & ~mask) | (mask if value else 0)
        self._forced[net] = (clear, setm)

    def schedule_flop_flip(self, flop, cycle: int, machines=None) -> None:
        """Flip a flip-flop's stored state at the start of ``cycle``."""
        idx = self._resolve_flop(flop)
        self._flop_flips.setdefault(cycle, []).append(
            (idx, self._mask(machines)))

    def schedule_net_glitch(self, net, cycle: int, machines=None) -> None:
        """Invert a net for one evaluation at ``cycle`` (SET model)."""
        net = self._resolve_net(net)
        self._net_glitches.setdefault(cycle, []).append(
            (net, self._mask(machines)))

    def add_bridge(self, aggressor, victim, mode: str = BRIDGE_DOMINANT,
                   machines=None) -> None:
        """Bridging fault: the victim net is corrupted by the aggressor."""
        self._bridges.append((self._resolve_net(aggressor),
                              self._resolve_net(victim), mode,
                              self._mask(machines)))

    def set_mem_cell_stuck(self, mem, word: int, bit: int, value: int,
                           machines=None) -> None:
        mem = self._resolve_mem(mem)
        mask = self._mask(machines)
        table = self._mem_stuck.setdefault(mem, {})
        clear, setm = table.get((word, bit), (0, 0))
        clear |= mask
        setm = (setm & ~mask) | (mask if value else 0)
        table[(word, bit)] = (clear, setm)

    def schedule_mem_flip(self, mem, word: int, bit: int, cycle: int,
                          machines=None) -> None:
        """Soft error: flip a memory cell at the start of ``cycle``."""
        mem = self._resolve_mem(mem)
        self._mem_flips.setdefault(cycle, []).append(
            (mem, word, bit, self._mask(machines)))

    def add_mem_coupling(self, mem, aggressor: tuple[int, int],
                         victim: tuple[int, int], machines=None) -> None:
        """Coupling fault: a write transition on aggressor flips victim."""
        mem = self._resolve_mem(mem)
        self._mem_coupling.setdefault(mem, []).append(
            (aggressor, victim, self._mask(machines)))

    def clear_faults(self) -> None:
        self._forced.clear()
        self._flop_flips.clear()
        self._net_glitches.clear()
        self._mem_flips.clear()
        self._bridges.clear()
        self._mem_stuck.clear()
        self._mem_coupling.clear()

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------
    def set_input(self, name: str, value: int) -> None:
        """Drive an input port with an integer, same in all machines."""
        try:
            nets = self.circuit.inputs[name]
        except KeyError:
            raise NetlistError(f"no input named {name!r}") from None
        full = self.full_mask
        vals = self._values
        for bit, net in enumerate(nets):
            vals[net] = full if (value >> bit) & 1 else 0

    def set_input_lane(self, name: str, machine: int, value: int) -> None:
        """Override an input port's value in a single machine."""
        nets = self.circuit.inputs[name]
        lane = 1 << machine
        vals = self._values
        for bit, net in enumerate(nets):
            if (value >> bit) & 1:
                vals[net] |= lane
            else:
                vals[net] &= ~lane

    def peek(self, net) -> int:
        """Raw machine-mask value of a net (after the last evaluation)."""
        return self._values[self._resolve_net(net)]

    def peek_bit(self, net, machine: int = 0) -> int:
        return (self.peek(net) >> machine) & 1

    def value_of(self, nets, machine: int = 0) -> int:
        """Assemble an integer from a list of nets for one machine."""
        out = 0
        vals = self._values
        for bit, net in enumerate(nets):
            out |= ((vals[net] >> machine) & 1) << bit
        return out

    def set_flop(self, flop, value: int, machines=None) -> None:
        idx = self._resolve_flop(flop)
        mask = self._mask(machines)
        state = self._flop_state[idx]
        self._flop_state[idx] = (state & ~mask) | (mask if value else 0)

    def flop_value(self, flop, machine: int = 0) -> int:
        return (self._flop_state[self._resolve_flop(flop)] >> machine) & 1

    def load_mem(self, mem, words: list[int]) -> None:
        """Initialize memory contents (broadcast to all machines)."""
        mi = self._resolve_mem(mem)
        block = self.circuit.memories[mi]
        store = self._mem_store[mi]
        full = self.full_mask
        for w, word in enumerate(words):
            if w >= block.depth:
                break
            for b in range(block.width):
                store[w][b] = full if (word >> b) & 1 else 0

    def read_mem_word(self, mem, word: int, machine: int = 0) -> int:
        mi = self._resolve_mem(mem)
        store = self._mem_store[mi]
        out = 0
        for b, bits in enumerate(store[word]):
            out |= ((bits >> machine) & 1) << b
        return out

    def flop_state_mismatch(self, flops) -> int:
        """Machines whose stored state differs from machine 0."""
        full = self.full_mask
        diff = 0
        for flop in flops:
            v = self._flop_state[self._resolve_flop(flop)]
            golden = full if v & 1 else 0
            diff |= v ^ golden
        return diff & ~1 & full

    def mem_word_mismatch(self, mem, word: int) -> int:
        """Machines whose copy of a memory word differs from machine 0."""
        full = self.full_mask
        diff = 0
        for bits in self._mem_store[self._resolve_mem(mem)][word]:
            golden = full if bits & 1 else 0
            diff |= bits ^ golden
        return diff & ~1 & full

    def mismatch_mask(self, nets) -> int:
        """Machines whose value differs from the golden machine 0."""
        full = self.full_mask
        diff = 0
        vals = self._values
        for net in nets:
            v = vals[net]
            golden = full if v & 1 else 0
            diff |= v ^ golden
        return diff & ~1 & full

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def eval_comb(self) -> None:
        """Propagate sources through the combinational network."""
        vals = self._values
        full = self.full_mask

        for i, flop in enumerate(self.circuit.flops):
            vals[flop.q] = self._flop_state[i]
        for mi, mem in enumerate(self.circuit.memories):
            rdata = self._mem_rdata[mi]
            for b, net in enumerate(mem.rdata):
                vals[net] = rdata[b]

        forced = self._forced
        glitches = self._net_glitches.get(self.cycle)
        glitch_map: dict[int, int] = {}
        if glitches:
            for net, mask in glitches:
                glitch_map[net] = glitch_map.get(net, 0) | mask

        bridges = self._bridges
        if bridges:
            raw = {net: vals[net] for net in glitch_map}
        self._eval_pass(forced, glitch_map)

        if bridges:
            extra = dict(forced)
            for agg, vic, mode, mask in bridges:
                a, v = vals[agg], vals[vic]
                if mode == BRIDGE_AND:
                    bridged = a & v
                elif mode == BRIDGE_OR:
                    bridged = a | v
                else:  # dominant aggressor wins
                    bridged = a
                clear, setm = extra.get(vic, (0, 0))
                clear |= mask
                setm = (setm & ~mask) | (bridged & mask)
                extra[vic] = (clear, setm)
            # the re-pass restarts from the unglitched sources, so every
            # glitch is applied exactly once per evaluation
            for net, value in raw.items():
                vals[net] = value
            self._eval_pass(extra, glitch_map)

    def _eval_pass(self, forced, glitch_map) -> None:
        vals = self._values
        full = self.full_mask
        has_mods = bool(forced or glitch_map)

        if has_mods:
            for net, (clear, setm) in forced.items():
                vals[net] = (vals[net] & ~clear) | setm
            for net, mask in glitch_map.items():
                vals[net] ^= mask

        for op, out, a, b, c in self._program:
            if op == OP_AND:
                v = vals[a] & vals[b]
            elif op == OP_XOR:
                v = vals[a] ^ vals[b]
            elif op == OP_OR:
                v = vals[a] | vals[b]
            elif op == OP_NOT:
                v = vals[a] ^ full
            elif op == OP_BUF:
                v = vals[a]
            elif op == OP_MUX:
                s = vals[a]
                v = (vals[b] & s) | (vals[c] & ~s)
            elif op == OP_NAND:
                v = (vals[a] & vals[b]) ^ full
            elif op == OP_NOR:
                v = (vals[a] | vals[b]) ^ full
            elif op == OP_XNOR:
                v = (vals[a] ^ vals[b]) ^ full
            elif op == OP_CONST0:
                v = 0
            else:  # OP_CONST1
                v = full
            if has_mods:
                pair = forced.get(out)
                if pair is not None:
                    clear, setm = pair
                    v = (v & ~clear) | setm
                g = glitch_map.get(out)
                if g is not None:
                    v ^= g
            vals[out] = v

        if self.collect_toggles:
            seen0, seen1 = self._seen0, self._seen1
            if self.toggle_any_machine:
                for net, v in enumerate(vals):
                    if v:
                        seen1[net] = 1
                    if v != full:
                        seen0[net] = 1
            else:
                for net, v in enumerate(vals):
                    if v & 1:
                        seen1[net] = 1
                    else:
                        seen0[net] = 1

    def clock_edge(self) -> None:
        """Commit flop/memory state for the next cycle."""
        vals = self._values
        full = self.full_mask

        new_state = self._flop_state
        for i, flop in enumerate(self.circuit.flops):
            d = vals[flop.d]
            q = new_state[i]
            en = full if flop.en is None else vals[flop.en]
            nxt = (d & en) | (q & ~en)
            if flop.rst is not None:
                rst = vals[flop.rst]
                init = full if flop.init else 0
                nxt = (init & rst) | (nxt & ~rst)
            new_state[i] = nxt

        for mi, mem in enumerate(self.circuit.memories):
            self._mem_cycle(mi, mem)

        self.cycle += 1

    def _begin_cycle_events(self) -> None:
        flips = self._flop_flips.get(self.cycle)
        if flips:
            for idx, mask in flips:
                self._flop_state[idx] ^= mask
        mflips = self._mem_flips.get(self.cycle)
        if mflips:
            for mi, word, bit, mask in mflips:
                self._mem_store[mi][word][bit] ^= mask

    # ------------------------------------------------------------------
    # memory engine
    # ------------------------------------------------------------------
    def _mem_cycle(self, mi: int, mem) -> None:
        vals = self._values
        full = self.full_mask
        store = self._mem_store[mi]
        addr_bits = [vals[n] for n in mem.addr]
        we = vals[mem.we]
        stuck = self._mem_stuck.get(mi)
        coupling = self._mem_coupling.get(mi)

        uniform = all(bits == 0 or bits == full for bits in addr_bits)
        if uniform:
            addr = 0
            for i, bits in enumerate(addr_bits):
                if bits:
                    addr |= 1 << i
            addr %= mem.depth
            word = store[addr]
            rdata = list(word)
            if we:
                for b in range(mem.width):
                    old = word[b]
                    new = (old & ~we) | (vals[mem.wdata[b]] & we)
                    word[b] = new
                    if coupling:
                        self._apply_coupling(store, coupling, addr, b,
                                             (old ^ new) & we)
        else:
            rdata = [0] * mem.width
            for k in range(self.machines):
                addr = 0
                for i, bits in enumerate(addr_bits):
                    if (bits >> k) & 1:
                        addr |= 1 << i
                addr %= mem.depth
                lane = 1 << k
                word = store[addr]
                for b in range(mem.width):
                    rdata[b] |= word[b] & lane
                if we & lane:
                    for b in range(mem.width):
                        old = word[b]
                        new = (old & ~lane) | (vals[mem.wdata[b]] & lane)
                        word[b] = new
                        if coupling:
                            self._apply_coupling(store, coupling, addr, b,
                                                 (old ^ new) & lane)

        if stuck:
            for (word_idx, bit), (clear, setm) in stuck.items():
                cell = store[word_idx][bit]
                store[word_idx][bit] = (cell & ~clear) | setm
            if uniform:
                for (word_idx, bit), (clear, setm) in stuck.items():
                    if word_idx == addr:
                        rdata[bit] = (rdata[bit] & ~clear) | setm

        self._mem_rdata[mi] = rdata

    @staticmethod
    def _apply_coupling(store, coupling, addr, bit, transition_mask):
        if not transition_mask:
            return
        for (aw, ab), (vw, vb), mask in coupling:
            if aw == addr and ab == bit:
                store[vw][vb] ^= transition_mask & mask

    # ------------------------------------------------------------------
    # toggle coverage
    # ------------------------------------------------------------------
    def toggle_report(self) -> tuple[int, int]:
        """(nets that saw both values, total observable nets)."""
        total = 0
        both = 0
        const_nets = {g.out for g in self.circuit.gates
                      if g.op in (OP_CONST0, OP_CONST1)}
        seen0, seen1 = self._seen0, self._seen1
        for net in range(self.circuit.num_nets):
            if net in const_nets:
                continue
            total += 1
            if seen0[net] and seen1[net]:
                both += 1
        return both, total

    def toggle_coverage(self) -> float:
        both, total = self.toggle_report()
        return both / total if total else 1.0

    def untoggled_nets(self) -> list[str]:
        const_nets = {g.out for g in self.circuit.gates
                      if g.op in (OP_CONST0, OP_CONST1)}
        seen0, seen1 = self._seen0, self._seen1
        names = []
        for net in range(self.circuit.num_nets):
            if net in const_nets:
                continue
            if not (seen0[net] and seen1[net]):
                names.append(self.circuit.net_names[net])
        return names
